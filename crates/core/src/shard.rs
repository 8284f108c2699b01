//! Shard plans: the statically derived partition of each type's state space.
//!
//! A [`ShardPlan`] is the artifact emitted by the shard-partition analysis
//! (`guesstimate-analysis`): per registered type, the connected components of
//! the footprint interference graph (each a [`ComponentPlan`] of symbolic
//! path prefixes) and a per-method [`Routing`] that maps an invocation to a
//! [`ShardId`] from its arguments alone. The runtime consumes the plan to
//! route operations and — with its `Checks` on — to assert that committed
//! effects stay inside the routed shard; the future multi-group synchronizer
//! will consume the same plan to synchronize shards independently.
//!
//! The plan language is deliberately closed under serialization: every field
//! round-trips through the `analyze --shard-plan` JSON (schema v3), and all
//! containers are ordered so a plan renders byte-identically run-to-run.

use std::collections::BTreeMap;
use std::fmt;

use crate::op::{SharedOp, TypeOf};
use crate::paths::PathPattern;
use crate::value::Value;

/// One connected component of a type's footprint interference graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentPlan {
    /// The component's path prefixes, sorted by rendering.
    pub prefixes: Vec<PathPattern>,
    /// True if the component splits into per-key shards: every prefix binds
    /// a key segment and distinct key values are provably disjoint.
    pub keyed: bool,
}

impl ComponentPlan {
    /// True if an access to `path` stays inside this component when the
    /// component is instantiated at shard key `key` (`None` for unkeyed
    /// components, which own their whole subtree family).
    pub fn allows(&self, path: &str, key: Option<&str>) -> bool {
        self.prefixes.iter().any(|p| p.covers(path, key))
    }
}

/// How one method's invocations map to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Routing {
    /// Every invocation stays inside one component. For keyed components
    /// `key_arg` names the argument whose rendering selects the shard.
    Local {
        /// Index into [`TypePlan::components`].
        component: u32,
        /// Argument index rendered into the shard key (`None` ⇒ unkeyed).
        key_arg: Option<usize>,
    },
    /// The method can span components (or its footprint is not statically
    /// attributable): it requires cross-shard coordination.
    CrossShard,
}

/// The shard plan for one registered type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TypePlan {
    /// Interference-graph components, in deterministic order.
    pub components: Vec<ComponentPlan>,
    /// Routing for every registered method of the type.
    pub routes: BTreeMap<String, Routing>,
}

/// A validated shard plan covering every analyzed type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardPlan {
    /// Per-type plans, keyed by `TYPE_NAME`.
    pub types: BTreeMap<String, TypePlan>,
}

/// The shard an operation routes to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShardId {
    /// A shard-local operation: one component of one type, optionally
    /// instantiated at a key value.
    Local {
        /// The object type owning the component.
        type_name: String,
        /// Index into that type's [`TypePlan::components`].
        component: u32,
        /// The rendered key value for keyed components.
        key: Option<String>,
    },
    /// Cross-shard: the operation needs global coordination.
    Cross,
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardId::Local {
                type_name,
                component,
                key: Some(k),
            } => write!(f, "{type_name}:{component}/{k}"),
            ShardId::Local {
                type_name,
                component,
                key: None,
            } => write!(f, "{type_name}:{component}"),
            ShardId::Cross => write!(f, "cross"),
        }
    }
}

/// Renders an argument value as a shard-key segment, mirroring how app
/// `EffectSpec`s embed arguments into footprint paths (strings verbatim,
/// integers in decimal). Structured values are not usable as keys.
pub fn key_render(v: &Value) -> Option<String> {
    match v {
        Value::Str(s) => Some(s.clone()),
        Value::Int(i) => Some(i.to_string()),
        Value::Bool(b) => Some(b.to_string()),
        _ => None,
    }
}

impl ShardPlan {
    /// An empty plan (routes nothing; everything falls back to
    /// [`ShardId::Cross`]).
    pub fn new() -> Self {
        ShardPlan::default()
    }

    /// Reads the per-app `shard_plan` objects of an `analyze --json`
    /// archive (schema v3; v1/v2 archives parse but carry no plans) back
    /// into a combined plan — the runtime-side loader behind
    /// `MachineConfig::with_shard_plan_from_json`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntactic or shape problem,
    /// including unknown versions and prefix patterns that fail to parse.
    pub fn from_json_archive(text: &str) -> Result<Self, String> {
        use crate::json::Json;
        let doc = Json::parse(text)?;
        match doc.get("version").and_then(Json::as_u64) {
            Some(1..=3) => {}
            Some(v) => return Err(format!("unsupported archive version {v}")),
            None => return Err("missing `version`".to_owned()),
        }
        let apps = doc
            .get("apps")
            .and_then(Json::as_list)
            .ok_or("missing `apps` array")?;
        let mut plan = ShardPlan::new();
        for app in apps {
            let ty = app
                .get("type")
                .and_then(Json::as_str)
                .ok_or("app missing `type`")?;
            let Some(sp) = app.get("shard_plan") else {
                continue;
            };
            let mut tp = TypePlan::default();
            for c in sp
                .get("components")
                .and_then(Json::as_list)
                .ok_or("shard_plan missing `components`")?
            {
                let keyed = c
                    .get("keyed")
                    .and_then(Json::as_bool)
                    .ok_or("component missing `keyed`")?;
                let mut prefixes = Vec::new();
                for p in c
                    .get("prefixes")
                    .and_then(Json::as_list)
                    .ok_or("component missing `prefixes`")?
                {
                    let text = p.as_str().ok_or("prefix must be a string")?;
                    prefixes.push(PathPattern::parse(text)?);
                }
                tp.components.push(ComponentPlan { prefixes, keyed });
            }
            let routes = sp
                .get("routes")
                .and_then(Json::as_map)
                .ok_or("shard_plan missing `routes`")?;
            for (method, r) in routes {
                let route = match r.get("kind").and_then(Json::as_str) {
                    Some("cross") => Routing::CrossShard,
                    Some("local") => Routing::Local {
                        component: r
                            .get("component")
                            .and_then(Json::as_u64)
                            .and_then(|c| u32::try_from(c).ok())
                            .ok_or("local route missing a u32 `component`")?,
                        key_arg: match r.get("key_arg") {
                            None | Some(Json::Null) => None,
                            Some(v) => Some(
                                v.as_u64()
                                    .and_then(|a| usize::try_from(a).ok())
                                    .ok_or("`key_arg` must be an index")?,
                            ),
                        },
                    },
                    other => return Err(format!("unknown route kind {other:?}")),
                };
                tp.routes.insert(method.clone(), route);
            }
            plan.types.insert(ty.to_owned(), tp);
        }
        Ok(plan)
    }

    /// Routes one primitive method invocation.
    ///
    /// Unknown types or methods, and keyed routes whose key argument is
    /// missing or unrenderable, conservatively route to [`ShardId::Cross`].
    pub fn route_primitive(&self, type_name: &str, method: &str, args: &[Value]) -> ShardId {
        let Some(tp) = self.types.get(type_name) else {
            return ShardId::Cross;
        };
        let Some(route) = tp.routes.get(method) else {
            return ShardId::Cross;
        };
        match route {
            Routing::CrossShard => ShardId::Cross,
            Routing::Local { component, key_arg } => {
                let key = match key_arg {
                    None => None,
                    Some(i) => match args.get(*i).and_then(key_render) {
                        Some(k) => Some(k),
                        None => return ShardId::Cross,
                    },
                };
                ShardId::Local {
                    type_name: type_name.to_owned(),
                    component: *component,
                    key,
                }
            }
        }
    }

    /// Routes a whole operation tree. Composite operations route to the
    /// common shard of their constituents when all agree, and cross-shard
    /// otherwise. Objects whose type cannot be resolved route cross-shard
    /// (the conservative direction: cross-shard operations are never
    /// containment-checked).
    pub fn route_op(&self, op: &SharedOp, type_of: TypeOf<'_>) -> ShardId {
        match op {
            SharedOp::Primitive {
                object,
                method,
                args,
            } => match type_of(*object) {
                Some(ty) => self.route_primitive(&ty, method, args),
                None => ShardId::Cross,
            },
            SharedOp::Atomic(ops) => {
                let mut acc: Option<ShardId> = None;
                for op in ops {
                    let s = self.route_op(op, type_of);
                    match &acc {
                        None => acc = Some(s),
                        Some(prev) if *prev == s => {}
                        Some(_) => return ShardId::Cross,
                    }
                }
                acc.unwrap_or(ShardId::Cross)
            }
            SharedOp::OrElse(a, b) => {
                let sa = self.route_op(a, type_of);
                let sb = self.route_op(b, type_of);
                if sa == sb {
                    sa
                } else {
                    ShardId::Cross
                }
            }
        }
    }

    /// Checks that an observed (or declared) access to `path` on an object
    /// of type `object_type` stays inside the routed shard. Returns a
    /// human-readable escape description, or `None` if contained.
    /// [`ShardId::Cross`] operations are allowed to touch anything.
    pub fn escape(&self, shard: &ShardId, object_type: &str, path: &str) -> Option<String> {
        let ShardId::Local {
            type_name,
            component,
            key,
        } = shard
        else {
            return None;
        };
        if object_type != type_name {
            return Some(format!(
                "op routed to shard `{shard}` touched an object of type `{object_type}`"
            ));
        }
        let comp = self
            .types
            .get(type_name)
            .and_then(|tp| tp.components.get(*component as usize));
        let Some(comp) = comp else {
            return Some(format!(
                "shard `{shard}` names a component missing from the plan"
            ));
        };
        if comp.allows(path, key.as_deref()) {
            None
        } else {
            Some(format!("access to `{path}` escapes shard `{shard}`"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;
    use crate::ids::{MachineId, ObjectId};

    fn keyed_plan() -> ShardPlan {
        let mut tp = TypePlan {
            components: vec![ComponentPlan {
                prefixes: vec![PathPattern::parse("topics/{0}").unwrap()],
                keyed: true,
            }],
            routes: BTreeMap::new(),
        };
        tp.routes.insert(
            "post".to_owned(),
            Routing::Local {
                component: 0,
                key_arg: Some(0),
            },
        );
        tp.routes.insert("purge".to_owned(), Routing::CrossShard);
        let mut plan = ShardPlan::new();
        plan.types.insert("Board".to_owned(), tp);
        plan
    }

    #[test]
    fn routing_instantiates_the_key_argument() {
        let plan = keyed_plan();
        let shard = plan.route_primitive("Board", "post", &args!["general", "ann"]);
        assert_eq!(
            shard,
            ShardId::Local {
                type_name: "Board".into(),
                component: 0,
                key: Some("general".into()),
            }
        );
        assert_eq!(shard.to_string(), "Board:0/general");
        assert_eq!(
            plan.route_primitive("Board", "purge", &args![]),
            ShardId::Cross
        );
        // Missing key argument and unknown methods degrade to Cross.
        assert_eq!(
            plan.route_primitive("Board", "post", &args![]),
            ShardId::Cross
        );
        assert_eq!(
            plan.route_primitive("Board", "nope", &args![1]),
            ShardId::Cross
        );
        assert_eq!(
            plan.route_primitive("Other", "post", &args![1]),
            ShardId::Cross
        );
    }

    fn obj(n: u64) -> ObjectId {
        ObjectId::new(MachineId::new(0), n)
    }

    #[test]
    fn unknown_types_route_cross() {
        let plan = keyed_plan();
        let resolve = |_: ObjectId| Some("Board".to_owned());
        let unresolved = |_: ObjectId| None;
        let post = SharedOp::primitive(obj(0), "post", args!["news", "ann"]);
        assert_eq!(plan.route_op(&post, &unresolved), ShardId::Cross);
        assert_eq!(plan.route_op(&post, &resolve).to_string(), "Board:0/news");
    }

    #[test]
    fn composites_route_to_the_common_shard_or_cross() {
        let plan = keyed_plan();
        let resolve = |_: ObjectId| Some("Board".to_owned());
        let p = |topic: &str| SharedOp::primitive(obj(0), "post", args![topic, "ann"]);
        let same = SharedOp::atomic(vec![p("news"), p("news")]);
        assert_eq!(plan.route_op(&same, &resolve).to_string(), "Board:0/news");
        let split = SharedOp::atomic(vec![p("news"), p("random")]);
        assert_eq!(plan.route_op(&split, &resolve), ShardId::Cross);
        let or = SharedOp::or_else(p("news"), p("news"));
        assert_eq!(plan.route_op(&or, &resolve).to_string(), "Board:0/news");
        let empty = SharedOp::atomic(vec![]);
        assert_eq!(plan.route_op(&empty, &resolve), ShardId::Cross);
    }

    #[test]
    fn escape_checks_containment_per_key() {
        let plan = keyed_plan();
        let shard = plan.route_primitive("Board", "post", &args!["general"]);
        assert_eq!(plan.escape(&shard, "Board", "topics/general"), None);
        assert_eq!(plan.escape(&shard, "Board", "topics/general/posts/3"), None);
        let esc = plan.escape(&shard, "Board", "topics/news").unwrap();
        assert!(esc.contains("topics/news"), "{esc}");
        assert!(esc.contains("Board:0/general"), "{esc}");
        let wrong_type = plan.escape(&shard, "Ledger", "topics/general").unwrap();
        assert!(wrong_type.contains("Ledger"), "{wrong_type}");
        assert_eq!(plan.escape(&ShardId::Cross, "Board", "anything"), None);
    }

    #[test]
    fn key_render_covers_scalar_values() {
        assert_eq!(key_render(&Value::from("x")), Some("x".to_owned()));
        assert_eq!(key_render(&Value::from(7i64)), Some("7".to_owned()));
        assert_eq!(key_render(&Value::from(true)), Some("true".to_owned()));
        assert_eq!(key_render(&Value::List(vec![])), None);
    }

    #[test]
    fn an_archived_component_past_u32_is_an_error() {
        let archive = |component: u64| {
            format!(
                r#"{{"version": 3, "apps": [{{"type": "Board", "shard_plan": {{
                    "components": [{{"keyed": true, "prefixes": ["topics/{{0}}"]}}],
                    "routes": {{"post": {{"kind": "local", "component": {component}, "key_arg": 0}}}}
                }}}}]}}"#
            )
        };
        let mut expected = keyed_plan();
        expected
            .types
            .get_mut("Board")
            .unwrap()
            .routes
            .remove("purge");
        assert_eq!(ShardPlan::from_json_archive(&archive(0)), Ok(expected));
        let err = ShardPlan::from_json_archive(&archive(1 << 32)).unwrap_err();
        assert!(err.contains("component"), "{err}");
    }
}
