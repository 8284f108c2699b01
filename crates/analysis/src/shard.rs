//! Shard-partition analysis: from validated footprints to a [`ShardPlan`].
//!
//! The pass abstracts each method's concrete footprints (evaluated over its
//! analyzed argument space) into symbolic [`PathPattern`]s — path segments
//! equal to the rendering of an argument become [`Seg::Key`] candidates, and
//! argument-independent variation generalizes to [`Seg::Any`] — then builds
//! the **interference graph**: nodes are the patterns, and edges connect
//! patterns that any single method, any symbolically overlapping pattern
//! pair, or any `Conflict`-classified method pair can touch together. Its
//! connected components (union-find) are the shards.
//!
//! A component is **keyed** when every pattern binds exactly one key segment
//! and no two patterns (including a pattern against itself) can overlap
//! under distinct key values — then the runtime may split it per key, and
//! each touching method routes `Local(component, key_arg)`. Methods that
//! read [`guesstimate_core::ROOT`], lack a validated footprint, or span
//! components are `CrossShard` and require global coordination.
//!
//! Three independent validators back the construction: a static sanitizer
//! ([`sanitize_type_plan`]), a witness-backed escape check reusing the
//! bounded-exhaustive executor ([`witness_check_type_plan`]), and the
//! runtime's containment assertion under its `Checks` (see
//! `guesstimate-runtime`) exercised by the model checker's `ShardEscape`
//! oracle.

use std::collections::{BTreeMap, BTreeSet};

use guesstimate_core::paths::{PathPattern, Seg};
use guesstimate_core::shard::{key_render, ComponentPlan, Routing, ShardPlan, TypePlan};
use guesstimate_core::{
    execute_witnessed, ArgView, ObjectStore, OpRegistry, ProbeReads, SharedOp, ROOT,
};
use guesstimate_spec::CaseSpace;

use crate::{AppReport, Classification, MethodSpace};

/// The symbolic footprint abstraction of one method.
#[derive(Debug, Clone, Default)]
struct MethodAbstract {
    /// Patterns the method can touch (empty iff `cross` or footprint-free).
    patterns: BTreeSet<PathPattern>,
    /// True if the method must coordinate globally: it reads [`ROOT`], its
    /// pattern abstraction is unstable beyond repair, or its footprint was
    /// refuted by the sanitizers.
    cross: bool,
}

/// Abstracts one concrete footprint path against the argument vector:
/// each segment equal to the rendering of some argument becomes that
/// argument's [`Seg::Key`] (lowest index wins), everything else stays
/// literal.
fn patternize(path: &str, argv: &[guesstimate_core::Value]) -> PathPattern {
    let rendered: Vec<Option<String>> = argv.iter().map(key_render).collect();
    let segs =
        path.split('/').map(
            |seg| match rendered.iter().position(|r| r.as_deref() == Some(seg)) {
                Some(i) => Seg::Key(i),
                None => Seg::Lit(seg.to_owned()),
            },
        );
    PathPattern::new(segs)
}

/// The unification group of a pattern: length plus leading segment. Only
/// patterns in the same group are generalized together, so a computed map
/// index (`grid/13`, `grid/40`, …) widens to `grid/*` without dragging a
/// sibling family (`fixed/…`) into the same wildcard.
fn group_key(p: &PathPattern) -> (usize, Seg) {
    (
        p.segs().len(),
        p.segs().first().cloned().unwrap_or(Seg::Any),
    )
}

/// Position-wise generalization of a non-empty pattern group: segments all
/// members agree on survive, disagreeing positions widen to [`Seg::Any`].
fn unify(group: &[&PathPattern]) -> PathPattern {
    let len = group[0].segs().len();
    let segs = (0..len).map(|i| {
        let first = &group[0].segs()[i];
        if group.iter().all(|p| &p.segs()[i] == first) {
            first.clone()
        } else {
            Seg::Any
        }
    });
    PathPattern::new(segs)
}

/// Computes the symbolic abstraction of one method over its argument space.
fn abstract_method(registry: &OpRegistry, type_name: &str, ms: &MethodSpace) -> MethodAbstract {
    let Some(effect) = registry.effect_of(type_name, &ms.method) else {
        return MethodAbstract {
            cross: true,
            ..MethodAbstract::default()
        };
    };
    // Per-argument-tuple pattern sets; tuples with empty footprints (the
    // specs' malformed-argument convention) contribute nothing.
    let mut tuple_sets: Vec<BTreeSet<PathPattern>> = Vec::new();
    for argv in &ms.args {
        let fp = effect.footprint(ArgView::new(argv));
        let mut set = BTreeSet::new();
        for path in fp.reads.iter().chain(fp.writes.iter()) {
            if path == ROOT {
                // Whole-snapshot access cannot be attributed to a shard.
                return MethodAbstract {
                    cross: true,
                    ..MethodAbstract::default()
                };
            }
            set.insert(patternize(path, argv));
        }
        if !set.is_empty() {
            tuple_sets.push(set);
        }
    }
    let Some(first) = tuple_sets.first() else {
        return MethodAbstract::default(); // footprint-free
    };
    if tuple_sets.iter().all(|s| s == first) {
        return MethodAbstract {
            patterns: first.clone(),
            cross: false,
        };
    }
    // Unstable abstraction (argument-computed segments): generalize per
    // unification group — but only if every tuple exhibits the *same*
    // groups. A method whose group set itself depends on the arguments
    // (e.g. a leading segment computed from them) has no finite prefix
    // abstraction and goes cross-shard.
    let groups_of =
        |s: &BTreeSet<PathPattern>| -> BTreeSet<(usize, Seg)> { s.iter().map(group_key).collect() };
    let first_groups = groups_of(first);
    if !tuple_sets.iter().all(|s| groups_of(s) == first_groups) {
        return MethodAbstract {
            cross: true,
            ..MethodAbstract::default()
        };
    }
    let mut by_group: BTreeMap<(usize, Seg), Vec<&PathPattern>> = BTreeMap::new();
    for p in tuple_sets.iter().flatten() {
        by_group.entry(group_key(p)).or_default().push(p);
    }
    let patterns: BTreeSet<PathPattern> = by_group.values().map(|g| unify(g)).collect();
    // A widened leading segment would mean "any top-level entry" — that is
    // ROOT in disguise, not a prefix.
    if patterns
        .iter()
        .any(|p| matches!(p.segs().first(), None | Some(Seg::Any)))
    {
        return MethodAbstract {
            cross: true,
            ..MethodAbstract::default()
        };
    }
    MethodAbstract {
        patterns,
        cross: false,
    }
}

/// A plain union-find over pattern indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let root = self.find(self.parent[i]);
            self.parent[i] = root;
        }
        self.parent[i]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// The set of methods whose footprints the analysis refuted (any violation
/// naming the method, alone or as part of a pair).
fn refuted_methods(report: &AppReport) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for v in &report.violations {
        for m in v.method.split(';') {
            out.insert(m.to_owned());
        }
    }
    out
}

/// Derives the shard plan for one analyzed type.
///
/// `spaces` and `report` must come from the same [`crate::analyze_app`]
/// run: the report's `Conflict` classifications become interference edges,
/// and its violations force the offending methods cross-shard (a refuted
/// footprint proves nothing about locality).
///
/// The construction is deterministic: components are ordered by their
/// smallest pattern rendering, prefixes sorted within each component, and
/// routes keyed by method name.
pub fn derive_type_plan(
    registry: &OpRegistry,
    type_name: &str,
    spaces: &[MethodSpace],
    report: &AppReport,
) -> TypePlan {
    let refuted = refuted_methods(report);
    // Abstract every method with a validated footprint.
    let mut abstracts: BTreeMap<&str, MethodAbstract> = BTreeMap::new();
    for ms in spaces {
        let mut ab = if refuted.contains(&ms.method) {
            MethodAbstract {
                cross: true,
                ..MethodAbstract::default()
            }
        } else {
            abstract_method(registry, type_name, ms)
        };
        if ab.cross {
            ab.patterns.clear();
        }
        abstracts.insert(ms.method.as_str(), ab);
    }

    // Interference-graph nodes: the deduplicated patterns, in order.
    let nodes: Vec<PathPattern> = abstracts
        .values()
        .flat_map(|a| a.patterns.iter().cloned())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let index: BTreeMap<&PathPattern, usize> =
        nodes.iter().enumerate().map(|(i, p)| (p, i)).collect();
    let mut uf = UnionFind::new(nodes.len());

    // Edge source 1: patterns one method touches together.
    for ab in abstracts.values() {
        let idxs: Vec<usize> = ab.patterns.iter().map(|p| index[p]).collect();
        for w in idxs.windows(2) {
            uf.union(w[0], w[1]);
        }
    }
    // Edge source 2: symbolic overlap (conservative interference).
    for (i, p) in nodes.iter().enumerate() {
        for (j, q) in nodes.iter().enumerate().skip(i + 1) {
            if p.overlaps(q) {
                uf.union(i, j);
            }
        }
    }
    // Edge source 3: Conflict-classified pairs must stay orderable by one
    // synchronizer, so their pattern families merge.
    for pair in &report.pairs {
        if pair.classification != Classification::Conflict {
            continue;
        }
        let (Some(a), Some(b)) = (
            abstracts.get(pair.a.as_str()),
            abstracts.get(pair.b.as_str()),
        ) else {
            continue;
        };
        if let (Some(pa), Some(pb)) = (a.patterns.first(), b.patterns.first()) {
            uf.union(index[pa], index[pb]);
        }
    }

    // Components, ordered by smallest member pattern (node order is the
    // pattern order, and union-find roots are minimal member indices, so
    // the root order is already the deterministic component order).
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..nodes.len() {
        let root = uf.find(i);
        members.entry(root).or_default().push(i);
    }
    let root_component: BTreeMap<usize, u32> = members
        .keys()
        .enumerate()
        .map(|(c, root)| (*root, c as u32))
        .collect();
    let comp_of_node: Vec<u32> = (0..nodes.len())
        .map(|i| root_component[&uf.find(i)])
        .collect();
    // Every pattern of one method lands in one component (edge source 1),
    // so the first pattern identifies the method's component.
    let comp_of_method = |ab: &MethodAbstract| -> Option<u32> {
        ab.patterns.first().map(|p| comp_of_node[index[p]])
    };

    // Per-method key-argument candidate (for the keyed check and routing):
    // every pattern must bind exactly one key segment, all naming the same
    // argument index.
    let method_key_arg = |ab: &MethodAbstract| -> Option<usize> {
        let mut idxs = BTreeSet::new();
        for p in &ab.patterns {
            let ka = p.key_args();
            if ka.len() != 1 {
                return None; // unkeyed or ambiguous pattern
            }
            idxs.extend(ka);
        }
        (idxs.len() == 1).then(|| idxs.into_iter().next().unwrap())
    };

    let mut components = Vec::new();
    for (c, member_idxs) in members.values().enumerate() {
        let prefixes: Vec<PathPattern> = member_idxs.iter().map(|&i| nodes[i].clone()).collect();
        // Keyed iff every pattern binds exactly one key segment, no pair
        // (including self-pairs) can overlap under distinct keys, and every
        // touching method names a single consistent key argument.
        let keyed = prefixes
            .iter()
            .all(|p| p.key_args().len() == 1 && !p.has_wildcard())
            && prefixes.iter().enumerate().all(|(i, p)| {
                prefixes[i..]
                    .iter()
                    .all(|q| !p.overlaps_under_distinct_keys(q))
            })
            && abstracts
                .values()
                .all(|ab| comp_of_method(ab) != Some(c as u32) || method_key_arg(ab).is_some());
        components.push(ComponentPlan { prefixes, keyed });
    }

    // Routing table over every registered method.
    let mut routes = BTreeMap::new();
    for method in registry.methods_of(type_name) {
        let route = match abstracts.get(method) {
            Some(ab) if !ab.cross && !ab.patterns.is_empty() => {
                let comp = comp_of_method(ab).expect("non-empty patterns");
                let key_arg = if components[comp as usize].keyed {
                    method_key_arg(ab)
                } else {
                    None
                };
                Routing::Local {
                    component: comp,
                    key_arg,
                }
            }
            // Footprint-free, refuted, unstable, or unanalyzed: global.
            _ => Routing::CrossShard,
        };
        routes.insert(method.to_owned(), route);
    }

    TypePlan { components, routes }
}

/// Statically sanitizes a derived plan. Returns human-readable problems;
/// empty means clean. Independent of [`derive_type_plan`]'s bookkeeping —
/// it rechecks the invariants from the plan alone:
///
/// * every registered method has a route, every route's component exists;
/// * no two components share symbolically overlapping prefixes;
/// * keyed components survive the distinct-key disjointness check, and
///   their routes carry a key argument (unkeyed routes carry none).
pub fn sanitize_type_plan(registry: &OpRegistry, type_name: &str, plan: &TypePlan) -> Vec<String> {
    let mut problems = Vec::new();
    for method in registry.methods_of(type_name) {
        match plan.routes.get(method) {
            None => problems.push(format!("{type_name}::{method} has no route")),
            Some(Routing::CrossShard) => {}
            Some(Routing::Local { component, key_arg }) => {
                match plan.components.get(*component as usize) {
                    None => problems.push(format!(
                        "{type_name}::{method} routes to missing component {component}"
                    )),
                    Some(c) if c.keyed && key_arg.is_none() => problems.push(format!(
                        "{type_name}::{method} routes to keyed component {component} without a key argument"
                    )),
                    Some(c) if !c.keyed && key_arg.is_some() => problems.push(format!(
                        "{type_name}::{method} routes to unkeyed component {component} with a key argument"
                    )),
                    Some(_) => {}
                }
            }
        }
    }
    for (i, a) in plan.components.iter().enumerate() {
        if a.prefixes.is_empty() {
            problems.push(format!("{type_name} component {i} is empty"));
        }
        let mut sorted = a.prefixes.clone();
        sorted.sort();
        sorted.dedup();
        if sorted != a.prefixes {
            problems.push(format!(
                "{type_name} component {i} prefixes are not sorted/deduplicated"
            ));
        }
        for (j, b) in plan.components.iter().enumerate().skip(i + 1) {
            for p in &a.prefixes {
                for q in &b.prefixes {
                    if p.overlaps(q) {
                        problems.push(format!(
                            "{type_name} components {i} and {j} share overlapping prefixes `{p}` and `{q}`"
                        ));
                    }
                }
            }
        }
        if a.keyed {
            for (pi, p) in a.prefixes.iter().enumerate() {
                if p.key_args().len() != 1 || p.has_wildcard() {
                    problems.push(format!(
                        "{type_name} component {i} is keyed but prefix `{p}` does not bind exactly one key"
                    ));
                }
                for q in &a.prefixes[pi..] {
                    if p.overlaps_under_distinct_keys(q) {
                        problems.push(format!(
                            "{type_name} component {i} is keyed but `{p}` and `{q}` overlap under distinct keys"
                        ));
                    }
                }
            }
        }
    }
    problems
}

/// Per-method case cap for the witness-backed shard check (same budget
/// rationale as the footprint witness sanitizer).
const SHARD_WITNESS_CAP: usize = 128;

/// Witness-backed validation: drives every `Local`-routed method's sampled
/// case domain through the bounded-exhaustive executor and checks that no
/// *observed* access (read or write, including perturbation-probed reads)
/// leaves the routed shard. Returns escape descriptions; escapes are fatal
/// in `analyze` and CI.
pub fn witness_check_type_plan(
    registry: &OpRegistry,
    type_name: &str,
    plan: &TypePlan,
    spaces: &[MethodSpace],
    space: &CaseSpace,
) -> Vec<String> {
    let mut escapes = Vec::new();
    let id = crate::scratch_id();
    for ms in spaces {
        let Some(Routing::Local { component, key_arg }) = plan.routes.get(&ms.method) else {
            continue; // CrossShard may touch anything
        };
        let Some(comp) = plan.components.get(*component as usize) else {
            escapes.push(format!(
                "{type_name}::{} routes to missing component {component}",
                ms.method
            ));
            continue;
        };
        let total = space.states.len() * ms.args.len();
        if total == 0 {
            continue;
        }
        let stride = total.div_ceil(space.max_cases.clamp(1, SHARD_WITNESS_CAP));
        'method: for (case_idx, (state, argv)) in space
            .states
            .iter()
            .flat_map(|s| ms.args.iter().map(move |a| (s, a)))
            .enumerate()
        {
            if case_idx % stride != 0 {
                continue;
            }
            let key = match key_arg {
                None => None,
                Some(i) => match argv.get(*i).and_then(key_render) {
                    Some(k) => Some(k),
                    None => continue, // malformed args route Cross at runtime
                },
            };
            let Ok(mut obj) = registry.construct(type_name) else {
                break;
            };
            if obj.restore(state).is_err() {
                continue;
            }
            let mut store = ObjectStore::new();
            store.insert(id, obj);
            let op = SharedOp::primitive(id, ms.method.as_str(), argv.clone());
            let Ok((_, witness)) = execute_witnessed(&op, &mut store, registry, ProbeReads::All)
            else {
                continue;
            };
            for w in witness.values() {
                for path in w.reads.iter().chain(w.writes.iter()) {
                    if !comp.allows(path, key.as_deref()) {
                        escapes.push(format!(
                            "{type_name}::{} witnessed access to `{path}` outside shard component {component}{} (args {argv:?})",
                            ms.method,
                            key.as_deref()
                                .map(|k| format!(" key `{k}`"))
                                .unwrap_or_default(),
                        ));
                        continue 'method;
                    }
                }
            }
        }
    }
    escapes
}

/// Renders a full [`ShardPlan`] as the human-readable `--shard-plan` text.
pub fn format_shard_plan(plan: &ShardPlan) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (type_name, tp) in &plan.types {
        let _ = writeln!(out, "shard plan — {type_name}");
        for (i, c) in tp.components.iter().enumerate() {
            let kind = if c.keyed { "keyed" } else { "unkeyed" };
            let prefixes: Vec<String> = c.prefixes.iter().map(PathPattern::render).collect();
            let _ = writeln!(out, "  component {i} [{kind}]: {}", prefixes.join(", "));
        }
        for (m, r) in &tp.routes {
            match r {
                Routing::Local {
                    component,
                    key_arg: Some(k),
                } => {
                    let _ = writeln!(out, "  {m} -> local(component {component}, key arg{k})");
                }
                Routing::Local {
                    component,
                    key_arg: None,
                } => {
                    let _ = writeln!(out, "  {m} -> local(component {component})");
                }
                Routing::CrossShard => {
                    let _ = writeln!(out, "  {m} -> cross-shard");
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use guesstimate_core::{args, Value};

    fn pat(s: &str) -> PathPattern {
        PathPattern::parse(s).unwrap()
    }

    #[test]
    fn patternize_binds_lowest_matching_argument() {
        let argv = args!["general", "ann"];
        assert_eq!(patternize("topics/general", &argv), pat("topics/{0}"));
        assert_eq!(patternize("topics/ann", &argv), pat("topics/{1}"));
        assert_eq!(patternize("topics/other", &argv), pat("topics/other"));
        let argv2 = args!["x", "x"];
        assert_eq!(patternize("x", &argv2), pat("{0}"));
    }

    #[test]
    fn unify_widens_disagreeing_positions() {
        let a = pat("grid/13");
        let b = pat("grid/40");
        assert_eq!(unify(&[&a, &b]), pat("grid/*"));
        let c = pat("grid/13");
        assert_eq!(unify(&[&a, &c]), pat("grid/13"));
    }

    #[test]
    fn union_find_components_are_minimal_roots() {
        let mut uf = UnionFind::new(5);
        uf.union(3, 1);
        uf.union(4, 3);
        assert_eq!(uf.find(4), 1);
        assert_eq!(uf.find(0), 0);
        assert_eq!(uf.find(2), 2);
    }

    #[test]
    fn key_render_is_what_patternize_matches() {
        // Integer arguments key integer-rendered segments (auction prices
        // never appear as segments, but sudoku-style coordinates could).
        let argv = vec![Value::from(7i64)];
        assert_eq!(patternize("cells/7", &argv), pat("cells/{0}"));
    }
}
