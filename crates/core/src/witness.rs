//! Access-witness instrumentation: observing the *actual* read and write
//! set of an operation execution, in the same `/`-separated snapshot-path
//! language [`EffectSpec`](crate::EffectSpec) declarations use.
//!
//! Every fast path built on declared footprints — partial-order
//! reduction, the hybrid async commit, shard routing — is only as sound as
//! the hand-written declarations. This module closes the loop: it turns a
//! declared footprint from *trusted* into *checked* by executing the
//! operation under observation and refuting any declaration the observed
//! accesses escape.
//!
//! ## Semantics
//!
//! * **Writes are observed exactly.** The write set of a run is the
//!   [`snapshot_diff`] of each touched object's canonical snapshot before
//!   and after the real execution — precisely the paths at which state
//!   changed.
//! * **Reads are observed by perturbation.** Apply functions are opaque
//!   closures, so reads leave no direct trace. Instead, each candidate
//!   path of the pre-state is *perturbed* (an int nudged, a bool flipped,
//!   a map key removed or added), the operation is re-executed on a
//!   scratch copy, and the path is recorded as read iff the outcome or
//!   any *other* path of the final state differs from the unperturbed
//!   baseline. A perturbation the object's `restore` rejects is skipped.
//!
//! This read witness is **sound for refutation and under-approximating**:
//! a detected read is a real semantic dependence (some state the method's
//! behavior observably depends on), but a read whose influence no
//! perturbation surfaces — e.g. a value read and then ignored — goes
//! undetected. Perturbed runs feed *only* read detection, never write
//! refutation: a perturbed state may violate app invariants, so what a
//! method writes under it proves nothing about honest executions.
//!
//! The instrumentation is a separate entry point ([`execute_witnessed`]);
//! the plain [`execute`] path is untouched, so the cost
//! when witnessing is disabled is zero.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::effect::Footprint;
use crate::error::ExecError;
use crate::exec::{execute, ExecOutcome};
use crate::ids::ObjectId;
use crate::op::SharedOp;
use crate::paths::{child, paths_overlap, split_last};
use crate::registry::{ArgView, OpRegistry};
use crate::store::ObjectStore;
use crate::value::Value;

/// Captured pre-state per touched object: the canonical snapshot (for the
/// write diff) and, when read probing is on, a clone of the object itself
/// (the scratch re-executions need the original state).
type PreState = BTreeMap<ObjectId, (Value, Option<Box<dyn crate::SharedObject>>)>;

/// Computes the set of snapshot paths at which two snapshots differ.
///
/// Maps recurse per key (a key present on only one side reports the key's
/// path); lists of equal length recurse per index, lists of different
/// length report the list's own path (append/remove moves indices, so the
/// whole list is the honest footprint); scalars report their path. Paths
/// use the same `/`-separated key language as [`Footprint`].
pub fn snapshot_diff(pre: &Value, post: &Value) -> Vec<String> {
    let mut out = Vec::new();
    diff_into(pre, post, String::new(), &mut out);
    out
}

fn diff_into(pre: &Value, post: &Value, path: String, out: &mut Vec<String>) {
    if pre == post {
        return;
    }
    match (pre, post) {
        (Value::Map(a), Value::Map(b)) => {
            let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
            for k in keys {
                match (a.get(k), b.get(k)) {
                    (Some(x), Some(y)) => diff_into(x, y, child(&path, k), out),
                    _ => out.push(child(&path, k)),
                }
            }
        }
        (Value::List(a), Value::List(b)) if a.len() == b.len() => {
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                diff_into(x, y, child(&path, &i.to_string()), out);
            }
        }
        _ => out.push(path),
    }
}

/// The observed accesses of one execution against one object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessWitness {
    /// Paths the execution was observed to read (perturbation-detected;
    /// an under-approximation of the true read set).
    pub reads: BTreeSet<String>,
    /// Paths the execution changed (exact, from the pre/post snapshot
    /// diff of the real run).
    pub writes: BTreeSet<String>,
}

impl AccessWitness {
    /// True when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

/// How aggressively [`execute_witnessed`] probes for reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeReads {
    /// No read probing: the witness carries writes only. One extra
    /// snapshot + diff per touched object; no re-execution.
    Off,
    /// Probe only paths the operation's declared footprints do *not*
    /// cover — the cheapest mode that can still refute a declaration.
    /// Falls back to [`ProbeReads::All`] when a constituent method has no
    /// declared effect.
    Uncovered,
    /// Probe every path of every touched object's pre-state, yielding the
    /// fullest observable read set (used by the analysis sanitizer, which
    /// also wants positive reads for dead-footprint detection).
    All,
}

/// Whether an escaping access was a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// An observed read.
    Read,
    /// An observed write.
    Write,
}

/// One observed access that escapes the declared footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessEscape {
    /// The object on which the access escaped.
    pub object: ObjectId,
    /// Read or write.
    pub kind: AccessKind,
    /// The escaping snapshot path.
    pub path: String,
}

impl fmt::Display for WitnessEscape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        };
        write!(f, "undeclared {kind} of `{}` on {}", self.path, self.object)
    }
}

/// The declared per-object footprints of a whole operation tree, or
/// `None` when any constituent method lacks an [`crate::EffectSpec`] (or
/// targets an object absent from the store) — the containment check is
/// then impossible and callers should skip witnessing.
///
/// `Atomic` unions its components; `OrElse` unions both alternatives
/// (either may run, so the union over-approximates soundly).
pub fn declared_footprints(
    op: &SharedOp,
    store: &ObjectStore,
    registry: &OpRegistry,
) -> Option<BTreeMap<ObjectId, Footprint>> {
    fn go(
        op: &SharedOp,
        store: &ObjectStore,
        registry: &OpRegistry,
        acc: &mut BTreeMap<ObjectId, Footprint>,
    ) -> Option<()> {
        match op {
            SharedOp::Primitive {
                object,
                method,
                args,
            } => {
                let ty = store.get(*object)?.type_name().to_owned();
                let eff = registry.effect_of(&ty, method)?;
                let fp = eff.footprint(ArgView::new(args));
                let merged = match acc.remove(object) {
                    Some(prev) => prev.union(&fp),
                    None => fp,
                };
                acc.insert(*object, merged);
                Some(())
            }
            SharedOp::Atomic(ops) => {
                for op in ops {
                    go(op, store, registry, acc)?;
                }
                Some(())
            }
            SharedOp::OrElse(a, b) => {
                go(a, store, registry, acc)?;
                go(b, store, registry, acc)
            }
        }
    }
    let mut acc = BTreeMap::new();
    go(op, store, registry, &mut acc)?;
    Some(acc)
}

/// Observed accesses not covered by the declared footprints: every
/// observed write must be covered by the declared writes, every observed
/// read by the declared reads *or* writes (a declared write already
/// conflicts with any other access of the key, so it subsumes the read).
///
/// An object the witness touched but the declaration omits contributes
/// every one of its accesses as an escape.
pub fn containment_escapes(
    witness: &BTreeMap<ObjectId, AccessWitness>,
    declared: &BTreeMap<ObjectId, Footprint>,
) -> Vec<WitnessEscape> {
    let empty = Footprint::new();
    let mut out = Vec::new();
    for (&object, w) in witness {
        let fp = declared.get(&object).unwrap_or(&empty);
        for p in &w.writes {
            if !fp.writes_cover(p) {
                out.push(WitnessEscape {
                    object,
                    kind: AccessKind::Write,
                    path: p.clone(),
                });
            }
        }
        for p in &w.reads {
            if !fp.reads_cover(p) && !fp.writes_cover(p) {
                out.push(WitnessEscape {
                    object,
                    kind: AccessKind::Read,
                    path: p.clone(),
                });
            }
        }
    }
    out
}

/// Executes `op` against `store` exactly as [`execute`]
/// does, additionally recording a per-object [`AccessWitness`].
///
/// Writes come from the real run's pre/post snapshot diff; reads from
/// perturbation probing on scratch copies per `probe` (see the module
/// docs for the exact semantics and soundness direction). On `Err` the
/// store is left exactly as `execute` leaves it and no witness is
/// produced.
///
/// # Errors
///
/// Exactly the errors of [`execute`]: unknown object,
/// unknown method, or a failed atomic write-back.
pub fn execute_witnessed(
    op: &SharedOp,
    store: &mut ObjectStore,
    registry: &OpRegistry,
    probe: ProbeReads,
) -> Result<(ExecOutcome, BTreeMap<ObjectId, AccessWitness>), ExecError> {
    let touched = op.objects_touched();
    let probing = !matches!(probe, ProbeReads::Off);
    let declared = match probe {
        ProbeReads::Uncovered => declared_footprints(op, store, registry),
        _ => None,
    };
    // Pre-state: snapshots always (for the write diff), object clones only
    // when probing (the scratch re-executions need the original state).
    let mut pre: PreState = BTreeMap::new();
    for &id in &touched {
        if let Some(obj) = store.get(id) {
            let clone = probing.then(|| obj.clone_boxed());
            pre.insert(id, (obj.snapshot(), clone));
        }
    }

    let outcome = execute(op, store, registry)?;

    let mut witness: BTreeMap<ObjectId, AccessWitness> = BTreeMap::new();
    let mut post: BTreeMap<ObjectId, Value> = BTreeMap::new();
    for (&id, (pre_snap, _)) in &pre {
        let Some(obj) = store.get(id) else { continue };
        let post_snap = obj.snapshot();
        let w = witness.entry(id).or_default();
        w.writes.extend(snapshot_diff(pre_snap, &post_snap));
        post.insert(id, post_snap);
    }

    if probing {
        let base_sig = Some(outcome.is_success());
        for (&id, (pre_snap, _)) in &pre {
            let fp = declared.as_ref().and_then(|d| d.get(&id));
            for path in probe_paths(pre_snap) {
                if let Some(fp) = fp {
                    if fp.reads_cover(&path) || fp.writes_cover(&path) {
                        continue; // cannot escape: probing it proves nothing
                    }
                }
                if probe_detects_read(op, registry, &pre, &post, base_sig, id, pre_snap, &path) {
                    witness.entry(id).or_default().reads.insert(path);
                }
            }
        }
    }
    Ok((outcome, witness))
}

/// Runs every perturbation candidate for `path` on a scratch copy of the
/// pre-state; true iff some candidate changes the outcome or any path of
/// the final state other than the perturbed one.
#[allow(clippy::too_many_arguments)]
fn probe_detects_read(
    op: &SharedOp,
    registry: &OpRegistry,
    pre: &PreState,
    post: &BTreeMap<ObjectId, Value>,
    base_sig: Option<bool>,
    id: ObjectId,
    pre_snap: &Value,
    path: &str,
) -> bool {
    for candidate in perturbed_snapshots(pre_snap, path) {
        let mut scratch = ObjectStore::new();
        for (&oid, (_, obj)) in pre {
            let obj = obj.as_ref().expect("clones captured when probing");
            scratch.insert(oid, obj.clone_boxed());
        }
        {
            let Some(target) = scratch.get_mut(id) else {
                continue;
            };
            if target.restore(&candidate).is_err() {
                continue; // unrepresentable perturbation: skip, conservatively
            }
        }
        let sig = execute(op, &mut scratch, registry)
            .ok()
            .map(ExecOutcome::is_success);
        if sig != base_sig {
            return true;
        }
        for (&oid, post_base) in post {
            let Some(obj) = scratch.get(oid) else {
                continue;
            };
            let probe_post = obj.snapshot();
            for d in snapshot_diff(post_base, &probe_post) {
                // The perturbation itself survives at (or under) `path`
                // when the operation does not write it; only divergence
                // elsewhere evidences a read.
                if !(oid == id && paths_overlap(&d, path)) {
                    return true;
                }
            }
        }
    }
    false
}

/// Every probe-worthy path of a snapshot: each node of the value tree,
/// interior and leaf alike, the root (`""`, i.e. [`crate::ROOT`])
/// included — structural perturbations at container nodes are what
/// surface length and key-set reads.
fn probe_paths(v: &Value) -> Vec<String> {
    fn go(v: &Value, path: String, out: &mut Vec<String>) {
        out.push(path.clone());
        match v {
            Value::Map(m) => {
                for (k, x) in m {
                    go(x, child(&path, k), out);
                }
            }
            Value::List(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    go(x, child(&path, &i.to_string()), out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    go(v, String::new(), &mut out);
    out
}

/// Candidate perturbed whole-snapshots for one path: the node replaced by
/// each type-preserving mutation, plus — when the node is a map entry —
/// the entry removed outright (the probe that surfaces key-existence
/// reads). Candidates a type's `restore` rejects are skipped upstream.
fn perturbed_snapshots(root: &Value, path: &str) -> Vec<Value> {
    let Some(node) = node_at(root, path) else {
        return Vec::new();
    };
    let mut out: Vec<Value> = node_mutations(node)
        .into_iter()
        .filter_map(|m| replace_at(root, path, &m))
        .collect();
    if let Some((parent, key)) = split_last(path) {
        if let Some(Value::Map(_)) = node_at(root, parent) {
            if let Some(removed) = remove_at(root, parent, key) {
                out.push(removed);
            }
        }
    }
    out
}

/// Type-preserving single-node mutations. Containers get structural
/// candidates in several value types, because the element type their
/// `restore` accepts is unknowable here.
fn node_mutations(v: &Value) -> Vec<Value> {
    match v {
        Value::Unit => Vec::new(),
        Value::Bool(b) => vec![Value::Bool(!b)],
        Value::Int(n) => vec![Value::Int(n.wrapping_add(1)), Value::Int(n.wrapping_sub(1))],
        Value::Float(f) => vec![Value::Float(f + 1.0)],
        Value::Str(s) => vec![Value::Str(format!("{s}~"))],
        Value::Bytes(b) => {
            let mut b = b.clone();
            b.push(1);
            vec![Value::Bytes(b)]
        }
        Value::List(xs) => {
            let mut out = Vec::new();
            if let Some(last) = xs.last() {
                let mut grown = xs.clone();
                grown.push(last.clone());
                out.push(Value::List(grown));
                out.push(Value::List(xs[..xs.len() - 1].to_vec()));
            } else {
                out.push(Value::List(vec![Value::Int(0)]));
                out.push(Value::List(vec![Value::Str("~".to_owned())]));
            }
            out
        }
        Value::Map(m) => [
            Value::Int(0),
            Value::Str("~".to_owned()),
            Value::List(Vec::new()),
            Value::Unit,
        ]
        .into_iter()
        .map(|fresh| {
            let mut m = m.clone();
            m.insert("~witness".to_owned(), fresh);
            Value::Map(m)
        })
        .collect(),
    }
}

fn node_at<'v>(v: &'v Value, path: &str) -> Option<&'v Value> {
    if path.is_empty() {
        return Some(v);
    }
    let mut cur = v;
    for seg in path.split('/') {
        cur = match cur {
            Value::Map(m) => m.get(seg)?,
            Value::List(xs) => xs.get(seg.parse::<usize>().ok()?)?,
            _ => return None,
        };
    }
    Some(cur)
}

/// Rebuilds `root` with the node at `path` replaced by `new`.
fn replace_at(root: &Value, path: &str, new: &Value) -> Option<Value> {
    if path.is_empty() {
        return Some(new.clone());
    }
    let (head, rest) = match path.find('/') {
        Some(i) => (&path[..i], Some(&path[i + 1..])),
        None => (path, None),
    };
    match root {
        Value::Map(m) => {
            let inner = m.get(head)?;
            let replaced = match rest {
                Some(rest) => replace_at(inner, rest, new)?,
                None => new.clone(),
            };
            let mut m = m.clone();
            m.insert(head.to_owned(), replaced);
            Some(Value::Map(m))
        }
        Value::List(xs) => {
            let i = head.parse::<usize>().ok()?;
            let inner = xs.get(i)?;
            let replaced = match rest {
                Some(rest) => replace_at(inner, rest, new)?,
                None => new.clone(),
            };
            let mut xs = xs.clone();
            xs[i] = replaced;
            Some(Value::List(xs))
        }
        _ => None,
    }
}

/// Rebuilds `root` with map entry `key` under `parent` removed.
fn remove_at(root: &Value, parent: &str, key: &str) -> Option<Value> {
    let removed = match node_at(root, parent)? {
        Value::Map(m) => {
            let mut m = m.clone();
            m.remove(key)?;
            Value::Map(m)
        }
        _ => return None,
    };
    replace_at(root, parent, &removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RestoreError;
    use crate::ids::MachineId;
    use crate::object::GState;
    use crate::registry::OpRegistry;
    use crate::value::Value;
    use crate::EffectSpec;

    /// Two named cells with a strict restore (exactly the keys `a`, `b`),
    /// so structural map perturbations at the root are rejected.
    #[derive(Clone, Default, Debug, PartialEq)]
    struct Pair {
        a: i64,
        b: i64,
    }

    impl GState for Pair {
        const TYPE_NAME: &'static str = "Pair";
        fn snapshot(&self) -> Value {
            Value::map([("a", Value::from(self.a)), ("b", Value::from(self.b))])
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            let Value::Map(m) = v else {
                return Err(RestoreError::shape("map"));
            };
            if m.len() != 2 {
                return Err(RestoreError::shape("exactly keys a and b"));
            }
            self.a = m
                .get("a")
                .and_then(Value::as_i64)
                .ok_or_else(|| RestoreError::shape("int a"))?;
            self.b = m
                .get("b")
                .and_then(Value::as_i64)
                .ok_or_else(|| RestoreError::shape("int b"))?;
            Ok(())
        }
    }

    /// A free-form string→int map (restore accepts any such map), for the
    /// key-existence probes.
    #[derive(Clone, Default, Debug, PartialEq)]
    struct Roster {
        m: std::collections::BTreeMap<String, i64>,
    }

    impl GState for Roster {
        const TYPE_NAME: &'static str = "Roster";
        fn snapshot(&self) -> Value {
            Value::Map(
                self.m
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from(*v)))
                    .collect(),
            )
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            let Value::Map(m) = v else {
                return Err(RestoreError::shape("map"));
            };
            self.m = m
                .iter()
                .map(|(k, v)| {
                    v.as_i64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| RestoreError::shape("int entry"))
                })
                .collect::<Result<_, _>>()?;
            Ok(())
        }
    }

    fn oid() -> ObjectId {
        ObjectId::new(MachineId::new(0), 0)
    }

    fn pair_registry() -> OpRegistry {
        let mut r = OpRegistry::new();
        r.register_type::<Pair>();
        r.register_with_effects::<Pair>(
            "set_a",
            EffectSpec::new(|_| Footprint::new().writes(["a"])),
            |p: &mut Pair, a| {
                let Some(v) = a.i64(0) else { return false };
                p.a = v;
                true
            },
        );
        // Honest: b := a, declared as read a / write b.
        r.register_with_effects::<Pair>(
            "copy_a_to_b",
            EffectSpec::new(|_| Footprint::new().reads(["a"]).writes(["b"])),
            |p: &mut Pair, _| {
                p.b = p.a;
                true
            },
        );
        // Sneaky: same behavior, the read of `a` omitted.
        r.register_with_effects::<Pair>(
            "sneaky_copy",
            EffectSpec::new(|_| Footprint::new().writes(["b"])),
            |p: &mut Pair, _| {
                p.b = p.a;
                true
            },
        );
        r
    }

    fn pair_store(a: i64, b: i64) -> ObjectStore {
        let mut s = ObjectStore::new();
        s.insert(oid(), Box::new(Pair { a, b }));
        s
    }

    fn prim(method: &str, args: Vec<Value>) -> SharedOp {
        SharedOp::Primitive {
            object: oid(),
            method: method.to_owned(),
            args,
        }
    }

    #[test]
    fn writes_are_witnessed_exactly_and_nothing_else_reads() {
        let reg = pair_registry();
        let mut store = pair_store(1, 2);
        let (out, w) = execute_witnessed(
            &prim("set_a", vec![Value::from(9)]),
            &mut store,
            &reg,
            ProbeReads::All,
        )
        .unwrap();
        assert!(out.is_success());
        let w = &w[&oid()];
        assert_eq!(w.writes.iter().collect::<Vec<_>>(), ["a"]);
        assert!(w.reads.is_empty(), "set_a reads nothing: {:?}", w.reads);
        assert_eq!(store.get_as::<Pair>(oid()).unwrap().a, 9);
    }

    #[test]
    fn perturbation_detects_the_hidden_read() {
        let reg = pair_registry();
        let mut store = pair_store(5, 0);
        let (_, w) = execute_witnessed(
            &prim("sneaky_copy", vec![]),
            &mut store,
            &reg,
            ProbeReads::All,
        )
        .unwrap();
        let w = &w[&oid()];
        assert!(w.reads.contains("a"), "reads: {:?}", w.reads);
        assert_eq!(w.writes.iter().collect::<Vec<_>>(), ["b"]);
    }

    #[test]
    fn containment_separates_honest_from_sneaky() {
        let reg = pair_registry();
        for (method, expect_escape) in [("copy_a_to_b", false), ("sneaky_copy", true)] {
            let mut store = pair_store(5, 0);
            let op = prim(method, vec![]);
            let declared = declared_footprints(&op, &store, &reg).expect("effects declared");
            let (_, w) = execute_witnessed(&op, &mut store, &reg, ProbeReads::All).unwrap();
            let escapes = containment_escapes(&w, &declared);
            if expect_escape {
                assert_eq!(escapes.len(), 1, "{escapes:?}");
                assert_eq!(escapes[0].kind, AccessKind::Read);
                assert_eq!(escapes[0].path, "a");
            } else {
                assert!(escapes.is_empty(), "{method}: {escapes:?}");
            }
        }
    }

    #[test]
    fn uncovered_probing_skips_declared_paths_but_still_refutes() {
        let reg = pair_registry();
        // Honest method under Uncovered: every touched path is declared,
        // so no probe runs and the witness carries writes only.
        let mut store = pair_store(5, 0);
        let op = prim("copy_a_to_b", vec![]);
        let (_, w) = execute_witnessed(&op, &mut store, &reg, ProbeReads::Uncovered).unwrap();
        assert!(w[&oid()].reads.is_empty());
        // Sneaky method under Uncovered: `a` is undeclared, hence probed,
        // hence caught.
        let mut store = pair_store(5, 0);
        let op = prim("sneaky_copy", vec![]);
        let (_, w) = execute_witnessed(&op, &mut store, &reg, ProbeReads::Uncovered).unwrap();
        assert!(w[&oid()].reads.contains("a"));
    }

    #[test]
    fn map_key_existence_reads_are_detected_by_removal() {
        let mut reg = OpRegistry::new();
        reg.register_type::<Roster>();
        // Pure membership check: no writes at all.
        reg.register_with_effects::<Roster>(
            "check",
            EffectSpec::new(|a| match a.str(0) {
                Some(k) => Footprint::new().reads([k.to_owned()]),
                None => Footprint::new(),
            }),
            |r: &mut Roster, a| {
                let Some(k) = a.str(0) else { return false };
                r.m.contains_key(k)
            },
        );
        let mut store = ObjectStore::new();
        store.insert(
            oid(),
            Box::new(Roster {
                m: [("ann".to_owned(), 1), ("bob".to_owned(), 2)].into(),
            }),
        );
        let op = prim("check", vec![Value::from("ann")]);
        let (out, w) = execute_witnessed(&op, &mut store, &reg, ProbeReads::All).unwrap();
        assert!(out.is_success());
        let w = &w[&oid()];
        assert!(w.writes.is_empty());
        assert!(w.reads.contains("ann"), "reads: {:?}", w.reads);
        assert!(!w.reads.contains("bob"), "reads: {:?}", w.reads);
    }

    #[test]
    fn rejected_perturbations_are_skipped_without_false_positives() {
        // Pair's restore rejects maps with extra keys, so the structural
        // root probe is skipped; the remaining probes must stay silent on
        // a method that reads nothing.
        let reg = pair_registry();
        let mut store = pair_store(i64::MAX, 0);
        let (_, w) = execute_witnessed(
            &prim("set_a", vec![Value::from(3)]),
            &mut store,
            &reg,
            ProbeReads::All,
        )
        .unwrap();
        assert!(w[&oid()].reads.is_empty(), "{:?}", w[&oid()].reads);
    }

    #[test]
    fn declared_footprints_union_composites_and_demand_effects() {
        let reg = pair_registry();
        let store = pair_store(0, 0);
        let atomic = SharedOp::Atomic(vec![
            prim("set_a", vec![Value::from(1)]),
            prim("copy_a_to_b", vec![]),
        ]);
        let fps = declared_footprints(&atomic, &store, &reg).unwrap();
        let fp = &fps[&oid()];
        assert!(fp.writes_cover("a") && fp.writes_cover("b") && fp.reads_cover("a"));
        // A method with no effect poisons the whole tree.
        let mut reg2 = OpRegistry::new();
        reg2.register_type::<Pair>();
        reg2.register_method::<Pair>("opaque", |_, _| true);
        let op = prim("opaque", vec![]);
        assert!(declared_footprints(&op, &store, &reg2).is_none());
    }
}
