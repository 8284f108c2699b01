//! The operation effect language: read/write footprints over state keys.
//!
//! A shared-operation method may declare, alongside its apply function, an
//! [`EffectSpec`]: a function from the argument vector to the method's
//! [`Footprint`] — the set of object-state *keys* it may read and the set it
//! may write. Keys are `/`-separated paths into the object's canonical
//! snapshot (see [`crate::GState::snapshot`]), so a declared footprint can be
//! checked mechanically against observed snapshot diffs.
//!
//! Footprints feed two consumers:
//!
//! * the `guesstimate-analysis` crate, which refutes under-approximating
//!   write sets and derives a commutativity classification per method pair
//!   (disjoint write/write and read/write sets ⇒ the two invocations commute
//!   as state transformers); and
//! * the runtime, which — once the analysis has validated the declarations —
//!   uses footprint disjointness to skip rebuilding the guesstimated state
//!   when freshly committed remote operations commute with every pending
//!   local operation.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use crate::codec::ArgSpace;
use crate::paths::{path_covers, paths_overlap};
use crate::registry::ArgView;
use crate::value::Value;

/// The read/write footprint of one method invocation (concrete arguments).
///
/// Keys are `/`-separated paths into the object's canonical snapshot. The
/// write set need not repeat keys in the read set: a method that both reads
/// and writes a key declares it in both sets (writes alone conflict with
/// other writes and reads of the same key anyway).
///
/// # Examples
///
/// ```
/// use guesstimate_core::Footprint;
/// let a = Footprint::new().writes(["grid/17"]).reads(["grid/12", "fixed/17"]);
/// let b = Footprint::new().writes(["grid/3"]).reads(["grid/4"]);
/// assert!(a.disjoint(&b));
/// let c = Footprint::new().reads(["grid/17"]);
/// assert!(!a.disjoint(&c), "c reads what a writes");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Footprint {
    /// Snapshot paths the invocation may read.
    pub reads: BTreeSet<String>,
    /// Snapshot paths the invocation may write.
    pub writes: BTreeSet<String>,
}

impl Footprint {
    /// An empty footprint (reads nothing, writes nothing).
    pub fn new() -> Self {
        Footprint::default()
    }

    /// Adds read keys.
    pub fn reads<I, S>(mut self, keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.reads.extend(keys.into_iter().map(Into::into));
        self
    }

    /// Adds write keys.
    pub fn writes<I, S>(mut self, keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.writes.extend(keys.into_iter().map(Into::into));
        self
    }

    /// Merges another footprint into this one (used for composite
    /// operations, where the union over-approximates either execution path).
    pub fn union(mut self, other: &Footprint) -> Self {
        self.reads.extend(other.reads.iter().cloned());
        self.writes.extend(other.writes.iter().cloned());
        self
    }

    /// True if the two footprints cannot interfere: no write/write and no
    /// read/write overlap (read/read sharing is always harmless).
    pub fn disjoint(&self, other: &Footprint) -> bool {
        let clash = |xs: &BTreeSet<String>, ys: &BTreeSet<String>| {
            xs.iter().any(|x| ys.iter().any(|y| paths_overlap(x, y)))
        };
        !clash(&self.writes, &other.writes)
            && !clash(&self.writes, &other.reads)
            && !clash(&self.reads, &other.writes)
    }

    /// True if some declared write key covers `path` (see [`path_covers`]).
    pub fn writes_cover(&self, path: &str) -> bool {
        self.writes.iter().any(|w| path_covers(w, path))
    }

    /// True if some declared read key covers `path` (see [`path_covers`]).
    ///
    /// Used by the access-witness containment check: an observed read is
    /// accounted for when the declared reads *or* writes cover it — a
    /// declared write already conflicts with every other access of the
    /// key, so reading a key one also writes needs no separate entry.
    pub fn reads_cover(&self, path: &str) -> bool {
        self.reads.iter().any(|r| path_covers(r, path))
    }
}

/// A method's declared effect: argument vector → footprint, and the
/// argument space its checkers enumerate.
///
/// The function must be *total* and conservative: for any argument vector —
/// including malformed ones — it must return a footprint covering every key
/// the apply function could touch with those arguments. (A method that
/// rejects malformed arguments without touching state may return an empty
/// footprint for them.)
#[derive(Clone)]
pub struct EffectSpec {
    footprint: Arc<dyn Fn(ArgView<'_>) -> Footprint + Send + Sync>,
    self_commuting: bool,
    cases: Option<fn() -> Vec<Vec<Value>>>,
    sampled: bool,
}

impl EffectSpec {
    /// Wraps a footprint function.
    pub fn new(f: impl Fn(ArgView<'_>) -> Footprint + Send + Sync + 'static) -> Self {
        EffectSpec {
            footprint: Arc::new(f),
            self_commuting: false,
            cases: None,
            sampled: false,
        }
    }

    /// Declares the argument lists the spec verifier and the effect
    /// analysis enumerate for the method (a [`methods!`](crate::methods)
    /// row passes the product of its domains), evaluated only when one of
    /// them asks ([`EffectSpec::arg_space`]).
    pub fn over(mut self, cases: fn() -> Vec<Vec<Value>>) -> Self {
        self.cases = Some(cases);
        self
    }

    /// Declares that the argument lists sample the method's arguments
    /// rather than cover them, so no verdict over them is complete.
    pub fn sampled(mut self) -> Self {
        self.sampled = true;
        self
    }

    /// The declared argument space, if any ([`EffectSpec::over`]).
    pub fn arg_space(&self) -> Option<ArgSpace> {
        self.cases.map(|cases| ArgSpace {
            cases: cases(),
            exhaustive: !self.sampled,
        })
    }

    /// Declares that two invocations of this method always commute with
    /// *each other* — in final state and results — even where their
    /// footprints overlap (e.g. a blind counter: `n += 1` twice yields the
    /// same tally in either order, and both report success).
    ///
    /// This is a **claim, not a proof**: the analysis crate's pairwise
    /// classifier accepts it for the diagonal pair only when its dynamic
    /// sweep finds no counterexample, and a refuting case is flagged as a
    /// static/semantic disagreement just like an under-declared footprint.
    pub fn self_commuting(mut self) -> Self {
        self.self_commuting = true;
        self
    }

    /// Whether the method declares diagonal commutativity.
    pub fn is_self_commuting(&self) -> bool {
        self.self_commuting
    }

    /// The declared footprint for one concrete argument vector.
    pub fn footprint(&self, args: ArgView<'_>) -> Footprint {
        (self.footprint)(args)
    }
}

impl fmt::Debug for EffectSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("EffectSpec(..)")
    }
}

/// A validated method-level commutativity matrix: the set of `(type, m1,
/// m2)` pairs proven (by the analysis crate's bounded-exhaustive validation)
/// to commute for *every* argument combination.
///
/// Pairs are stored order-normalized, so `commutes(t, a, b)` equals
/// `commutes(t, b, a)`. The runtime consults the matrix as a fast path
/// before falling back to argument-precise footprint disjointness.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommuteMatrix {
    pairs: BTreeMap<String, BTreeSet<(String, String)>>,
}

impl CommuteMatrix {
    /// An empty matrix (nothing is known to commute).
    pub fn new() -> Self {
        CommuteMatrix::default()
    }

    /// Records that `m1` and `m2` on `type_name` always commute.
    pub fn insert(&mut self, type_name: &str, m1: &str, m2: &str) {
        let (a, b) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        self.pairs
            .entry(type_name.to_owned())
            .or_default()
            .insert((a.to_owned(), b.to_owned()));
    }

    /// True if `(m1, m2)` on `type_name` was recorded as always commuting.
    pub fn commutes(&self, type_name: &str, m1: &str, m2: &str) -> bool {
        let (a, b) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        self.pairs
            .get(type_name)
            .is_some_and(|set| set.contains(&(a.to_owned(), b.to_owned())))
    }

    /// Number of recorded pairs across all types.
    pub fn len(&self) -> usize {
        self.pairs.values().map(BTreeSet::len).sum()
    }

    /// True if no pairs are recorded.
    pub fn is_empty(&self) -> bool {
        self.pairs.values().all(BTreeSet::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;

    #[test]
    fn disjointness_checks_ww_and_rw() {
        let w17 = Footprint::new().writes(["grid/17"]);
        let w17b = Footprint::new().writes(["grid/17"]);
        let w2 = Footprint::new().writes(["grid/2"]);
        let r17 = Footprint::new().reads(["grid/17"]);
        let rall = Footprint::new().reads(["grid"]);
        assert!(!w17.disjoint(&w17b), "write/write");
        assert!(w17.disjoint(&w2));
        assert!(!w17.disjoint(&r17), "write/read");
        assert!(!r17.disjoint(&w17), "read/write");
        assert!(
            r17.disjoint(&Footprint::new().reads(["grid/17"])),
            "read/read ok"
        );
        assert!(!rall.disjoint(&w17), "subtree read vs leaf write");
        assert!(Footprint::new().disjoint(&w17), "empty vs anything");
    }

    #[test]
    fn union_merges_both_sets() {
        let a = Footprint::new().reads(["x"]).writes(["y"]);
        let b = Footprint::new().reads(["z"]).writes(["y/1"]);
        let u = a.union(&b);
        assert!(u.reads.contains("x") && u.reads.contains("z"));
        assert!(u.writes.contains("y") && u.writes.contains("y/1"));
    }

    #[test]
    fn writes_cover_uses_ancestry() {
        let f = Footprint::new().writes(["events/party"]);
        assert!(f.writes_cover("events/party/attendees/0"));
        assert!(f.writes_cover("events/party"));
        assert!(!f.writes_cover("events"));
        assert!(!f.writes_cover("users/ann"));
    }

    #[test]
    fn effect_spec_is_parameterized_on_args() {
        let spec = EffectSpec::new(|a| match a.str(0) {
            Some(t) => Footprint::new().writes([format!("topics/{t}")]),
            None => Footprint::new(),
        });
        let v = args!["general"];
        let fp = spec.footprint(ArgView::new(&v));
        assert!(fp.writes.contains("topics/general"));
        let bad: Vec<crate::Value> = args![];
        assert_eq!(spec.footprint(ArgView::new(&bad)), Footprint::new());
        assert!(format!("{spec:?}").contains("EffectSpec"));
    }

    #[test]
    fn commute_matrix_normalizes_order() {
        let mut m = CommuteMatrix::new();
        assert!(m.is_empty());
        m.insert("T", "b", "a");
        assert!(m.commutes("T", "a", "b"));
        assert!(m.commutes("T", "b", "a"));
        assert!(!m.commutes("T", "a", "c"));
        assert!(!m.commutes("U", "a", "b"));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }
}
