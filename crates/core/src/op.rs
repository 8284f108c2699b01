//! The shared-operation grammar (§2 of the paper):
//!
//! ```text
//! SharedOp := PrimitiveOp | AtomicOp | OrElseOp
//! AtomicOp := Atomic { SharedOp* }
//! OrElseOp := SharedOp OrElse SharedOp
//! ```
//!
//! `Atomic` has all-or-nothing semantics (implemented with per-object
//! copy-on-write, see [`crate::execute`]); `op1 OrElse op2` allows at most
//! one of the two to succeed, with priority to `op1`. The constructors nest
//! arbitrarily.

use std::collections::BTreeSet;
use std::fmt;

use crate::ids::{ObjectId, OpId};
use crate::value::Value;

/// Resolves an object id to its registered type name: the store's own
/// objects at an execution site, a machine's catalog or a scenario's object
/// table elsewhere.
pub type TypeOf<'a> = &'a dyn Fn(ObjectId) -> Option<String>;

/// A (possibly hierarchical) shared operation.
///
/// Created with [`SharedOp::primitive`] (the analog of
/// `Guesstimate.CreateOperation`), [`SharedOp::atomic`] (`CreateAtomic`) and
/// [`SharedOp::or_else`] (`CreateOrElse`).
///
/// # Examples
///
/// ```
/// use guesstimate_core::{args, MachineId, ObjectId, SharedOp};
/// let obj = ObjectId::new(MachineId::new(0), 0);
/// let join_a = SharedOp::primitive(obj, "join", args!["alice", "party"]);
/// let join_b = SharedOp::primitive(obj, "join", args!["alice", "dinner"]);
/// // Join one of the two events, preferring the party:
/// let either = join_a.clone().or_else(join_b);
/// // ... or sign up for both or neither:
/// let both = SharedOp::atomic(vec![join_a, either]);
/// assert_eq!(both.primitive_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SharedOp {
    /// A single method invocation on one shared object.
    Primitive {
        /// Target shared object.
        object: ObjectId,
        /// Registered method name.
        method: String,
        /// Argument vector, replayed identically on every machine.
        args: Vec<Value>,
    },
    /// All-or-nothing composition: succeeds iff every child succeeds; on
    /// failure no child's effect is visible.
    Atomic(Vec<SharedOp>),
    /// Alternative composition: tries the first child, and only if it fails
    /// tries the second. At most one succeeds.
    OrElse(Box<SharedOp>, Box<SharedOp>),
}

impl SharedOp {
    /// Creates a primitive operation on `object` invoking `method` with `args`.
    pub fn primitive(object: ObjectId, method: impl Into<String>, args: Vec<Value>) -> SharedOp {
        SharedOp::Primitive {
            object,
            method: method.into(),
            args,
        }
    }

    /// Creates an all-or-nothing composition of `ops`.
    ///
    /// An empty `Atomic` trivially succeeds (vacuous conjunction).
    pub fn atomic(ops: Vec<SharedOp>) -> SharedOp {
        SharedOp::Atomic(ops)
    }

    /// Creates `self OrElse other`: `other` runs only if `self` fails.
    pub fn or_else(self, other: SharedOp) -> SharedOp {
        SharedOp::OrElse(Box::new(self), Box::new(other))
    }

    /// Folds a non-empty list of alternatives into a right-nested `OrElse`
    /// chain (first element has the highest priority).
    ///
    /// Returns `None` for an empty list.
    pub fn first_of(ops: Vec<SharedOp>) -> Option<SharedOp> {
        let mut it = ops.into_iter().rev();
        let last = it.next()?;
        Some(it.fold(last, |acc, op| op.or_else(acc)))
    }

    /// The set of shared objects this operation may touch.
    ///
    /// Used by the runtime for read isolation and by the copy-on-write
    /// machinery to bound the objects it must snapshot.
    pub fn objects_touched(&self) -> BTreeSet<ObjectId> {
        let mut set = BTreeSet::new();
        self.collect_objects(&mut set);
        set
    }

    fn collect_objects(&self, set: &mut BTreeSet<ObjectId>) {
        match self {
            SharedOp::Primitive { object, .. } => {
                set.insert(*object);
            }
            SharedOp::Atomic(ops) => {
                for op in ops {
                    op.collect_objects(set);
                }
            }
            SharedOp::OrElse(a, b) => {
                a.collect_objects(set);
                b.collect_objects(set);
            }
        }
    }

    /// Number of primitive operations in the tree.
    pub fn primitive_count(&self) -> usize {
        match self {
            SharedOp::Primitive { .. } => 1,
            SharedOp::Atomic(ops) => ops.iter().map(SharedOp::primitive_count).sum(),
            SharedOp::OrElse(a, b) => a.primitive_count() + b.primitive_count(),
        }
    }

    /// Nesting depth of the operation tree (a primitive has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            SharedOp::Primitive { .. } => 1,
            SharedOp::Atomic(ops) => 1 + ops.iter().map(SharedOp::depth).max().unwrap_or(0),
            SharedOp::OrElse(a, b) => 1 + a.depth().max(b.depth()),
        }
    }
}

impl fmt::Display for SharedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharedOp::Primitive {
                object,
                method,
                args,
            } => {
                write!(f, "{object}.{method}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            SharedOp::Atomic(ops) => {
                write!(f, "atomic {{ ")?;
                for (i, op) in ops.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{op}")?;
                }
                write!(f, " }}")
            }
            SharedOp::OrElse(a, b) => write!(f, "({a} orelse {b})"),
        }
    }
}

/// A shared operation tagged with its issue identity — the
/// `(machineID, operationnumber, operation)` triple flushed on the
/// Operations channel during *AddUpdatesToMesh* (§4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpEnvelope {
    /// Issue identity: issuing machine + per-machine sequence number.
    pub id: OpId,
    /// The operation itself.
    pub op: SharedOp,
}

impl OpEnvelope {
    /// Wraps an operation with its issue identity.
    pub fn new(id: OpId, op: SharedOp) -> Self {
        OpEnvelope { id, op }
    }
}

impl fmt::Display for OpEnvelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.id, self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;
    use crate::ids::MachineId;

    fn oid(s: u64) -> ObjectId {
        ObjectId::new(MachineId::new(0), s)
    }

    #[test]
    fn constructors_and_counts() {
        let p = SharedOp::primitive(oid(0), "f", args![1]);
        assert_eq!(p.primitive_count(), 1);
        assert_eq!(p.depth(), 1);

        let a = SharedOp::atomic(vec![p.clone(), p.clone()]);
        assert_eq!(a.primitive_count(), 2);
        assert_eq!(a.depth(), 2);

        let o = p.clone().or_else(a.clone());
        assert_eq!(o.primitive_count(), 3);
        assert_eq!(o.depth(), 3);

        let empty = SharedOp::atomic(vec![]);
        assert_eq!(empty.primitive_count(), 0);
        assert_eq!(empty.depth(), 1);
    }

    #[test]
    fn objects_touched_deduplicates() {
        let op = SharedOp::atomic(vec![
            SharedOp::primitive(oid(0), "f", args![]),
            SharedOp::primitive(oid(1), "g", args![]),
            SharedOp::primitive(oid(0), "h", args![]),
        ]);
        let touched = op.objects_touched();
        assert_eq!(
            touched.into_iter().collect::<Vec<_>>(),
            vec![oid(0), oid(1)]
        );
    }

    #[test]
    fn first_of_builds_priority_chain() {
        let ops: Vec<SharedOp> = (0..3)
            .map(|i| SharedOp::primitive(oid(i), "f", args![]))
            .collect();
        let chain = SharedOp::first_of(ops).unwrap();
        // Expect ((o0 orelse (o1 orelse o2)))
        match &chain {
            SharedOp::OrElse(first, rest) => {
                assert!(matches!(**first, SharedOp::Primitive { object, .. } if object == oid(0)));
                assert!(matches!(**rest, SharedOp::OrElse(_, _)));
            }
            other => panic!("unexpected shape {other:?}"),
        }
        assert!(SharedOp::first_of(vec![]).is_none());
        let single = SharedOp::first_of(vec![SharedOp::primitive(oid(9), "f", args![])]).unwrap();
        assert!(matches!(single, SharedOp::Primitive { .. }));
    }

    #[test]
    fn display_is_readable() {
        let op =
            SharedOp::primitive(oid(0), "update", args![1, 2, 3]).or_else(SharedOp::atomic(vec![
                SharedOp::primitive(oid(1), "join", args!["e"]),
            ]));
        let s = op.to_string();
        assert!(s.contains("update(1, 2, 3)"));
        assert!(s.contains("orelse"));
        assert!(s.contains("atomic"));
    }

    #[test]
    fn envelope_display_and_eq() {
        let e = OpEnvelope::new(
            OpId::new(MachineId::new(1), 4),
            SharedOp::primitive(oid(0), "f", args![]),
        );
        assert!(e.to_string().starts_with("op-m1-4: "));
        assert_eq!(e, e.clone());
    }
}
