//! Completion operations: commit-time callbacks on the issuing machine.
//!
//! A composite operation is a pair `(s, c)` of a shared operation and a
//! completion operation (§3). The completion runs **on the machine that
//! issued the operation**, **at commit time**, and receives the boolean
//! result of the *commit-time* execution — this is how applications learn
//! that an operation which succeeded optimistically at issue time was lost
//! to a conflict, and take remedial action (repaint the Sudoku square RED,
//! release a blocked sign-in thread, …).
//!
//! During *ApplyUpdatesFromMesh* the runtime first applies all committed
//! operations, queuing the completions of its own operations into a
//! `PendingCompletionRoutines` queue, and only then runs them (§4). Here
//! the queue is data: the protocol records [`Callback`]s, and its owner
//! hands them to the [`Closures`] table — the one place a closure lives —
//! at the end of the step. A clone of the table is empty, so protocol state
//! can be cloned and every closure still runs at most once, on the original.

use std::collections::HashMap;
use std::fmt;

use crate::ids::{ObjectId, OpId};
use crate::registry::FnvBuild;

/// A completion callback: receives the commit-time boolean of its operation.
///
/// The C# signature is `delegate void CompletionOp(bool v)`; local state the
/// completion needs (the paper's `G` component) is captured by the closure.
pub type CompletionFn = Box<dyn FnOnce(bool) + Send>;

/// Runs once per object that a *foreign* committed operation touched.
pub type RemoteUpdateHook = Box<dyn FnMut(ObjectId) + Send>;

/// What a [`Closures`] table is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// The operation committed with this result: run its completion.
    Completed(OpId, bool),
    /// Its result will never arrive: drop its completion unrun.
    Dropped(OpId),
    /// A foreign commit touched the object: run every remote-update hook.
    Touched(ObjectId),
}

/// Completions keyed by the operation they complete, and remote-update
/// hooks.
#[derive(Default)]
pub struct Closures {
    /// Hashed with FNV-1a: only the machine's own operations are filed, so
    /// the flooding resistance SipHash pays for buys nothing here.
    completions: HashMap<OpId, CompletionFn, FnvBuild>,
    hooks: Vec<RemoteUpdateHook>,
}

impl Clone for Closures {
    /// An empty table: each closure runs at most once, on the original.
    fn clone(&self) -> Self {
        Closures::default()
    }
}

impl fmt::Debug for Closures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Closures").finish_non_exhaustive()
    }
}

impl Closures {
    /// Files `op`'s completion.
    pub fn insert(&mut self, op: OpId, completion: CompletionFn) {
        self.completions.insert(op, completion);
    }

    /// Registers a remote-update hook.
    pub fn add_hook(&mut self, hook: RemoteUpdateHook) {
        self.hooks.push(hook);
    }

    /// True if any remote-update hook is registered.
    pub fn has_hooks(&self) -> bool {
        !self.hooks.is_empty()
    }

    /// Acts on `event`; true if a closure of this table ran or was dropped.
    pub fn run(&mut self, event: Callback) -> bool {
        match event {
            Callback::Completed(op, result) => {
                let completion = self.completions.remove(&op);
                completion.map(|c| c(result)).is_some()
            }
            Callback::Dropped(op) => self.completions.remove(&op).is_some(),
            Callback::Touched(object) => {
                self.hooks.iter_mut().for_each(|hook| hook(object));
                self.has_hooks()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MachineId;
    use std::sync::Arc;

    fn op(n: u64) -> OpId {
        OpId::new(MachineId::new(0), n)
    }

    #[test]
    fn runs_completions_with_results_and_drops_unrun() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut table = Closures::default();
        for i in 0..3u64 {
            let log = log.clone();
            table.insert(op(i), Box::new(move |b| log.lock().push((i, b))));
        }
        assert!(table.run(Callback::Completed(op(1), false)));
        assert!(table.run(Callback::Dropped(op(0))));
        assert!(table.run(Callback::Completed(op(2), true)));
        assert!(!table.run(Callback::Completed(op(0), true)), "dropped");
        assert!(!table.run(Callback::Completed(op(1), true)), "at most once");
        assert_eq!(*log.lock(), vec![(1, false), (2, true)]);
    }

    #[test]
    fn hooks_run_per_touched_object_and_a_clone_has_none() {
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut table = Closures::default();
        let object = ObjectId::new(MachineId::new(1), 4);
        assert!(!table.run(Callback::Touched(object)), "no hook yet");
        let s = seen.clone();
        table.add_hook(Box::new(move |o| s.lock().push(o)));
        table.insert(op(0), Box::new(|_| {}));
        let mut copy = table.clone();
        assert!(!copy.has_hooks());
        assert!(!copy.run(Callback::Completed(op(0), true)));
        assert!(!copy.run(Callback::Touched(object)));
        assert!(table.run(Callback::Touched(object)));
        assert_eq!(*seen.lock(), vec![object]);
    }
}
