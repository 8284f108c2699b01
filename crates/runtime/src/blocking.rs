//! Blocking issue: the Figure 4 pattern, packaged.
//!
//! §5 "Blocking operations": *"there are certain situations where we really
//! want to be sure that an operation commits before executing subsequent
//! operations ... We have been able to program such scenarios by blocking
//! the main thread on issuing the operation and waiting until the completion
//! routine unblocks it."* The paper's sample code (Figure 4) waits on a
//! semaphore released by the completion routine; here the calling thread
//! waits on a channel the completion routine sends into.
//!
//! Only meaningful on the threaded driver — under virtual time there is no
//! caller thread to block.

use std::time::Duration;

use crossbeam::channel::{bounded, RecvTimeoutError};
use guesstimate_core::SharedOp;
use guesstimate_net::ThreadedHandle;

use crate::machine::Machine;

/// Outcome of a blocking issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingOutcome {
    /// The operation failed on the guesstimated state and was dropped
    /// (the paper's `if (!res) this.Close();` branch).
    Rejected,
    /// The operation committed; the payload is the commit-time boolean.
    Committed(bool),
    /// No commit within the timeout (e.g. the synchronizer is partitioned).
    TimedOut,
    /// The completion routine was dropped unrun (a restart lost the
    /// operation, or it committed while the machine was away).
    Dropped,
    /// The machine has left the mesh.
    Unavailable,
}

/// Issues `op` and blocks the calling thread until it commits (or fails at
/// issue, or its completion routine is dropped, or `timeout` elapses).
///
/// # Examples
///
/// See `examples/event_planner.rs`, which uses this for sign-in, exactly as
/// the paper's event-planning application does.
pub fn issue_blocking(
    handle: &ThreadedHandle<Machine>,
    op: SharedOp,
    timeout: Duration,
) -> BlockingOutcome {
    let (tx, rx) = bounded::<bool>(1);
    let issued = handle.with(move |m, _| {
        m.issue_with_completion(
            op,
            Box::new(move |b| {
                let _ = tx.send(b);
            }),
        )
    });
    match issued {
        None => BlockingOutcome::Unavailable,
        Some(Err(_)) | Some(Ok(false)) => BlockingOutcome::Rejected,
        Some(Ok(true)) => match rx.recv_timeout(timeout) {
            Ok(b) => BlockingOutcome::Committed(b),
            Err(RecvTimeoutError::Timeout) => BlockingOutcome::TimedOut,
            Err(RecvTimeoutError::Disconnected) => BlockingOutcome::Dropped,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::threaded_cluster;
    use crate::config::MachineConfig;
    use crate::message::Msg;
    use crate::testutil::{counter_registry, Counter};
    use guesstimate_core::{args, MachineId};
    use guesstimate_net::{Actor, Channel, LatencyModel, SimTime};
    use std::time::Instant;

    fn wait_for(pred: impl Fn() -> bool, ms: u64) -> bool {
        let deadline = Instant::now() + Duration::from_millis(ms);
        while Instant::now() < deadline {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        pred()
    }

    #[test]
    fn blocking_issue_commits_on_threaded_cluster() {
        let cfg = MachineConfig::default()
            .with_sync_period(SimTime::from_millis(30))
            .with_stall_timeout(SimTime::from_millis(2_000))
            .with_join_retry(SimTime::from_millis(100));
        let (_net, handles) =
            threaded_cluster(2, counter_registry(), cfg, LatencyModel::constant_ms(1), 5);
        // Wait for the member to enter the cohort.
        assert!(wait_for(
            || handles[1].read(|m| m.in_cohort()).unwrap_or(false),
            5_000
        ));
        let obj = handles[0]
            .with(|m, _| m.create_instance(Counter { n: 0 }))
            .unwrap();
        // Wait until the member sees the object.
        assert!(wait_for(
            || handles[1]
                .read(|m| m.object_type(obj).is_some())
                .unwrap_or(false),
            5_000
        ));
        let outcome = issue_blocking(
            &handles[1],
            SharedOp::primitive(obj, "add", args![5]),
            Duration::from_secs(5),
        );
        assert_eq!(outcome, BlockingOutcome::Committed(true));
        assert_eq!(
            handles[0].read(|m| m.read::<Counter, _>(obj, |c| c.n)),
            Some(Some(5))
        );
    }

    #[test]
    fn blocking_issue_rejects_failed_precondition() {
        let cfg = MachineConfig::default().with_sync_period(SimTime::from_millis(30));
        let (_net, handles) =
            threaded_cluster(1, counter_registry(), cfg, LatencyModel::constant_ms(1), 5);
        let obj = handles[0]
            .with(|m, _| m.create_instance(Counter { n: 0 }))
            .unwrap();
        let outcome = issue_blocking(
            &handles[0],
            SharedOp::primitive(obj, "add", args![-1]),
            Duration::from_secs(1),
        );
        assert_eq!(outcome, BlockingOutcome::Rejected);
    }

    /// A restart drops the pending operation and its completion routine:
    /// the blocked caller learns so at once, not when the timeout expires.
    #[test]
    fn blocking_issue_reports_a_completion_dropped_by_a_restart() {
        // No round within the test: the operation stays pending.
        let cfg = MachineConfig::default().with_sync_period(SimTime::from_millis(600_000));
        let (_net, handles) =
            threaded_cluster(2, counter_registry(), cfg, LatencyModel::constant_ms(1), 5);
        let member = handles[1].clone();
        let obj = member
            .with(|m, _| m.create_instance(Counter { n: 0 }))
            .unwrap();
        let restarter = std::thread::spawn(move || {
            assert!(wait_for(
                || member.read(|m| m.pending_len() == 2).unwrap_or(false),
                5_000
            ));
            member.with(|m, ctx| {
                m.on_message(MachineId::new(0), Channel::Signals, Msg::Restart, ctx)
            });
        });
        let started = Instant::now();
        let outcome = issue_blocking(
            &handles[1],
            SharedOp::primitive(obj, "add", args![1]),
            Duration::from_secs(60),
        );
        restarter.join().unwrap();
        assert_eq!(outcome, BlockingOutcome::Dropped);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "no timeout wait"
        );
        assert_eq!(handles[1].read(|m| m.stats().completions_dropped), Some(1));
    }
}
