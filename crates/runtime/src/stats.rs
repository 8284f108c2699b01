//! Runtime statistics: the raw series behind the paper's §7 figures.

use guesstimate_net::SimTime;

/// One completed synchronization, as observed by the master.
///
/// The duration spans from the `BeginSync` broadcast to the `SyncComplete`
/// broadcast (all three stages, §7 "the time it takes for each
/// synchronization (all three stages put together) to complete").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncSample {
    /// Round number.
    pub round: u64,
    /// Virtual time at which the round began.
    pub started_at: SimTime,
    /// BeginSync → SyncComplete.
    pub duration: SimTime,
    /// Stage 1, *AddUpdatesToMesh*: `BeginSync` broadcast until the last
    /// flush is recorded (i.e. until `BeginApply` goes out).
    pub flush_duration: SimTime,
    /// Stage 2, *ApplyUpdatesFromMesh*: `BeginApply` broadcast until the
    /// last ack is recorded.
    pub apply_duration: SimTime,
    /// Stage 3, *FlagCompletion*: whatever remains of `duration` after
    /// stages 1 and 2. The three stage durations sum to `duration` exactly.
    /// Stage 3 is a single `SyncComplete` broadcast with no round trip, so
    /// this is zero as observed by the master; the one-way propagation of
    /// `SyncComplete` to members is visible in the trace stream instead
    /// (`sync_complete_received` events).
    pub completion_duration: SimTime,
    /// Machines participating at round start.
    pub participants: usize,
    /// Operations committed in the round.
    pub ops_committed: u64,
    /// Total operations flushed onto the mesh in stage 1 (the round's queue
    /// depth). Can exceed `ops_committed` when a machine that already
    /// flushed is removed before commit.
    pub ops_flushed: u64,
    /// Recovery resends performed during the round. `u64` so long
    /// adversarial runs (many stall/nudge cycles per round under heavy
    /// loss) can never silently wrap the tally.
    pub resends: u64,
    /// Machines removed (and restarted) during the round.
    pub removals: u64,
}

impl SyncSample {
    /// True if fault recovery intervened in this round.
    pub fn recovered(&self) -> bool {
        self.resends > 0 || self.removals > 0
    }

    /// Sum of the three per-stage durations; equals `duration` exactly.
    pub fn stage_sum(&self) -> SimTime {
        self.flush_duration + self.apply_duration + self.completion_duration
    }
}

/// Per-machine counters.
///
/// `conflicts` is the Figure 7 quantity: "the number of instances when an
/// operation that succeeded on issue failed at commit time".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineStats {
    /// Operations issued successfully (entered the pending list).
    pub issued: u64,
    /// Operations rejected at issue time (failed on the guesstimated state).
    pub issue_failures: u64,
    /// Own operations committed (with either result).
    pub committed_own: u64,
    /// Foreign operations applied at commit.
    pub committed_foreign: u64,
    /// Own operations committed through the async commute-first path
    /// ([`crate::MachineConfig::async_commit`]) — a subset of
    /// `committed_own`.
    pub committed_async_own: u64,
    /// Foreign async operations applied on arrival — a subset of
    /// `committed_foreign`.
    pub committed_async_foreign: u64,
    /// Own operations that succeeded at issue but failed at commit.
    pub conflicts: u64,
    /// Completion routines executed.
    pub completions_run: u64,
    /// Completion routines dropped: by a restart, or because the operation
    /// committed while its issuer was away (it left after `BeginApply` had
    /// counted its flush) and the commit-time result never reached it.
    pub completions_dropped: u64,
    /// Pending operations re-executed while re-establishing `sg = [P](sc)`.
    pub replays: u64,
    /// Always 0 since PR 25, which deleted the commute-aware replay skip it
    /// counted; kept only because the frozen `perf` harness reads it for its
    /// `runtime.replays_skipped_per_commit` row.
    pub replays_skipped: u64,
    /// Objects visited by the delta `sc → sg` resyncs
    /// ([`guesstimate_core::ObjectStore::sync_from`]): per resync, the ids
    /// either store was mutated on since the previous one. The whole-store
    /// copy at join is not counted.
    pub objects_resynced: u64,
    /// Times this machine was restarted by recovery.
    pub restarts: u64,
    /// Times this machine promoted itself to master (failover extension).
    pub promotions: u64,
    /// Pending operations lost to restarts.
    pub ops_lost_to_restart: u64,
    /// Master only: ticks held because a join handshake was in flight (the
    /// round started when the handshake was answered, or after
    /// `stall_timeout`).
    pub join_holds: u64,
    /// Master only: summed time those held ticks waited.
    pub join_hold_time: SimTime,
    /// Master only: rounds begun while the round before was still in
    /// stage 2 (two rounds in flight, one per stage).
    pub rounds_overlapped: u64,
    /// Master only: ticks whose round could not begin at once -- stage 1
    /// was still open, the master had not applied the round before, or a
    /// joiner was waiting for the rounds in flight to drain -- and began
    /// when there was room.
    pub ticks_deferred: u64,
    /// Synchronization rounds this machine applied.
    pub rounds_applied: u64,
    /// High-water mark of the pending list `P` (queue depth at issue time).
    pub max_pending_depth: u64,
    /// Histogram of executions-per-own-operation; index `k` counts own
    /// operations that executed exactly `k` times from issue to commit.
    /// The §4 bound says nothing lands beyond index 3.
    pub exec_histogram: [u64; 8],
    /// Maximum executions observed for any single own operation.
    pub max_exec_count: u32,
    /// Completed synchronizations seen (master: rounds driven).
    pub syncs_seen: u64,
    /// Master only: one sample per completed round.
    pub sync_samples: Vec<SyncSample>,
    /// Issue-to-commit latencies of own operations issued through
    /// [`crate::Machine::issue_at`] (operations issued without a timestamp
    /// are not tracked).
    pub commit_latencies: Vec<SimTime>,
}

impl MachineStats {
    /// Records the final execution count of one own operation.
    pub(crate) fn record_exec_count(&mut self, count: u32) {
        let idx = (count as usize).min(self.exec_histogram.len() - 1);
        self.exec_histogram[idx] += 1;
        self.max_exec_count = self.max_exec_count.max(count);
    }

    /// Conflict rate among committed own operations (Figure 7, normalized).
    pub fn conflict_rate(&self) -> f64 {
        if self.committed_own == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.committed_own as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_histogram_saturates() {
        let mut s = MachineStats::default();
        s.record_exec_count(2);
        s.record_exec_count(3);
        s.record_exec_count(3);
        s.record_exec_count(100);
        assert_eq!(s.exec_histogram[2], 1);
        assert_eq!(s.exec_histogram[3], 2);
        assert_eq!(s.exec_histogram[7], 1);
        assert_eq!(s.max_exec_count, 100);
    }

    #[test]
    fn conflict_rate_handles_zero() {
        let mut s = MachineStats::default();
        assert_eq!(s.conflict_rate(), 0.0);
        s.committed_own = 4;
        s.conflicts = 1;
        assert_eq!(s.conflict_rate(), 0.25);
    }

    #[test]
    fn sample_recovered_flag() {
        let base = SyncSample {
            round: 1,
            started_at: SimTime::ZERO,
            duration: SimTime::from_millis(300),
            flush_duration: SimTime::from_millis(180),
            apply_duration: SimTime::from_millis(120),
            completion_duration: SimTime::ZERO,
            participants: 8,
            ops_committed: 10,
            ops_flushed: 10,
            resends: 0,
            removals: 0,
        };
        assert!(!base.recovered());
        assert!(SyncSample { resends: 1, ..base }.recovered());
        assert!(SyncSample {
            removals: 1,
            ..base
        }
        .recovered());
        assert_eq!(base.stage_sum(), base.duration);
    }
}
