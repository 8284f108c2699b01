//! Runtime configuration.

use std::sync::Arc;

use guesstimate_core::{CommuteMatrix, MachineId, ShardPlan};
use guesstimate_net::SimTime;

/// The stage-1 flush mode: which machines of a round flush before which
/// ([`Flush::turn_open`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Flush {
    /// The paper's §4 turn-taking, master first, each `FlushDone` a
    /// broadcast that passes the turn: N + 2 delays a round, one at a time.
    Serial,
    /// §9 "Scalable run-time": members flush at once, the master last, its
    /// batch riding `BeginApply`: four delays a round, two rounds in flight.
    #[default]
    Parallel,
}

impl Flush {
    /// The turn rule: `me` may flush once every machine ahead of it in the
    /// round's flush `order` is `done` (flushed or removed). Under `Serial`
    /// those are the machines before it; under `Parallel` nobody is ahead
    /// of a member and every member is ahead of the master (`order[0]`),
    /// whose turn -- the cut -- also waits for stage 2 to be free.
    pub fn turn_open(
        self,
        order: &[MachineId],
        me: MachineId,
        done: impl Fn(&MachineId) -> bool,
    ) -> bool {
        let Some(pos) = order.iter().position(|m| *m == me) else {
            return false;
        };
        let ahead = match self {
            Flush::Serial => &order[..pos],
            Flush::Parallel if pos == 0 => &order[1..],
            Flush::Parallel => &[],
        };
        ahead.iter().all(done)
    }

    /// A round may begin while the one before it applies: the tick is armed
    /// as a round begins, and a `BeginSync` overtaking its predecessor's
    /// `BeginApply` waits for that apply instead of proving a gap.
    pub fn overlaps(self) -> bool {
        self == Flush::Parallel
    }

    /// The master's flush is the cut, its batch riding `BeginApply`.
    pub fn master_cuts(self) -> bool {
        self == Flush::Parallel
    }

    /// `FlushDone` goes to everyone, opening turns, and the master traces
    /// every flush window it sees open; otherwise to the master alone.
    pub fn passes_turn(self) -> bool {
        self == Flush::Serial
    }
}

/// The diagnostic mode: whether a machine checks itself as it runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Checks {
    /// No checks (the default).
    #[default]
    Off,
    /// `debug_assert!` the §3 invariant `sg = [P](sc)` after every protocol
    /// step, and witness and shard containment at every apply and commit
    /// site; keep the committed history ([`crate::Machine::history`]).
    /// What test clusters and the model checker run; release builds pay
    /// nothing, debug runs are quadratic in the pending-list length.
    Assert,
    /// [`Checks::Assert`], but an escape is only recorded
    /// ([`crate::Machine::witness_violations`],
    /// [`crate::Machine::shard_violations`]) for the model checker's
    /// negative rows to report and shrink.
    Record,
}

impl Checks {
    /// Whether the machine checks itself at all (and keeps its history).
    pub fn on(self) -> bool {
        self != Checks::Off
    }
}

/// Tunables of a GUESSTIMATE machine.
///
/// The defaults approximate the paper's deployment: a master that starts a
/// synchronization every few hundred milliseconds on a LAN, with a stall
/// timeout long enough that it only fires when something is genuinely wrong
/// (the paper's Figure 5 outliers are exactly such recoveries).
///
/// # Examples
///
/// ```
/// use guesstimate_net::SimTime;
/// use guesstimate_runtime::MachineConfig;
/// let cfg = MachineConfig::default().with_sync_period(SimTime::from_millis(100));
/// assert_eq!(cfg.sync_period, SimTime::from_millis(100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Master: the time from the start of one synchronization to the start
    /// of the next. A round starts every `sync_period`, or -- when a round
    /// outlasts it -- as soon as the last one has left stage 1 and the
    /// master has applied it (under serial turns: as soon as it has
    /// completed; "the master can start another synchronization any time
    /// after this", §4); a tick that finds a joiner waiting lets the rounds
    /// in flight finish first, and waits for its handshake, at most
    /// `stall_timeout`.
    pub sync_period: SimTime,
    /// Master: how long a stage may stall before recovery kicks in
    /// (resend, then removal + restart).
    pub stall_timeout: SimTime,
    /// Participant: how often to re-send `JoinRequest` until admitted.
    pub join_retry: SimTime,
    /// The stage-1 flush mode (see [`Flush`]): parallel by default.
    pub flush: Flush,
    /// §9 "Fault tolerance" extension: when set, a member that hears
    /// nothing from the master for this long starts a master election
    /// (candidates ranked by committed progress, ties broken by machine
    /// id). `None` (the default, and the paper's behavior) means master
    /// failure is not tolerated.
    pub master_failover: Option<SimTime>,
    /// Method pairs validated as always-commuting by the offline analysis
    /// (`guesstimate-analysis`). Its full rows name the *universal
    /// commuters* eligible for the hybrid path
    /// ([`MachineConfig::async_commit`]).
    pub commute_matrix: CommuteMatrix,
    /// The diagnostic mode (see [`Checks`]): off by default.
    pub checks: Checks,
    /// Hybrid commit path (see `docs/PROTOCOL.md` "Commute-first async
    /// commits"): operations whose method is a *universal commuter* in
    /// [`MachineConfig::commute_matrix`] — it commutes with every method of
    /// its type, including itself — bypass the master-serialized round:
    /// they commit on the issuer immediately, broadcast in one hop, and
    /// apply at receivers in arrival order. Serialized operations keep the
    /// paper's total order. Off by default — the paper commits everything
    /// through rounds.
    pub async_commit: bool,
    /// With [`MachineConfig::checks`] on, also probe every apply site for
    /// undeclared *reads* ([`guesstimate_core::execute_witnessed`]'s
    /// perturbation probing, the live analog of the analysis witness
    /// sanitizer): one re-execution per uncovered pre-state path, so off
    /// by default.
    pub witness_reads: bool,
    /// An analysis-derived shard plan (`analyze --shard-plan`; see
    /// `docs/ANALYSIS.md` "Shard plans"). When installed, every commit is
    /// labeled with its routed [`guesstimate_core::ShardId`] (the per-shard
    /// telemetry counter), and with [`MachineConfig::checks`] on the commit
    /// sites check that its declared footprints stay inside that shard
    /// ([`crate::ShardViolation`]). `None` (the default): no accounting.
    pub shard_plan: Option<Arc<ShardPlan>>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            sync_period: SimTime::from_millis(250),
            stall_timeout: SimTime::from_secs(2),
            join_retry: SimTime::from_secs(1),
            flush: Flush::default(),
            master_failover: None,
            commute_matrix: CommuteMatrix::new(),
            checks: Checks::default(),
            async_commit: false,
            witness_reads: false,
            shard_plan: None,
        }
    }
}

impl MachineConfig {
    /// Sets the master's round period, start to start.
    pub fn with_sync_period(mut self, p: SimTime) -> Self {
        self.sync_period = p;
        self
    }

    /// Sets the master's stage stall timeout.
    pub fn with_stall_timeout(mut self, t: SimTime) -> Self {
        self.stall_timeout = t;
        self
    }

    /// Selects the stage-1 flush mode (see [`Flush`]).
    pub fn with_flush(mut self, flush: Flush) -> Self {
        self.flush = flush;
        self
    }

    /// Sets the join-retry period.
    pub fn with_join_retry(mut self, t: SimTime) -> Self {
        self.join_retry = t;
        self
    }

    /// Enables master failover with the given silence threshold (should be
    /// several times the stall timeout, so recovery hiccups never trigger
    /// spurious elections).
    pub fn with_master_failover(mut self, timeout: SimTime) -> Self {
        self.master_failover = Some(timeout);
        self
    }

    /// Installs an analysis-validated commute matrix (see
    /// [`MachineConfig::commute_matrix`]).
    pub fn with_commute_matrix(mut self, m: CommuteMatrix) -> Self {
        self.commute_matrix = m;
        self
    }

    /// Selects the diagnostic mode (see [`Checks`]).
    pub fn with_checks(mut self, checks: Checks) -> Self {
        self.checks = checks;
        self
    }

    /// Enables read-probing under checks ([`MachineConfig::witness_reads`]).
    pub fn with_witness_reads(mut self, on: bool) -> Self {
        self.witness_reads = on;
        self
    }

    /// Installs an analysis-derived shard plan (see
    /// [`MachineConfig::shard_plan`]).
    pub fn with_shard_plan(mut self, plan: Arc<ShardPlan>) -> Self {
        self.shard_plan = Some(plan);
        self
    }

    /// Installs a shard plan parsed from an `analyze --json` schema-v3
    /// archive (the deployable form of [`MachineConfig::with_shard_plan`]):
    /// the build step runs `guesstimate analyze --json`, ships the archive
    /// with the application, and the runtime loads the validated plans
    /// back at startup without depending on the analyzer crate.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed archives (see
    /// [`ShardPlan::from_json_archive`]).
    pub fn with_shard_plan_from_json(self, archive: &str) -> Result<Self, String> {
        let plan = ShardPlan::from_json_archive(archive)?;
        Ok(self.with_shard_plan(Arc::new(plan)))
    }

    /// Enables the hybrid commute-first commit path (see
    /// [`MachineConfig::async_commit`]). Only effective together with a
    /// non-empty [`MachineConfig::commute_matrix`], which names the
    /// analysis-validated commuting pairs.
    pub fn with_async_commit(mut self, on: bool) -> Self {
        self.async_commit = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = MachineConfig::default();
        assert!(c.sync_period < c.stall_timeout);
        assert_eq!(
            c.flush,
            Flush::Parallel,
            "the four-delay round is what ships"
        );
        assert_eq!(c.checks, Checks::Off, "checks cost debug runs dearly");
    }

    #[test]
    fn builders_set_fields() {
        let c = MachineConfig::default()
            .with_sync_period(SimTime::from_millis(10))
            .with_stall_timeout(SimTime::from_millis(500))
            .with_join_retry(SimTime::from_millis(100))
            .with_flush(Flush::Serial)
            .with_checks(Checks::Record);
        assert_eq!(c.sync_period, SimTime::from_millis(10));
        assert_eq!(c.stall_timeout, SimTime::from_millis(500));
        assert_eq!(c.join_retry, SimTime::from_millis(100));
        assert_eq!(
            c.flush,
            Flush::Serial,
            "serial turn-taking stays selectable"
        );
        assert_eq!(c.checks, Checks::Record, "escapes logged, not asserted");
        assert!(c.checks.on() && !Checks::Off.on());
    }

    #[test]
    fn shard_plan_loads_from_v3_archive() {
        let archive = r#"{
          "version": 3,
          "apps": [{
            "type": "Pair",
            "shard_plan": {
              "components": [
                {"id": 0, "keyed": false, "prefixes": ["a"]},
                {"id": 1, "keyed": false, "prefixes": ["b"]}
              ],
              "routes": {
                "bump_a": {"kind": "local", "component": 0, "key_arg": null},
                "mix": {"kind": "cross"}
              }
            }
          }]
        }"#;
        let cfg = MachineConfig::default()
            .with_shard_plan_from_json(archive)
            .unwrap();
        let plan = cfg.shard_plan.as_ref().unwrap();
        assert_eq!(plan.types["Pair"].components.len(), 2);
        assert!(matches!(
            plan.types["Pair"].routes["mix"],
            guesstimate_core::Routing::CrossShard
        ));
        assert!(MachineConfig::default()
            .with_shard_plan_from_json("{\"version\": 9, \"apps\": []}")
            .is_err());
    }
}
