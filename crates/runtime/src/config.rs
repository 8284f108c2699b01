//! Runtime configuration.

use std::sync::Arc;

use guesstimate_core::{CommuteMatrix, ShardPlan};
use guesstimate_net::SimTime;

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
    /// Stage-1 flush mode. `true` (the default; §9 "Scalable run-time"):
    /// every participant flushes as soon as it sees `BeginSync` and confirms
    /// to the master alone, so a round's critical path is four one-way
    /// delays for any cohort size. `false` is the paper's §4 serial
    /// turn-taking — machines flush one after another in round order, each
    /// `FlushDone` broadcast to pass the turn, N + 2 delays per round —
    /// kept as the paper-fidelity setting the Fig. 5/6 reproductions select.
    pub parallel_flush: bool,
    /// Record the full committed-operation history on this machine
    /// (diagnostics / refinement checking against the formal semantics).
    pub record_history: bool,
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
    /// Debug-assert the §3 invariant `sg = [P](sc)` after **every**
    /// protocol step (`on_start` / `on_message` / `on_timer`).
    ///
    /// Used by the schedule model checker (`guesstimate-mc`) and by test
    /// clusters instead of ad-hoc per-test invariant calls. The assertion
    /// is a `debug_assert!`, so release builds pay nothing; the invariant
    /// replay makes debug runs quadratic in the pending-list length, which
    /// is why this is off by default.
    pub paranoid_checks: bool,
    /// Hybrid commit path (see `docs/PROTOCOL.md` "Commute-first async
    /// commits"): operations whose method is a *universal commuter* in
    /// [`MachineConfig::commute_matrix`] — it commutes with every method of
    /// its type, including itself — bypass the master-serialized round:
    /// they commit on the issuer immediately, broadcast in one hop, and
    /// apply at receivers in arrival order. Serialized operations keep the
    /// paper's total order. Off by default — the paper commits everything
    /// through rounds.
    pub async_commit: bool,
    /// With [`MachineConfig::paranoid_checks`] on, additionally probe for
    /// undeclared *reads* at every apply site (issue, commit, replay,
    /// async apply) via
    /// [`guesstimate_core::execute_witnessed`]'s perturbation probing —
    /// the live analog of the analysis witness sanitizer. Each apply
    /// re-executes the operation once per uncovered pre-state path, so
    /// this is far costlier than the write-containment check (which
    /// paranoid mode always performs) and is off by default.
    pub witness_reads: bool,
    /// Whether a witness-containment escape `debug_assert!`s (the
    /// default). The model checker's negative preset turns this off so
    /// escapes are *recorded* on the machine
    /// ([`crate::Machine::witness_violations`]) for its oracle to report
    /// — and ddmin-shrink — instead of aborting mid-delivery.
    pub witness_assert: bool,
    /// An analysis-derived shard plan (`analyze --shard-plan`; see
    /// `docs/ANALYSIS.md` "Shard plans"). When installed, every commit is
    /// labeled with its routed [`guesstimate_core::ShardId`] (feeding the
    /// per-shard telemetry counter), and under
    /// [`MachineConfig::paranoid_checks`] the commit sites additionally
    /// assert that the operation's declared footprints stay inside the
    /// routed shard (see [`crate::ShardViolation`]). `None` (the default)
    /// disables all shard accounting.
    pub shard_plan: Option<Arc<ShardPlan>>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            sync_period: SimTime::from_millis(250),
            stall_timeout: SimTime::from_secs(2),
            join_retry: SimTime::from_secs(1),
            parallel_flush: true,
            record_history: false,
            master_failover: None,
            commute_matrix: CommuteMatrix::new(),
            paranoid_checks: false,
            async_commit: false,
            witness_reads: false,
            witness_assert: true,
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

    /// Selects the stage-1 flush mode: parallel (the default) or, with
    /// `false`, the paper's serial turn-taking (see
    /// [`MachineConfig::parallel_flush`]).
    pub fn with_parallel_flush(mut self, on: bool) -> Self {
        self.parallel_flush = on;
        self
    }

    /// Sets the join-retry period.
    pub fn with_join_retry(mut self, t: SimTime) -> Self {
        self.join_retry = t;
        self
    }

    /// Enables committed-history recording (see [`MachineConfig::record_history`]).
    pub fn with_record_history(mut self, on: bool) -> Self {
        self.record_history = on;
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

    /// Enables per-step invariant assertions (see
    /// [`MachineConfig::paranoid_checks`]).
    pub fn with_paranoid_checks(mut self, on: bool) -> Self {
        self.paranoid_checks = on;
        self
    }

    /// Enables read-probing at apply sites under paranoid checks (see
    /// [`MachineConfig::witness_reads`]).
    pub fn with_witness_reads(mut self, on: bool) -> Self {
        self.witness_reads = on;
        self
    }

    /// Sets whether witness escapes assert or are only recorded (see
    /// [`MachineConfig::witness_assert`]).
    pub fn with_witness_assert(mut self, on: bool) -> Self {
        self.witness_assert = on;
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
        assert!(c.parallel_flush, "the four-delay round is what ships");
    }

    #[test]
    fn builders_set_fields() {
        let c = MachineConfig::default()
            .with_sync_period(SimTime::from_millis(10))
            .with_stall_timeout(SimTime::from_millis(500))
            .with_join_retry(SimTime::from_millis(100))
            .with_parallel_flush(false);
        assert_eq!(c.sync_period, SimTime::from_millis(10));
        assert_eq!(c.stall_timeout, SimTime::from_millis(500));
        assert_eq!(c.join_retry, SimTime::from_millis(100));
        assert!(!c.parallel_flush, "serial turn-taking stays selectable");
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
