//! The [`Telemetry`] handle: the one type the runtime, drivers and bench
//! harness carry.
//!
//! A handle is either **enabled** (it owns a [`Registry`] of
//! instruments plus a [`SpanBook`]) or the **no-op** default. The no-op
//! costs exactly one branch per hook — `inner` is `None`, every hook
//! returns immediately, nothing allocates — which is what lets the
//! protocol keep its hooks unconditionally wired without observable
//! overhead (see the zero-overhead test in `tests/`).

use std::collections::BTreeMap;
use std::sync::Arc;

use guesstimate_core::{MachineId, OpId};
use guesstimate_net::{NetMetrics, SimTime, TraceRecord};

use crate::chrome;
use crate::metrics::{Counter, Gauge, Histogram, Registry};
use crate::spans::{OpSpan, SpanBook};

/// The instruments behind an enabled [`Telemetry`] handle.
///
/// All fields are pre-registered `Arc` handles into `registry`; hooks
/// never look anything up by name.
#[derive(Debug)]
struct TelemetryInner {
    registry: Registry,
    spans: parking_lot::Mutex<SpanBook>,

    ops_issued: Arc<Counter>,
    ops_flushed: Arc<Counter>,
    ops_committed: Arc<Counter>,
    ops_committed_async: Arc<Counter>,
    ops_completed: Arc<Counter>,
    ops_lost: Arc<Counter>,
    restarts: Arc<Counter>,

    commit_lag_us: Arc<Histogram>,
    commit_lag_round_us: Arc<Histogram>,
    commit_lag_async_us: Arc<Histogram>,
    exec_count: Arc<Histogram>,

    rounds: Arc<Counter>,
    resends: Arc<Counter>,
    removals: Arc<Counter>,
    round_duration_us: Arc<Histogram>,
    stage_flush_us: Arc<Histogram>,
    stage_apply_us: Arc<Histogram>,
    stage_completion_us: Arc<Histogram>,

    pending_depth: Arc<Gauge>,
    pending_depth_peak: Arc<Gauge>,
    pending_depth_dist: Arc<Histogram>,
    divergence: Arc<Gauge>,
    divergence_peak: Arc<Gauge>,
    divergence_dist: Arc<Histogram>,

    net_sent: Arc<Counter>,
    net_delivered: Arc<Counter>,
    net_dropped: Arc<Counter>,
    net_duplicated: Arc<Counter>,
    net_timers: Arc<Counter>,
    net_bytes_sent: Arc<Counter>,
    net_bytes_delivered: Arc<Counter>,

    /// Per-shard commit counters, registered lazily: shard labels are
    /// data-dependent (keyed shards embed argument values), so they
    /// cannot be pre-registered like the instruments above.
    shard_ops: parking_lot::Mutex<BTreeMap<String, Arc<Counter>>>,

    /// Dedicated counter for `Cross`-routed commits (the shard router's
    /// fallback): one bump per committed op whose route left every shard.
    cross_routes: Arc<Counter>,
}

impl TelemetryInner {
    fn new() -> Self {
        let registry = Registry::new();
        let c = |name: &str, help: &str| registry.counter(name, help);
        let g = |name: &str, help: &str| registry.gauge(name, help);
        let h = |name: &str, help: &str| registry.histogram(name, help);
        TelemetryInner {
            ops_issued: c("guesstimate_ops_issued_total", "Operations issued on sg"),
            ops_flushed: c(
                "guesstimate_ops_flushed_total",
                "Operation flush broadcasts (re-flushes counted)",
            ),
            ops_committed: c(
                "guesstimate_ops_committed_total",
                "Own operations committed into sc on their issuing machine",
            ),
            ops_committed_async: c(
                "guesstimate_ops_committed_async_total",
                "Own operations committed through the hybrid async path (subset of ops_committed)",
            ),
            ops_completed: c(
                "guesstimate_ops_completed_total",
                "Completion callbacks delivered",
            ),
            ops_lost: c(
                "guesstimate_ops_lost_total",
                "Uncommitted operations dropped by a machine restart",
            ),
            restarts: c("guesstimate_restarts_total", "Machine protocol restarts"),
            commit_lag_us: h(
                "guesstimate_commit_lag_us",
                "Virtual time from issue to commit, microseconds (one sample per committed own op)",
            ),
            commit_lag_round_us: h(
                "guesstimate_commit_lag_round_us",
                "Issue-to-commit lag of round-serialized ops, microseconds",
            ),
            commit_lag_async_us: h(
                "guesstimate_commit_lag_async_us",
                "Issue-to-commit lag of hybrid async-path ops, microseconds",
            ),
            exec_count: h(
                "guesstimate_exec_count",
                "Executions per committed operation on its issuing machine (paper bound: 3)",
            ),
            rounds: c("guesstimate_rounds_total", "Sync rounds completed"),
            resends: c(
                "guesstimate_resends_total",
                "Stage kickoff re-sends to stragglers",
            ),
            removals: c(
                "guesstimate_removals_total",
                "Machines removed from a round as unresponsive",
            ),
            round_duration_us: h(
                "guesstimate_round_duration_us",
                "Full sync round duration, microseconds",
            ),
            stage_flush_us: h(
                "guesstimate_stage_flush_us",
                "Stage 1 (AddUpdatesToMesh) duration, microseconds",
            ),
            stage_apply_us: h(
                "guesstimate_stage_apply_us",
                "Stage 2 (ApplyUpdatesFromMesh) duration, microseconds",
            ),
            stage_completion_us: h(
                "guesstimate_stage_completion_us",
                "Stage 3 (FlagCompletion) duration, microseconds",
            ),
            pending_depth: g(
                "guesstimate_pending_depth",
                "Pending-list depth at the most recent flush",
            ),
            pending_depth_peak: g(
                "guesstimate_pending_depth_peak",
                "Largest pending-list depth observed at a flush",
            ),
            pending_depth_dist: h(
                "guesstimate_pending_depth_dist",
                "Pending-list depth sampled at each flush",
            ),
            divergence: g(
                "guesstimate_sg_sc_divergence",
                "Ops applied to sg but not yet in sc, sampled after the most recent round apply",
            ),
            divergence_peak: g(
                "guesstimate_sg_sc_divergence_peak",
                "Largest sg/sc divergence observed at a round boundary",
            ),
            divergence_dist: h(
                "guesstimate_sg_sc_divergence_dist",
                "sg/sc divergence sampled at each round apply",
            ),
            net_sent: c(
                "guesstimate_net_sent_total",
                "Point-to-point deliveries attempted",
            ),
            net_delivered: c(
                "guesstimate_net_delivered_total",
                "Deliveries that reached on_message",
            ),
            net_dropped: c(
                "guesstimate_net_dropped_total",
                "Deliveries dropped by the fault plan",
            ),
            net_duplicated: c(
                "guesstimate_net_duplicated_total",
                "Extra deliveries injected by duplication faults",
            ),
            net_timers: c("guesstimate_net_timers_total", "Timer callbacks fired"),
            net_bytes_sent: c(
                "guesstimate_net_bytes_sent_total",
                "Estimated payload bytes handed to the transport",
            ),
            net_bytes_delivered: c(
                "guesstimate_net_bytes_delivered_total",
                "Estimated payload bytes delivered to on_message",
            ),
            shard_ops: parking_lot::Mutex::new(BTreeMap::new()),
            cross_routes: c(
                "guesstimate_cross_routes_total",
                "Committed operations the shard router routed Cross (fallback)",
            ),
            spans: parking_lot::Mutex::new(SpanBook::new()),
            registry,
        }
    }
}

/// A cloneable telemetry handle; the default is a no-op.
///
/// Clones share the same instruments, so one handle can be installed
/// into every machine of a cluster plus the driver and the bench
/// harness, and a single snapshot sees everything.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Telemetry {
    /// An enabled handle with a fresh instrument set.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner::new())),
        }
    }

    /// The no-op handle: every hook is a single branch, nothing is
    /// recorded, exports are empty.
    pub fn noop() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    // ---- op lifecycle hooks (called by `runtime`) --------------------

    /// An operation was issued on `sg`. `at` is `None` on untimed
    /// paths (instance creation).
    pub fn op_issued(&self, op: OpId, at: Option<SimTime>) {
        let Some(inner) = &self.inner else { return };
        inner.ops_issued.inc();
        inner.spans.lock().issued(op, at);
    }

    /// An operation was broadcast in a stage-1 flush. Idempotent per
    /// span: a re-flush bumps the counter but keeps one span.
    pub fn op_flushed(&self, op: OpId, at: SimTime) {
        let Some(inner) = &self.inner else { return };
        inner.ops_flushed.inc();
        inner.spans.lock().flushed(op, at);
    }

    /// An own operation was committed into `sc` with the machine's
    /// authoritative execution count.
    ///
    /// This is where the paper's ≤3 bound is asserted *outside* the
    /// test suite: an enabled telemetry handle turns every committed op
    /// into a live check.
    pub fn op_committed(&self, op: OpId, round: u64, exec_count: u32, at: SimTime) {
        self.committed(op, Some(round), exec_count, at);
    }

    /// An own operation was committed through the hybrid async path
    /// (commute-first commit — no round). Same accounting contract as
    /// [`Telemetry::op_committed`]: bumps `ops_committed`, asserts the
    /// ≤3 execution bound, contributes exactly one combined commit-lag
    /// sample, and additionally feeds the async-path counter and
    /// histogram so the two paths' latencies can be compared.
    pub fn op_committed_async(&self, op: OpId, exec_count: u32, at: SimTime) {
        self.committed(op, None, exec_count, at);
    }

    /// The one body of [`Telemetry::op_committed`] (`round` is `Some`) and
    /// [`Telemetry::op_committed_async`] (`None`).
    fn committed(&self, op: OpId, round: Option<u64>, exec_count: u32, at: SimTime) {
        let Some(inner) = &self.inner else { return };
        assert!(
            exec_count <= 3,
            "{op} executed {exec_count} times; the paper bounds executions by 3"
        );
        inner.ops_committed.inc();
        inner.exec_count.observe(u64::from(exec_count));
        let mut spans = inner.spans.lock();
        match round {
            Some(round) => spans.committed(op, round, exec_count, at),
            None => spans.committed_async(op, exec_count, at),
        }
        // One commit-lag sample per committed own op — by construction
        // the histogram's count equals ops_committed exactly. Untimed
        // issues contribute a zero-lag sample.
        let lag = spans
            .get(op)
            .and_then(|s| s.commit_lag())
            .unwrap_or(SimTime::ZERO);
        drop(spans);
        inner.commit_lag_us.observe(lag.as_micros());
        if round.is_some() {
            inner.commit_lag_round_us.observe(lag.as_micros());
        } else {
            inner.ops_committed_async.inc();
            inner.commit_lag_async_us.observe(lag.as_micros());
        }
    }

    /// An operation's completion callback ran.
    pub fn op_completed(&self, op: OpId, at: SimTime) {
        let Some(inner) = &self.inner else { return };
        inner.ops_completed.inc();
        inner.spans.lock().completed(op, at);
    }

    /// An operation was committed into shard `shard` (the rendered
    /// [`guesstimate_core::ShardId`]; called by the runtime's commit
    /// sites when a shard plan is installed). The counter for a label is
    /// registered on first use — shard labels are data-dependent, so
    /// they cannot be pre-registered.
    pub fn shard_op(&self, shard: &str) {
        let Some(inner) = &self.inner else { return };
        let mut map = inner.shard_ops.lock();
        let counter = map.entry(shard.to_owned()).or_insert_with(|| {
            inner.registry.counter_with_labels(
                "guesstimate_shard_ops_total",
                "Operations committed, by routed shard",
                &[("shard", shard)],
            )
        });
        counter.inc();
    }

    /// A committed operation's shard route was `Cross` — the router's
    /// fallback path, serialized by a coordinated round in multi-group
    /// mode. Called by the runtime's commit sites alongside
    /// [`Telemetry::shard_op`].
    pub fn cross_route(&self) {
        let Some(inner) = &self.inner else { return };
        inner.cross_routes.inc();
    }

    /// `machine` restarted: its uncommitted spans are lost.
    pub fn machine_restarted(&self, machine: MachineId, pending_lost: u64) {
        let Some(inner) = &self.inner else { return };
        inner.restarts.inc();
        inner.ops_lost.add(pending_lost);
        inner.spans.lock().machine_restarted(machine);
    }

    // ---- round / health hooks (called by `runtime::protocol`) --------

    /// Pending-list depth sampled when a machine flushes.
    pub fn pending_depth(&self, depth: u64) {
        let Some(inner) = &self.inner else { return };
        let d = i64::try_from(depth).unwrap_or(i64::MAX);
        inner.pending_depth.set(d);
        inner.pending_depth_peak.set_max(d);
        inner.pending_depth_dist.observe(depth);
    }

    /// `sg`/`sc` divergence (ops applied to `sg` not yet in `sc` — by
    /// the guess invariant, exactly the pending-list length) sampled
    /// after a machine applied a committed round.
    pub fn divergence(&self, remaining_pending: u64) {
        let Some(inner) = &self.inner else { return };
        let d = i64::try_from(remaining_pending).unwrap_or(i64::MAX);
        inner.divergence.set(d);
        inner.divergence_peak.set_max(d);
        inner.divergence_dist.observe(remaining_pending);
    }

    /// The master finished a sync round. The three stage durations sum
    /// exactly to `duration`.
    #[allow(clippy::too_many_arguments)]
    pub fn round_finished(
        &self,
        duration: SimTime,
        flush: SimTime,
        apply: SimTime,
        completion: SimTime,
        resends: u64,
        removals: u64,
    ) {
        let Some(inner) = &self.inner else { return };
        inner.rounds.inc();
        inner.resends.add(resends);
        inner.removals.add(removals);
        inner.round_duration_us.observe(duration.as_micros());
        inner.stage_flush_us.observe(flush.as_micros());
        inner.stage_apply_us.observe(apply.as_micros());
        inner.stage_completion_us.observe(completion.as_micros());
    }

    // ---- driver hooks ------------------------------------------------

    /// Folds a driver's transport counters in. Call once per run per
    /// driver (the counters add, they do not overwrite).
    pub fn record_net(&self, m: &NetMetrics) {
        let Some(inner) = &self.inner else { return };
        inner.net_sent.add(m.sent);
        inner.net_delivered.add(m.delivered);
        inner.net_dropped.add(m.dropped);
        inner.net_duplicated.add(m.duplicated);
        inner.net_timers.add(m.timers_fired);
        inner.net_bytes_sent.add(m.bytes_sent);
        inner.net_bytes_delivered.add(m.bytes_delivered);
    }

    // ---- exports -----------------------------------------------------

    /// Prometheus text exposition of every instrument (empty when
    /// no-op).
    pub fn render_prometheus(&self) -> String {
        match &self.inner {
            Some(inner) => inner.registry.render_prometheus(),
            None => String::new(),
        }
    }

    /// JSON snapshot of every instrument (`{"metrics":[]}` when no-op).
    pub fn render_json(&self) -> String {
        match &self.inner {
            Some(inner) => inner.registry.render_json(),
            None => Registry::new().render_json(),
        }
    }

    /// Chrome trace-format JSON combining a protocol trace with this
    /// handle's op spans (loadable in `chrome://tracing` / Perfetto).
    pub fn render_chrome_trace(&self, records: &[TraceRecord]) -> String {
        chrome::render(records, &self.spans())
    }

    /// Snapshot of every op span, in `OpId` order (empty when no-op).
    pub fn spans(&self) -> Vec<OpSpan> {
        match &self.inner {
            Some(inner) => inner.spans.lock().snapshot(),
            None => Vec::new(),
        }
    }

    /// The largest per-op execution count seen (0 when no-op/empty).
    pub fn max_exec_count(&self) -> u32 {
        match &self.inner {
            Some(inner) => inner.spans.lock().max_exec_count(),
            None => 0,
        }
    }

    /// Committed-op count (0 when no-op).
    pub fn ops_committed(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ops_committed.get())
    }

    /// Async-path committed-op count (subset of [`Self::ops_committed`];
    /// 0 when no-op).
    pub fn ops_committed_async(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.ops_committed_async.get())
    }

    /// Number of commit-lag samples (equals [`Self::ops_committed`] by
    /// construction; 0 when no-op).
    pub fn commit_lag_count(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.commit_lag_us.count())
    }

    /// `Cross`-routed commit count (0 when no-op or no plan installed).
    pub fn cross_routes(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.cross_routes.get())
    }

    /// Per-shard committed-op counts, sorted by shard label (empty when
    /// no-op or no shard plan was installed).
    pub fn shard_ops(&self) -> Vec<(String, u64)> {
        match &self.inner {
            Some(inner) => inner
                .shard_ops
                .lock()
                .iter()
                .map(|(label, c)| (label.clone(), c.get()))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Number of exec-count samples strictly above `n` (0 when no-op).
    pub fn exec_count_above(&self, n: u64) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.exec_count.count_above(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(m: u32, seq: u64) -> OpId {
        OpId::new(MachineId::new(m), seq)
    }

    #[test]
    fn noop_records_nothing_and_exports_empty() {
        let t = Telemetry::noop();
        t.op_issued(op(0, 0), Some(SimTime::ZERO));
        t.op_committed(op(0, 0), 0, 1, SimTime::ZERO);
        t.round_finished(
            SimTime::from_millis(1),
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_millis(1),
            0,
            0,
        );
        assert!(!t.enabled());
        assert_eq!(t.render_prometheus(), "");
        assert_eq!(t.render_json(), "{\"metrics\":[]}");
        assert!(t.spans().is_empty());
        assert_eq!(t.ops_committed(), 0);
    }

    #[test]
    fn clones_share_instruments() {
        let t = Telemetry::new();
        let u = t.clone();
        t.op_issued(op(0, 0), Some(SimTime::from_millis(1)));
        u.op_committed(op(0, 0), 0, 2, SimTime::from_millis(9));
        assert_eq!(t.ops_committed(), 1);
        assert_eq!(t.commit_lag_count(), 1);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.max_exec_count(), 2);
    }

    #[test]
    fn commit_lag_count_matches_committed_even_untimed() {
        let t = Telemetry::new();
        t.op_issued(op(0, 0), None); // untimed issue → zero-lag sample
        t.op_committed(op(0, 0), 0, 1, SimTime::from_millis(5));
        t.op_issued(op(0, 1), Some(SimTime::from_millis(2)));
        t.op_committed(op(0, 1), 1, 1, SimTime::from_millis(9));
        assert_eq!(t.ops_committed(), 2);
        assert_eq!(t.commit_lag_count(), 2);
    }

    #[test]
    #[should_panic(expected = "executed 4 times")]
    fn exec_bound_violation_panics() {
        let t = Telemetry::new();
        t.op_committed(op(0, 0), 0, 4, SimTime::ZERO);
    }

    #[test]
    fn async_commits_split_the_lag_but_share_the_totals() {
        let t = Telemetry::new();
        // One round-path commit, one async-path commit.
        t.op_issued(op(0, 0), Some(SimTime::from_millis(1)));
        t.op_committed(op(0, 0), 2, 3, SimTime::from_millis(101));
        t.op_issued(op(0, 1), Some(SimTime::from_millis(4)));
        t.op_committed_async(op(0, 1), 2, SimTime::from_millis(4));
        // The combined accounting invariant holds across both paths...
        assert_eq!(t.ops_committed(), 2);
        assert_eq!(t.commit_lag_count(), 2);
        // ...and the async subset is tracked separately.
        assert_eq!(t.ops_committed_async(), 1);
        let spans = t.spans();
        let s = spans.iter().find(|s| s.op == op(0, 1)).unwrap();
        assert!(s.committed_async);
        assert_eq!(s.commit_round, None);
        assert_eq!(s.commit_lag(), Some(SimTime::ZERO));
        assert!(
            !spans
                .iter()
                .find(|s| s.op == op(0, 0))
                .unwrap()
                .committed_async
        );
    }

    #[test]
    fn debug_shows_enabled_state() {
        assert!(format!("{:?}", Telemetry::noop()).contains("enabled: false"));
        assert!(format!("{:?}", Telemetry::new()).contains("enabled: true"));
    }
}
