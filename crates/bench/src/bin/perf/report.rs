//! Turns what a run measured into named metrics.

use std::collections::BTreeMap;

use crate::drive::{IssueCall, Measured};
use crate::observe::TIMER_SPAN;
use crate::stats::{mean, percentile, percentile_of, self_times_ns, Metric, Span};

/// Handler kinds that get a per-commit row of their own.
const KINDS: [&str; 7] = [
    "begin_sync",
    "ops",
    "flush_done",
    "begin_apply",
    "ack",
    "sync_complete",
    "async_op",
];

/// Issue calls written to the span file; the rest only count in the
/// aggregates (a saturated run makes hundreds of thousands).
const ISSUE_SPANS_WRITTEN: usize = 20_000;

fn per(total: f64, commits: u64) -> f64 {
    if commits == 0 {
        0.0
    } else {
        total / commits as f64
    }
}

fn pct_slower(reference_ops_per_s: f64, ops_per_s: f64) -> f64 {
    if reference_ops_per_s > 0.0 {
        (reference_ops_per_s - ops_per_s) / reference_ops_per_s * 100.0
    } else {
        0.0
    }
}

/// Operations committed everywhere per second of window.
pub fn ops_per_s(m: &Measured) -> f64 {
    if m.window_s > 0.0 {
        m.commits as f64 / m.window_s
    } else {
        0.0
    }
}

fn quantile(sorted: &[f64], p: f64) -> f64 {
    percentile(sorted, p).unwrap_or(0.0)
}

fn sync_ms(m: &Measured) -> Vec<f64> {
    m.sync.iter().map(|s| s.duration.as_millis_f64()).collect()
}

/// The end-to-end metrics of one untraced window.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", m.setup_s, "s"),
        Metric::new("commit_ops_per_s", ops_per_s(m), "ops/s"),
        Metric::new("commit_lag_p50_ms", quantile(&m.lag_ms, 0.5), "ms"),
        Metric::new("sync_p50_ms", percentile_of(&mut sync_ms(m), 0.5), "ms"),
    ]
}

/// The runs a `--trace` pass makes besides the traced one.
pub struct Companions<'a> {
    /// Same load, nothing installed: the tracing-overhead reference.
    pub untraced: &'a Measured,
    /// Same load with a live telemetry handle.
    pub telemetry: &'a Measured,
    /// Same load with a recording tracer.
    pub tracer: &'a Measured,
    /// The workload on a one-replica cluster.
    pub solo: &'a Measured,
    /// One sync group through the multi-group wrapper, and the same load
    /// on a bare machine (multi-group workloads only).
    pub wrapper_pair: Option<(&'a Measured, &'a Measured)>,
}

/// The source-A per-layer metrics: everything derived from the traced
/// cluster run and its companions.
pub fn per_layer(t: &Measured, c: &Companions<'_>) -> Vec<Metric> {
    let commits = t.commits;
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };

    // Handler time, by callback kind. Self time: once spans exist inside
    // the program they become children of these and are charged apart.
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in t.handler_spans.iter().zip(self_times_ns(&t.handler_spans)) {
        by_name
            .entry(s.name)
            .or_default()
            .push(self_ns as f64 / 1e3);
    }
    let total_us = |name: &str| by_name.get(name).map_or(0.0, |v| v.iter().sum());
    let handler_us: f64 = by_name.values().flatten().sum();
    let handler_per_commit = per(handler_us, commits);
    push("runtime.handler_us_per_commit", handler_per_commit, "us");
    for kind in KINDS {
        let span = format!("runtime.on_message.{kind}");
        push(
            &format!("{span}_us_per_commit"),
            per(total_us(&span), commits),
            "us",
        );
    }
    push(
        "runtime.on_timer_us_per_commit",
        per(total_us(TIMER_SPAN), commits),
        "us",
    );
    let mut apply = by_name
        .remove("runtime.on_message.begin_apply")
        .unwrap_or_default();
    push(
        "runtime.on_message.begin_apply_us_p50",
        percentile_of(&mut apply, 0.5),
        "us",
    );

    // What the handlers do not account for: mesh bookkeeping, injected
    // delay and idle time. By construction handler + residual is exactly
    // window ÷ commits.
    let window_per_commit = per(t.window_s * 1e6, commits);
    let residual = window_per_commit - handler_per_commit;
    push("net.residual_us_per_commit", residual, "us");
    let share = if window_per_commit > 0.0 {
        residual / window_per_commit * 100.0
    } else {
        0.0
    };
    push("net.residual_share_pct", share, "%");
    push(
        "net.msgs_per_commit",
        per(t.net.sent as f64, commits),
        "count",
    );
    push(
        "net.bytes_per_commit",
        per(t.net.bytes_sent as f64, commits),
        "B_modelled",
    );
    push(
        "net.timers_per_commit",
        per(t.net.timers_fired as f64, commits),
        "count",
    );

    // Rounds, as the masters saw them.
    let rounds = t.sync.len() as f64;
    let sum = |f: fn(&guesstimate_runtime::SyncSample) -> f64| t.sync.iter().map(f).sum::<f64>();
    let duration_us = sum(|s| s.duration.as_micros() as f64);
    let stage_share = |stage_us: f64| {
        if duration_us > 0.0 {
            stage_us / duration_us
        } else {
            0.0
        }
    };
    push(
        "runtime.ops_per_round",
        if rounds > 0.0 {
            sum(|s| s.ops_committed as f64) / rounds
        } else {
            0.0
        },
        "count",
    );
    push(
        "runtime.rounds_per_s",
        if t.window_s > 0.0 {
            rounds / t.window_s
        } else {
            0.0
        },
        "1/s",
    );
    push(
        "runtime.sync_flush_share",
        stage_share(sum(|s| s.flush_duration.as_micros() as f64)),
        "ratio",
    );
    push(
        "runtime.sync_apply_share",
        stage_share(sum(|s| s.apply_duration.as_micros() as f64)),
        "ratio",
    );
    push(
        "runtime.roles.removals",
        sum(|s| s.removals as f64),
        "count",
    );
    push("runtime.roles.resends", sum(|s| s.resends as f64), "count");

    // Re-execution.
    push(
        "runtime.replays_per_commit",
        per(t.counters.replays as f64, commits),
        "count",
    );
    push(
        "runtime.replays_skipped_per_commit",
        per(t.counters.replays_skipped as f64, commits),
        "count",
    );
    push(
        "runtime.max_pending_depth",
        t.counters.max_pending_depth as f64,
        "count",
    );
    push(
        "runtime.exec_count_max",
        f64::from(t.counters.max_exec_count),
        "count",
    );

    // The non-blocking promise: what an issue call costs its caller.
    let mut call_us: Vec<f64> = t
        .issue_calls
        .iter()
        .map(|c| call_ns(c) as f64 / 1e3)
        .collect();
    let lock_us: Vec<f64> = t
        .issue_calls
        .iter()
        .map(|c| f64::from(c.lock_ns) / 1e3)
        .collect();
    push("runtime.issue_call_mean_us", mean(&call_us), "us");
    push(
        "runtime.issue_call_p99_us",
        percentile_of(&mut call_us, 0.99),
        "us",
    );
    push("net.handle_lock_wait_mean_us", mean(&lock_us), "us");

    // Commit lag, taken apart.
    push(
        "runtime.issuer_commit_lag_p50_ms",
        quantile(&t.issuer_lag_ms, 0.5),
        "ms",
    );
    push(
        "runtime.commit_skew_p50_ms",
        quantile(&t.skew_ms, 0.5),
        "ms",
    );
    push("runtime.commit_lag_p95_ms", quantile(&t.lag_ms, 0.95), "ms");
    push("runtime.commit_lag_p99_ms", quantile(&t.lag_ms, 0.99), "ms");

    // The async path.
    let async_own = t.counters.committed_async_own;
    let async_share = per(async_own as f64, t.counters.committed_own);
    push("runtime.hybrid.async_share", async_share, "ratio");
    let bytes_per_async = if async_own > 0 {
        per(t.net.bytes_sent as f64, async_own)
    } else {
        0.0
    };
    push(
        "runtime.hybrid.bytes_per_async_op",
        bytes_per_async,
        "B_modelled",
    );

    // Multi-group dispatch.
    let mut cross = t.cross_lag_ms.clone();
    push(
        "runtime.multigroup.handler_us_per_commit",
        if t.logs > 1 { handler_per_commit } else { 0.0 },
        "us",
    );
    push(
        "runtime.multigroup.cross_lag_p50_ms",
        percentile_of(&mut cross, 0.5),
        "ms",
    );
    push(
        "runtime.multigroup.cross_resolved",
        t.cross_resolved as f64,
        "count",
    );
    let wrapper_cost = c.wrapper_pair.map_or(0.0, |(wrapped, bare)| {
        pct_slower(ops_per_s(bare), ops_per_s(wrapped))
    });
    push("runtime.multigroup.wrapper_cost_pct", wrapper_cost, "%");

    // Membership under churn.
    let mut rejoin = t.rejoin_ms.clone();
    push(
        "runtime.membership.rejoin_ms_p50",
        percentile_of(&mut rejoin, 0.5),
        "ms",
    );
    push(
        "runtime.membership.join_info_bytes",
        t.join_info_bytes as f64,
        "B_modelled",
    );

    // The harness itself, and the observability layers' cost.
    push("bench.cpu_us_per_commit", per(t.cpu_s * 1e6, commits), "us");
    let reference = ops_per_s(c.untraced);
    push(
        "bench.trace_overhead_pct",
        pct_slower(reference, ops_per_s(t)),
        "%",
    );
    push(
        "telemetry.overhead_pct",
        pct_slower(reference, ops_per_s(c.telemetry)),
        "%",
    );
    push(
        "obs.tracer_overhead_pct",
        pct_slower(reference, ops_per_s(c.tracer)),
        "%",
    );
    push(
        "bench.generator_late_max_ms",
        t.late_ms.last().copied().unwrap_or(0.0),
        "ms",
    );
    push(
        "bench.generator_late_p99_ms",
        quantile(&t.late_ms, 0.99),
        "ms",
    );

    // The single-node baseline.
    push(
        "runtime.solo_commit_lag_p50_ms",
        quantile(&c.solo.lag_ms, 0.5),
        "ms",
    );
    push("runtime.solo_ops_per_s", ops_per_s(c.solo), "ops/s");
    out
}

fn call_ns(c: &IssueCall) -> u64 {
    u64::from(c.lock_ns) + u64::from(c.inside_ns) + u64::from(c.route_ns)
}

/// The span file of a traced run: every handler span, then the first
/// issue calls, each as a parent with its three parts as children.
pub fn trace_spans(t: &Measured) -> Vec<Span> {
    let mut spans = t.handler_spans.clone();
    for (n, c) in t.issue_calls.iter().take(ISSUE_SPANS_WRITTEN).enumerate() {
        let parent = spans.len();
        let entered = c.start_ns + u64::from(c.lock_ns);
        let left = entered + u64::from(c.inside_ns);
        let end = c.start_ns + call_ns(c);
        let parts = [
            ("runtime.issue", c.start_ns, end, None),
            ("net.issue.lock_wait", c.start_ns, entered, Some(parent)),
            ("runtime.issue.inside", entered, left, Some(parent)),
            ("net.issue.route", left, end, Some(parent)),
        ];
        for (name, start_ns, end_ns, parent) in parts {
            spans.push(Span {
                name,
                replica: c.replica,
                start_ns,
                end_ns,
                parent,
                id: n as u64,
            });
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_call_parts_cover_their_parent() {
        let t = Measured {
            issue_calls: vec![IssueCall {
                replica: 2,
                start_ns: 1_000,
                lock_ns: 40,
                inside_ns: 500,
                route_ns: 60,
            }],
            ..Measured::default()
        };
        let spans = trace_spans(&t);
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (1_000, 1_600));
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        // The three parts tile the call, so the parent has no self time.
        assert_eq!(self_times_ns(&spans), vec![0, 40, 500, 60]);
    }

    #[test]
    fn handler_plus_residual_is_window_per_commit() {
        let span = |name, start_ns, end_ns| Span {
            name,
            replica: 0,
            start_ns,
            end_ns,
            parent: None,
            id: 1,
        };
        let t = Measured {
            commits: 4,
            window_s: 0.001,
            handler_spans: vec![
                span("runtime.on_message.begin_apply", 0, 100_000),
                span("runtime.on_message.ops", 200_000, 220_000),
                span(TIMER_SPAN, 300_000, 304_000),
            ],
            ..Measured::default()
        };
        let empty = Measured::default();
        let c = Companions {
            untraced: &empty,
            telemetry: &empty,
            tracer: &empty,
            solo: &empty,
            wrapper_pair: None,
        };
        let metrics = per_layer(&t, &c);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).expect(name).value;
        assert_eq!(get("runtime.handler_us_per_commit"), 31.0);
        assert_eq!(get("runtime.on_message.begin_apply_us_per_commit"), 25.0);
        assert_eq!(get("runtime.on_timer_us_per_commit"), 1.0);
        assert_eq!(get("runtime.on_message.begin_apply_us_p50"), 100.0);
        assert_eq!(
            get("runtime.handler_us_per_commit") + get("net.residual_us_per_commit"),
            250.0
        );
        assert_eq!(get("runtime.multigroup.handler_us_per_commit"), 0.0);
    }
}
