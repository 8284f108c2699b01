//! Order statistics, span self-time and the result-line writer.

use std::fmt::Write as _;

/// The `p`-quantile (0 ≤ p ≤ 1) of an ascending slice, interpolating
/// linearly between the two closest ranks. `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = p.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Sorts `values` and returns its `p`-quantile (0 when empty: a metric
/// with no samples on a workload reads 0, never NaN).
pub fn percentile_of(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, p).unwrap_or(0.0)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method) — the acceptance driver measures run-to-run spread with that
/// function, so `--repeat` must agree with it. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// One traced interval. `parent` indexes the slice the span lives in.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `runtime.on_message.begin_apply`.
    pub name: &'static str,
    /// Replica the callback or call ran on.
    pub replica: u32,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Round number (handler spans) or per-replica op number (issue spans).
    pub id: u64,
}

impl Span {
    /// Wall-clock length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time per span: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut upto) = (0, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(upto);
                if hi > lo {
                    covered += hi - lo;
                    upto = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// How late an open-loop request left, in nanoseconds: zero when the
/// generator was on or ahead of schedule.
pub fn lateness_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name: letters, digits, `_`, `.`, `-`.
    pub name: String,
    /// Measured value, all digits kept.
    pub value: f64,
    /// Unit, e.g. `ms`, `ops/s`.
    pub unit: &'static str,
}

impl Metric {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// True if `name` fits the benchmark contract: starts with a letter or
/// digit, at most 64 of letters, digits, `_`, `.`, `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A JSON number: non-finite values have no JSON form and read 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The one-line result object the driver parses: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            guesstimate_core::json::escape(&m.name),
            json_number(m.value),
            guesstimate_core::json::escape(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// Renders spans as a JSON array, one object per line.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"replica\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}",
            s.name, s.replica, s.start_ns, s.end_ns, s.id
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use guesstimate_core::json::Json;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 0.5), Some(30.0));
        assert_eq!(percentile(&v, 1.0), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(48.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        let mut unsorted = [3.0, 1.0, 2.0];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 2.0);
        assert_eq!(percentile_of(&mut [], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            replica: 0,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps the previous child
            span(90, 120, Some(0)), // sticks out past the parent
            span(12, 18, Some(1)),  // grandchild: charged to span 1 only
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn open_loop_lateness_never_goes_negative() {
        assert_eq!(lateness_ns(1_000, 1_250), 250);
        assert_eq!(lateness_ns(1_000, 1_000), 0);
        assert_eq!(lateness_ns(1_000, 900), 0);
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric::new("commit_lag_p50_ms", 8.25, "ms"),
                Metric::new("setup_s", f64::NAN, "s"),
            ],
        );
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).expect("valid JSON");
        let keys: Vec<&String> = j.as_map().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(12));
        let m = j.get("metrics").expect("metrics");
        let lag = m.get("commit_lag_p50_ms").expect("lag");
        assert_eq!(lag.get("value").and_then(Json::as_f64), Some(8.25));
        assert_eq!(lag.get("unit").and_then(Json::as_str), Some("ms"));
        let setup = m.get("setup_s").expect("setup");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn span_file_parses_back() {
        let spans = [span(1, 5, None), span(2, 3, Some(0))];
        let j = Json::parse(&spans_json(&spans)).expect("valid JSON");
        let list = j.as_list().expect("array");
        assert_eq!(list.len(), 2);
        assert_eq!(list[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(
            Json::parse(&spans_json(&[]))
                .unwrap()
                .as_list()
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn metric_names_follow_the_contract() {
        assert!(valid_metric_name("runtime.on_message.begin_apply_us_p50"));
        assert!(valid_metric_name("9lives-x_y"));
        assert!(!valid_metric_name(".leading"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("ops/s"));
        assert!(!valid_metric_name(&"x".repeat(65)));
        assert!(!valid_metric_name(""));
    }
}
