//! Per-app shard-balance summaries for the figure binaries.
//!
//! Re-runs the shard-partition analysis (`guesstimate-analysis`, see
//! docs/ANALYSIS.md "Shard plans"), routes every enumerated argument case
//! of every method through each app's derived plan, and reports how the
//! operation population spreads across shards: shard count, per-shard op
//! share, and the cross-shard fraction. The fig5/fig6 binaries print these
//! rows as a footer, and the `shards.*` keys of `tests/fingerprint.txt` pin
//! them.

use guesstimate_analysis::harness::analyze_all_apps;

/// One app's shard-balance tally: how the analysis suite's operation
/// population distributes over the app's derived shard plan.
#[derive(Debug, Clone)]
pub struct ShardBalanceRow {
    /// The app's registered type name.
    pub app: String,
    /// `(shard label, ops routed there)`, sorted by label; the `"cross"`
    /// label holds cross-shard operations.
    pub per_shard: Vec<(String, u64)>,
}

impl ShardBalanceRow {
    /// Total operations routed.
    pub fn total(&self) -> u64 {
        self.per_shard.iter().map(|(_, n)| n).sum()
    }

    /// Operations that routed cross-shard.
    pub fn cross_ops(&self) -> u64 {
        self.per_shard
            .iter()
            .filter(|(s, _)| s == "cross")
            .map(|(_, n)| *n)
            .sum()
    }

    /// Distinct local shards the population touched (excludes `"cross"`).
    pub fn shard_count(&self) -> usize {
        self.per_shard.iter().filter(|(s, _)| s != "cross").count()
    }

    /// Fraction of operations that routed cross-shard, in `[0, 1]`.
    pub fn cross_fraction(&self) -> f64 {
        self.cross_ops() as f64 / self.total().max(1) as f64
    }

    /// The largest single local shard's share of the population.
    pub fn max_share(&self) -> f64 {
        self.per_shard
            .iter()
            .filter(|(s, _)| s != "cross")
            .map(|(_, n)| *n as f64 / self.total().max(1) as f64)
            .fold(0.0, f64::max)
    }
}

/// Derives each bundled app's shard plan and tallies its shard balance, in
/// the canonical app order.
pub fn shard_balance_rows() -> Vec<ShardBalanceRow> {
    analyze_all_apps()
        .iter()
        .map(|a| {
            let plan = a.derive_shard_plan();
            ShardBalanceRow {
                app: a.report.type_name.clone(),
                per_shard: a.shard_balance(&plan),
            }
        })
        .collect()
}

/// Renders the rows as `#`-prefixed summary lines (the figure binaries'
/// footer idiom): one line per app with shard count, cross-shard fraction,
/// and every local shard's op share.
pub fn render_shard_balance(rows: &[ShardBalanceRow]) -> String {
    let mut out = String::new();
    out.push_str("# shard balance (derived plans routed over the analysis arg spaces):\n");
    for r in rows {
        let shares: Vec<String> = r
            .per_shard
            .iter()
            .filter(|(s, _)| s != "cross")
            .map(|(s, n)| format!("{s}={:.1}%", 100.0 * *n as f64 / r.total().max(1) as f64))
            .collect();
        out.push_str(&format!(
            "#   {:<14} shards={:<2} cross={:>5.1}%  {}\n",
            r.app,
            r.shard_count(),
            100.0 * r.cross_fraction(),
            shares.join(" ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_all_apps_and_only_carpool_crosses() {
        let rows = shard_balance_rows();
        assert_eq!(rows.len(), 6, "one row per bundled app");
        for r in &rows {
            assert!(r.total() > 0, "{}: empty op population", r.app);
            assert!(r.shard_count() >= 1, "{}: no local shard", r.app);
        }
        let crossing: Vec<&str> = rows
            .iter()
            .filter(|r| r.cross_ops() > 0)
            .map(|r| r.app.as_str())
            .collect();
        // The derived plans' only cross-shard route is CarPool's `board`
        // (it spans the vehicle and rider components).
        assert_eq!(crossing, ["CarPool"]);
        let rendered = render_shard_balance(&rows);
        assert!(rendered.contains("CarPool"), "{rendered}");
    }
}
