//! The analysis harness: every row of `guesstimate_apps::all()` — its
//! registry, its representative states and its suite's argument spaces —
//! analyzed and packaged so the `analyze` binary, the bench crate's
//! shard-balance summaries, and tests all drive the identical configuration.

use guesstimate_apps::App;
use guesstimate_core::{OpRegistry, ShardPlan, TypePlan};
use guesstimate_spec::CaseSpace;

use crate::shard::{derive_type_plan, sanitize_type_plan, witness_check_type_plan};
use crate::{analyze_app, method_spaces_from_suite, AppReport, MethodSpace};

/// Case cap per method (sanitizers) and per pair (commutation check).
pub const MAX_CASES: usize = 4_000;

/// Everything one app's analysis run consumed and produced — enough to
/// derive and validate its shard plan without re-running the pass.
#[derive(Debug)]
pub struct AppAnalysis {
    /// The registry with the app's type and methods registered.
    pub registry: OpRegistry,
    /// The analyzed argument spaces.
    pub spaces: Vec<MethodSpace>,
    /// The state enumeration and case cap.
    pub case_space: CaseSpace,
    /// The analysis report.
    pub report: AppReport,
}

impl AppAnalysis {
    /// Derives the app's shard plan from its report (see
    /// [`crate::shard::derive_type_plan`]).
    pub fn derive_shard_plan(&self) -> TypePlan {
        derive_type_plan(
            &self.registry,
            &self.report.type_name,
            &self.spaces,
            &self.report,
        )
    }

    /// Runs the static plan sanitizer (see
    /// [`crate::shard::sanitize_type_plan`]).
    pub fn sanitize_shard_plan(&self, plan: &TypePlan) -> Vec<String> {
        sanitize_type_plan(&self.registry, &self.report.type_name, plan)
    }

    /// Runs the witness-backed shard escape check (see
    /// [`crate::shard::witness_check_type_plan`]).
    pub fn witness_check_shard_plan(&self, plan: &TypePlan) -> Vec<String> {
        witness_check_type_plan(
            &self.registry,
            &self.report.type_name,
            plan,
            &self.spaces,
            &self.case_space,
        )
    }

    /// Routes every enumerated argument case of every analyzed method
    /// through `plan` and tallies operations per shard — the raw material
    /// of the bench crate's shard-balance summary (shard count, per-shard
    /// op share, cross-shard fraction). Labels are
    /// [`guesstimate_core::ShardId`] renderings (`"cross"` for cross-shard
    /// routes), sorted.
    pub fn shard_balance(&self, plan: &TypePlan) -> Vec<(String, u64)> {
        let mut full = ShardPlan::new();
        full.types
            .insert(self.report.type_name.clone(), plan.clone());
        let mut counts: std::collections::BTreeMap<String, u64> = Default::default();
        for space in &self.spaces {
            for case in &space.args {
                let shard = full.route_primitive(&self.report.type_name, &space.method, case);
                *counts.entry(shard.to_string()).or_insert(0) += 1;
            }
        }
        counts.into_iter().collect()
    }
}

/// Analyzes one application: its suite's argument spaces over its
/// representative states.
pub fn analyze(app: &App) -> AppAnalysis {
    let registry = app.registry();
    let spaces = method_spaces_from_suite(&(app.spec_suite)());
    let case_space = CaseSpace::sampled((app.states)(), MAX_CASES);
    let report = analyze_app(&registry, app.type_name, &spaces, &case_space);
    AppAnalysis {
        registry,
        spaces,
        case_space,
        report,
    }
}

/// Analyzes the Sudoku app.
pub fn analyze_sudoku() -> AppAnalysis {
    analyze(&guesstimate_apps::sudoku::APP)
}

/// Analyzes the message-board app.
pub fn analyze_message_board() -> AppAnalysis {
    analyze(&guesstimate_apps::message_board::APP)
}

/// Analyzes all six bundled apps, in the canonical order.
pub fn analyze_all_apps() -> Vec<AppAnalysis> {
    guesstimate_apps::all().iter().map(analyze).collect()
}
