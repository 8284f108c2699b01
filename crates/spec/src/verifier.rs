//! The Boogie analog: bounded-exhaustive assertion classification.
//!
//! Boogie classifies Spec# assertions into "provably correct", "provably
//! failing" and "other" (which Spec# turns into runtime checks). Without a
//! theorem prover, we recover the same three-way split by *evaluation over
//! an enumerated case space*:
//!
//! * **Verified** — the assertion holds on every enumerated case *and* the
//!   enumeration was complete (the state and argument spaces were marked
//!   exhaustive and no cap was hit), so the evaluation constitutes a proof
//!   for the finite domain.
//! * **RuntimeCheck** — no counterexample, but the space was sampled or
//!   truncated; the assertion remains a runtime check (see
//!   [`crate::check_suite`]).
//! * **Refuted** — a counterexample was found.

use guesstimate_core::{execute, MachineId, ObjectId, ObjectStore, OpRegistry, SharedOp, Value};

use crate::contract::{ExecCase, SpecSuite};

/// The state space over which a suite is verified.
#[derive(Debug, Clone)]
pub struct CaseSpace {
    /// Canonical state snapshots to instantiate the object from.
    pub states: Vec<Value>,
    /// True if `states` covers the whole (abstracted) state space; required
    /// for a `Verified` classification.
    pub states_exhaustive: bool,
    /// Cap on `states × args` cases evaluated per assertion; exceeding it
    /// demotes survivors to `RuntimeCheck`.
    pub max_cases: usize,
}

impl CaseSpace {
    /// An exhaustive space over the given states.
    pub fn exhaustive(states: Vec<Value>) -> Self {
        CaseSpace {
            states,
            states_exhaustive: true,
            max_cases: usize::MAX,
        }
    }

    /// A sampled (non-exhaustive) space.
    pub fn sampled(states: Vec<Value>, max_cases: usize) -> Self {
        CaseSpace {
            states,
            states_exhaustive: false,
            max_cases,
        }
    }
}

/// Classification verdict for one assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Holds on all cases of a complete enumeration.
    Verified,
    /// No counterexample, but enumeration was incomplete.
    RuntimeCheck,
    /// Counterexample found.
    Refuted,
}

/// One classified assertion.
#[derive(Debug, Clone)]
pub struct ClassifiedAssertion {
    /// The method the assertion belongs to.
    pub method: String,
    /// The assertion's name (`frame`, `post`, `invariant`, or a domain
    /// assertion's name).
    pub name: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Cases evaluated.
    pub cases: usize,
    /// A counterexample, when refuted.
    pub counterexample: Option<ExecCase>,
}

/// The verifier's output for one suite.
#[derive(Debug, Clone, Default)]
pub struct VerificationReport {
    /// All classified assertions.
    pub assertions: Vec<ClassifiedAssertion>,
}

impl VerificationReport {
    /// Total number of assertions.
    pub fn total(&self) -> usize {
        self.assertions.len()
    }

    /// Number classified `Verified`.
    pub fn verified(&self) -> usize {
        self.count(Verdict::Verified)
    }

    /// Number left as runtime checks.
    pub fn runtime_checks(&self) -> usize {
        self.count(Verdict::RuntimeCheck)
    }

    /// Number refuted (compile-time warnings, in Spec# terms).
    pub fn refuted(&self) -> usize {
        self.count(Verdict::Refuted)
    }

    fn count(&self, v: Verdict) -> usize {
        self.assertions.iter().filter(|a| a.verdict == v).count()
    }

    /// Renders the per-method breakdown as an aligned text table
    /// (method, total, verified, runtime checks, refuted).
    pub fn format_table(&self) -> String {
        use std::collections::BTreeMap;
        use std::fmt::Write as _;
        let mut per: BTreeMap<&str, [usize; 4]> = BTreeMap::new();
        for a in &self.assertions {
            let row = per.entry(a.method.as_str()).or_default();
            row[0] += 1;
            match a.verdict {
                Verdict::Verified => row[1] += 1,
                Verdict::RuntimeCheck => row[2] += 1,
                Verdict::Refuted => row[3] += 1,
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>9} {:>15} {:>8}",
            "method", "total", "verified", "runtime_checks", "refuted"
        );
        for (m, row) in &per {
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>9} {:>15} {:>8}",
                m, row[0], row[1], row[2], row[3]
            );
        }
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>9} {:>15} {:>8}",
            "TOTAL",
            self.total(),
            self.verified(),
            self.runtime_checks(),
            self.refuted()
        );
        out
    }
}

/// Verifies a [`SpecSuite`] against a registry over a case space.
///
/// For every method of the suite and every assertion attached to it
/// (the universal *frame* assertion, the *post* assertion when a
/// postcondition is present, the *invariant* assertion when a type- or
/// method-level invariant is present, and every named domain assertion),
/// enumerate `states ×` the method's declared argument space
/// ([`OpRegistry::arg_space`]), execute the real registered implementation
/// on a scratch object, and classify.
///
/// # Panics
///
/// Panics if the suite's type or one of its methods is not registered, or
/// the method declares no argument space — verification of unregistered
/// code is meaningless.
pub fn verify_suite(
    registry: &OpRegistry,
    suite: &SpecSuite,
    space: &CaseSpace,
) -> VerificationReport {
    assert!(
        registry.has_type(&suite.type_name),
        "verify_suite: type {:?} not registered",
        suite.type_name
    );
    let scratch_id = ObjectId::new(MachineId::new(u32::MAX), u64::MAX);
    let mut report = VerificationReport::default();
    for method in &suite.methods {
        assert!(
            registry.has_method(&suite.type_name, &method.method),
            "verify_suite: method {:?} not registered for {:?}",
            method.method,
            suite.type_name
        );
        let args = registry
            .arg_space(&suite.type_name, &method.method)
            .unwrap_or_else(|| {
                panic!(
                    "verify_suite: method {:?} of {:?} declares no argument space",
                    method.method, suite.type_name
                )
            });
        // Enumerate all cases once per method, then evaluate every
        // assertion against them.
        let mut cases: Vec<ExecCase> = Vec::new();
        let mut truncated = false;
        'outer: for state in &space.states {
            for argv in &args.cases {
                if cases.len() >= space.max_cases {
                    truncated = true;
                    break 'outer;
                }
                let mut obj = registry
                    .construct(&suite.type_name)
                    .expect("type registered");
                if obj.restore(state).is_err() {
                    // Malformed state in the space: skip rather than crash.
                    continue;
                }
                let mut store = ObjectStore::new();
                store.insert(scratch_id, obj);
                let op = SharedOp::primitive(scratch_id, method.method.clone(), argv.clone());
                let result = execute(&op, &mut store, registry)
                    .expect("registered method")
                    .is_success();
                let post = store.get(scratch_id).expect("object present").snapshot();
                cases.push(ExecCase {
                    pre: state.clone(),
                    args: argv.clone(),
                    result,
                    post,
                });
            }
        }
        let complete = space.states_exhaustive && args.exhaustive && !truncated;
        // State-independent assertions only need the argument space to be
        // complete (they never read the state).
        let complete_si = args.exhaustive && !truncated;

        let mut classify = |name: &str, pred: &dyn Fn(&ExecCase) -> bool, si: bool| {
            let counterexample = cases.iter().find(|c| !pred(c)).cloned();
            let complete = if si { complete_si } else { complete };
            let verdict = match (&counterexample, complete) {
                (Some(_), _) => Verdict::Refuted,
                (None, true) => Verdict::Verified,
                (None, false) => Verdict::RuntimeCheck,
            };
            report.assertions.push(ClassifiedAssertion {
                method: method.method.clone(),
                name: name.to_owned(),
                verdict,
                cases: cases.len(),
                counterexample,
            });
        };

        // Universal frame condition.
        classify("frame", &|c: &ExecCase| c.result || c.pre == c.post, false);
        // Postcondition.
        if let Some(post) = &method.contract.post {
            classify(
                "post",
                &|c: &ExecCase| !c.result || post(&c.pre, &c.post, &c.args),
                false,
            );
        }
        // Invariant (method-level overrides type-level).
        let inv = method
            .contract
            .invariant
            .clone()
            .or_else(|| suite.invariant.as_ref().map(|i| i.pred.clone()));
        if let Some(inv) = inv {
            classify(
                "invariant",
                &|c: &ExecCase| !inv(&c.pre) || inv(&c.post),
                false,
            );
        }
        // Domain assertions.
        for a in &method.contract.assertions {
            classify(
                a.name(),
                &|c: &ExecCase| a.holds(c),
                a.is_state_independent(),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{MethodContract, MethodSpec};
    use guesstimate_core::{args, EffectSpec, Footprint, GState, RestoreError};

    #[derive(Clone, Default)]
    struct Bin(i64);
    impl GState for Bin {
        const TYPE_NAME: &'static str = "Bin";
        fn snapshot(&self) -> Value {
            Value::from(self.0)
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            self.0 = v.as_i64().ok_or_else(|| RestoreError::shape("i64"))?;
            Ok(())
        }
    }

    fn all_args() -> Vec<Vec<Value>> {
        (0..=3).map(|d| args![d]).collect()
    }

    /// No footprint; the argument space `0..=3`.
    fn over_all_args() -> EffectSpec {
        EffectSpec::new(|_| Footprint::new()).over(all_args)
    }

    fn registry() -> OpRegistry {
        registry_with(over_all_args())
    }

    /// `put` declares `put`; `leaky` the whole argument space.
    fn registry_with(put: EffectSpec) -> OpRegistry {
        let mut r = OpRegistry::new();
        r.register_type::<Bin>();
        // put(d): capacity 3; correct implementation.
        r.register_with_effects::<Bin>("put", put, |b, a| {
            let Some(d) = a.i64(0) else { return false };
            if d < 0 || b.0 + d > 3 {
                return false;
            }
            b.0 += d;
            true
        });
        // leaky(d): BUG — mutates then fails for d == 2.
        r.register_with_effects::<Bin>("leaky", over_all_args(), |b, a| {
            let Some(d) = a.i64(0) else { return false };
            b.0 += d;
            if d == 2 {
                return false;
            }
            true
        });
        r
    }

    fn full_space() -> CaseSpace {
        CaseSpace::exhaustive((0..=3).map(Value::from).collect())
    }

    #[test]
    fn correct_method_is_fully_verified() {
        let suite = SpecSuite::new("Bin")
            .with_invariant("0 <= n <= 3", |s| {
                (0..=3).contains(&s.as_i64().unwrap_or(-1))
            })
            .with_method(MethodSpec::new(
                "put",
                MethodContract::new().with_post(|pre, post, a| {
                    post.as_i64() == pre.as_i64().zip(a[0].as_i64()).map(|(x, y)| x + y)
                }),
            ));
        let report = verify_suite(&registry(), &suite, &full_space());
        assert_eq!(report.total(), 3); // frame + post + invariant
        assert_eq!(report.verified(), 3);
        assert_eq!(report.refuted(), 0);
        assert_eq!(report.runtime_checks(), 0);
    }

    #[test]
    fn buggy_method_is_refuted_with_counterexample() {
        let suite =
            SpecSuite::new("Bin").with_method(MethodSpec::new("leaky", MethodContract::new()));
        let report = verify_suite(&registry(), &suite, &full_space());
        let frame = &report.assertions[0];
        assert_eq!(frame.verdict, Verdict::Refuted);
        let ce = frame.counterexample.as_ref().unwrap();
        assert_eq!(ce.args, args![2]);
        assert!(!ce.result);
        assert_ne!(ce.pre, ce.post);
    }

    #[test]
    fn sampled_space_demotes_to_runtime_check() {
        let space = CaseSpace::sampled((0..=3).map(Value::from).collect(), 1_000);
        let suite =
            SpecSuite::new("Bin").with_method(MethodSpec::new("put", MethodContract::new()));
        let report = verify_suite(&registry(), &suite, &space);
        assert_eq!(report.runtime_checks(), 1);
        assert_eq!(report.verified(), 0);
    }

    #[test]
    fn case_cap_truncates_and_demotes() {
        let mut space = full_space();
        space.max_cases = 2;
        let suite =
            SpecSuite::new("Bin").with_method(MethodSpec::new("put", MethodContract::new()));
        let report = verify_suite(&registry(), &suite, &space);
        assert_eq!(report.assertions[0].cases, 2);
        assert_eq!(report.runtime_checks(), 1);
    }

    #[test]
    fn non_exhaustive_args_demote() {
        let suite =
            SpecSuite::new("Bin").with_method(MethodSpec::new("put", MethodContract::new()));
        let sampled = over_all_args().sampled();
        let report = verify_suite(&registry_with(sampled), &suite, &full_space());
        assert_eq!(report.runtime_checks(), 1);
    }

    #[test]
    fn domain_assertions_are_counted_and_named() {
        let suite = SpecSuite::new("Bin").with_method(MethodSpec::new(
            "put",
            MethodContract::new()
                .with_assertion("never-decreases", |c| {
                    !c.result || c.post.as_i64() >= c.pre.as_i64()
                })
                .with_assertion("bogus-always-zero", |c| c.post.as_i64() == Some(0)),
        ));
        let report = verify_suite(&registry(), &suite, &full_space());
        assert_eq!(report.total(), 3); // frame + 2 domain
        let by_name: std::collections::HashMap<_, _> = report
            .assertions
            .iter()
            .map(|a| (a.name.clone(), a.verdict))
            .collect();
        assert_eq!(by_name["never-decreases"], Verdict::Verified);
        assert_eq!(by_name["bogus-always-zero"], Verdict::Refuted);
        assert_eq!(by_name["frame"], Verdict::Verified);
    }

    #[test]
    fn format_table_breaks_down_per_method() {
        let suite = SpecSuite::new("Bin")
            .with_method(MethodSpec::new("put", MethodContract::new()))
            .with_method(MethodSpec::new("leaky", MethodContract::new()));
        let report = verify_suite(&registry(), &suite, &full_space());
        let table = report.format_table();
        assert!(table.contains("put"));
        assert!(table.contains("leaky"));
        assert!(table.contains("TOTAL"));
        assert_eq!(table.lines().count(), 4, "header + 2 methods + total");
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_method_panics() {
        let suite =
            SpecSuite::new("Bin").with_method(MethodSpec::new("ghost", MethodContract::new()));
        verify_suite(&registry(), &suite, &full_space());
    }

    #[test]
    fn malformed_states_are_skipped() {
        let space = CaseSpace::exhaustive(vec![Value::from("not an int"), Value::from(1)]);
        let suite =
            SpecSuite::new("Bin").with_method(MethodSpec::new("put", MethodContract::new()));
        let report = verify_suite(&registry(), &suite, &space);
        assert_eq!(report.assertions[0].cases, all_args().len());
    }
}
