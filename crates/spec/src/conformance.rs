//! Runtime conformance checking: the "runtime checks" half of Spec#.
//!
//! [`check_suite`] wraps the registered methods of a type so that *every*
//! execution — at issue time on the guesstimated state, at replay,
//! and at commit time on every machine's committed state — is checked
//! against the model's frame condition and the method's contract. Detected
//! violations are recorded in a shared [`ConformanceLog`] (they indicate
//! application bugs of exactly the kind the paper caught with Spec#, e.g.
//! the off-by-one in the Sudoku row check).

use std::fmt;
use std::sync::{Arc, Mutex};

use guesstimate_core::{ArgView, GState, OpRegistry, Value};

use crate::contract::{ExecCase, InvPred, MethodContract, PostPred, SpecSuite};

/// What a recorded violation violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The method returned `false` but modified the state (breaks the
    /// model's universal frame condition, §3).
    Frame,
    /// The method returned `true` but `(pre, post) ∉ φ`.
    Postcondition,
    /// The object invariant held before and not after.
    Invariant,
    /// A named domain assertion failed.
    Assertion,
}

/// One recorded conformance violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The shared-object type.
    pub type_name: String,
    /// The offending method.
    pub method: String,
    /// What was violated.
    pub kind: ViolationKind,
    /// Name of the failed assertion (for [`ViolationKind::Assertion`]).
    pub assertion: Option<String>,
    /// The argument vector of the offending execution.
    pub args: Vec<Value>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}::{} violated {:?}",
            self.type_name, self.method, self.kind
        )?;
        if let Some(a) = &self.assertion {
            write!(f, " ({a})")?;
        }
        Ok(())
    }
}

/// Shared, thread-safe sink for conformance violations.
///
/// Clone it freely; all clones share the same log.
#[derive(Debug, Clone, Default)]
pub struct ConformanceLog {
    inner: Arc<Mutex<Vec<Violation>>>,
}

impl ConformanceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        ConformanceLog::default()
    }

    /// True if no violations were recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("log lock").is_empty()
    }

    /// Number of recorded violations.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("log lock").len()
    }

    /// Snapshot of all recorded violations.
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.lock().expect("log lock").clone()
    }

    /// Clears the log.
    pub fn clear(&self) {
        self.inner.lock().expect("log lock").clear();
    }

    fn record(&self, v: Violation) {
        self.inner.lock().expect("log lock").push(v);
    }
}

/// Puts runtime conformance checks around every method already registered
/// for `suite`'s type: the contract of its [`crate::MethodSpec`] plus the
/// suite's type-level invariant (a method-level invariant overrides it, as in
/// [`crate::verify_suite`]) — so what runs is what the verifier classifies.
/// A registered method the suite has no spec for still gets the frame
/// condition and the invariant.
///
/// Each execution snapshots the object before and after, checks the frame
/// condition, postcondition, invariant and assertions, and records
/// violations in `log`. The wrapped method's result is passed through
/// unchanged and its declared effect stays — checking never alters
/// semantics.
///
/// This costs two snapshots and the whole contract per execution;
/// production deployments register plainly and run the checked registry in
/// tests, exactly as Spec# moves unproven assertions into (removable)
/// runtime checks.
pub fn check_suite(registry: &mut OpRegistry, suite: &SpecSuite, log: &ConformanceLog) {
    for method in registry.methods_of(&suite.type_name) {
        let mut contract = suite
            .methods
            .iter()
            .find(|m| m.method == method)
            .map(|m| m.contract.clone())
            .unwrap_or_default();
        if contract.invariant.is_none() {
            contract.invariant = suite.invariant.as_ref().map(|i| i.pred.clone());
        }
        wrap_checked(registry, &suite.type_name, method, contract, log);
    }
}

/// Registers `method` for `T` and wraps it with `contract`'s checks, as
/// [`check_suite`] does for a whole suite: the way to put one hand-written
/// (in the tests: deliberately buggy) implementation under a contract.
pub fn register_checked<T: GState>(
    registry: &mut OpRegistry,
    method: &'static str,
    contract: MethodContract,
    log: &ConformanceLog,
    f: impl Fn(&mut T, ArgView<'_>) -> bool + Send + Sync + 'static,
) {
    registry.register_method::<T>(method, f);
    wrap_checked(registry, T::TYPE_NAME, method, contract, log);
}

fn wrap_checked(
    registry: &mut OpRegistry,
    type_name: &str,
    method: &str,
    contract: MethodContract,
    log: &ConformanceLog,
) {
    let (log, ty, m) = (log.clone(), type_name.to_owned(), method.to_owned());
    registry
        .wrap_method(type_name, method, |inner| {
            Arc::new(move |obj, argv| {
                let pre = obj.snapshot();
                let result = inner(obj, argv)?;
                let case = ExecCase {
                    pre,
                    args: argv.as_slice().to_vec(),
                    result,
                    post: obj.snapshot(),
                };
                let record = |kind, assertion: Option<&str>| {
                    log.record(Violation {
                        type_name: ty.clone(),
                        method: m.clone(),
                        kind,
                        assertion: assertion.map(str::to_owned),
                        args: case.args.clone(),
                    });
                };
                if !result && case.pre != case.post {
                    record(ViolationKind::Frame, None);
                }
                let broken = |p: &PostPred| !p(&case.pre, &case.post, &case.args);
                if result && contract.post.as_ref().is_some_and(broken) {
                    record(ViolationKind::Postcondition, None);
                }
                let lost = |inv: &InvPred| inv(&case.pre) && !inv(&case.post);
                if contract.invariant.as_ref().is_some_and(lost) {
                    record(ViolationKind::Invariant, None);
                }
                for a in contract.assertions.iter().filter(|a| !a.holds(&case)) {
                    record(ViolationKind::Assertion, Some(a.name()));
                }
                Ok(result)
            })
        })
        .expect("the method is registered");
}

#[cfg(test)]
mod tests {
    use super::*;
    use guesstimate_core::RestoreError;
    use guesstimate_core::{args, execute, MachineId, ObjectId, ObjectStore, SharedOp};

    /// Deliberately buggy object: `bad_dec` mutates state even when it
    /// reports failure (frame violation); `overflowing_add` breaks its
    /// postcondition on a boundary.
    #[derive(Clone, Default)]
    struct Gauge(i64);
    impl GState for Gauge {
        const TYPE_NAME: &'static str = "Gauge";
        fn snapshot(&self) -> Value {
            Value::from(self.0)
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            self.0 = v.as_i64().ok_or_else(|| RestoreError::shape("i64"))?;
            Ok(())
        }
    }

    fn setup(
        contract_add: MethodContract,
        contract_dec: MethodContract,
    ) -> (OpRegistry, ConformanceLog, ObjectId, ObjectStore) {
        let mut reg = OpRegistry::new();
        reg.register_type::<Gauge>();
        let log = ConformanceLog::new();
        register_checked::<Gauge>(&mut reg, "add", contract_add, &log, |g, a| {
            let Some(d) = a.i64(0) else { return false };
            // BUG: claims to cap at 10 but actually allows 11.
            if g.0 + d > 11 {
                return false;
            }
            g.0 += d;
            true
        });
        register_checked::<Gauge>(&mut reg, "bad_dec", contract_dec, &log, |g, _a| {
            g.0 -= 1; // BUG: mutates before checking
            if g.0 < 0 {
                return false;
            }
            true
        });
        let id = ObjectId::new(MachineId::new(0), 0);
        let mut store = ObjectStore::new();
        store.insert(id, Box::new(Gauge(0)));
        (reg, log, id, store)
    }

    #[test]
    fn clean_executions_record_nothing() {
        let contract =
            MethodContract::new().with_post(|pre, post, _| post.as_i64() >= pre.as_i64());
        let (reg, log, id, mut store) = setup(contract, MethodContract::new());
        execute(&SharedOp::primitive(id, "add", args![5]), &mut store, &reg).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn postcondition_violation_is_caught() {
        // Contract says result ≤ 10; the buggy impl allows 11.
        let contract =
            MethodContract::new().with_post(|_, post, _| post.as_i64().unwrap_or(0) <= 10);
        let (reg, log, id, mut store) = setup(contract, MethodContract::new());
        execute(&SharedOp::primitive(id, "add", args![11]), &mut store, &reg).unwrap();
        let vs = log.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, ViolationKind::Postcondition);
        assert!(vs[0].to_string().contains("Gauge::add"));
    }

    #[test]
    fn frame_violation_is_caught() {
        let (reg, log, id, mut store) = setup(MethodContract::new(), MethodContract::new());
        // Gauge starts at 0; bad_dec fails but leaves -1 behind.
        let out = execute(
            &SharedOp::primitive(id, "bad_dec", args![]),
            &mut store,
            &reg,
        )
        .unwrap();
        assert!(!out.is_success());
        let vs = log.violations();
        assert_eq!(vs[0].kind, ViolationKind::Frame);
    }

    #[test]
    fn invariant_violation_is_caught() {
        let contract_dec = MethodContract::new().with_invariant(|s| s.as_i64().unwrap_or(-1) >= 0);
        let (reg, log, id, mut store) = setup(MethodContract::new(), contract_dec);
        execute(
            &SharedOp::primitive(id, "bad_dec", args![]),
            &mut store,
            &reg,
        )
        .unwrap();
        assert!(log
            .violations()
            .iter()
            .any(|v| v.kind == ViolationKind::Invariant));
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn named_assertion_violation_carries_name() {
        let contract = MethodContract::new().with_assertion("never-negative-delta", |c| {
            c.args.first().and_then(Value::as_i64).unwrap_or(0) >= 0
        });
        let (reg, log, id, mut store) = setup(contract, MethodContract::new());
        execute(&SharedOp::primitive(id, "add", args![-1]), &mut store, &reg).unwrap();
        let vs = log.violations();
        assert_eq!(vs[0].kind, ViolationKind::Assertion);
        assert_eq!(vs[0].assertion.as_deref(), Some("never-negative-delta"));
        assert!(vs[0].to_string().contains("never-negative-delta"));
    }

    #[test]
    fn check_suite_wraps_every_registered_method_and_keeps_effects() {
        use crate::contract::MethodSpec;
        use guesstimate_core::{EffectSpec, Footprint};
        let mut reg = OpRegistry::new();
        reg.register_type::<Gauge>();
        // `add` has a spec (and a declared effect); `bad_dec` has neither.
        reg.register_with_effects::<Gauge>(
            "add",
            EffectSpec::new(|_| Footprint::new().writes(["level"])),
            |g, a| {
                let Some(d) = a.i64(0) else { return false };
                g.0 += d;
                true
            },
        );
        reg.register_method::<Gauge>("bad_dec", |g, _| {
            g.0 -= 1;
            g.0 >= 0
        });
        let suite = SpecSuite::new("Gauge")
            .with_invariant("non-negative", |s| s.as_i64().unwrap_or(-1) >= 0)
            .with_method(MethodSpec::new(
                "add",
                MethodContract::new().with_post(|_, post, _| post.as_i64().unwrap_or(0) <= 10),
            ));
        let log = ConformanceLog::new();
        check_suite(&mut reg, &suite, &log);
        assert!(reg.effect_of("Gauge", "add").is_some(), "the effect stays");

        let id = ObjectId::new(MachineId::new(0), 0);
        let mut store = ObjectStore::new();
        store.insert(id, Box::new(Gauge(0)));
        execute(&SharedOp::primitive(id, "add", args![11]), &mut store, &reg).unwrap();
        assert_eq!(log.violations()[0].kind, ViolationKind::Postcondition);
        log.clear();
        // The spec-less method still answers to the frame condition and to
        // the suite's invariant.
        store.insert(id, Box::new(Gauge(0)));
        execute(
            &SharedOp::primitive(id, "bad_dec", args![]),
            &mut store,
            &reg,
        )
        .unwrap();
        let kinds: Vec<_> = log.violations().iter().map(|v| v.kind).collect();
        assert_eq!(kinds, [ViolationKind::Frame, ViolationKind::Invariant]);
    }

    #[test]
    fn log_clones_share_state() {
        let log = ConformanceLog::new();
        let log2 = log.clone();
        log.record(Violation {
            type_name: "T".into(),
            method: "m".into(),
            kind: ViolationKind::Frame,
            assertion: None,
            args: vec![],
        });
        assert_eq!(log2.len(), 1);
    }
}
