//! Executable contracts: postconditions, invariants, named assertions.

use std::fmt;
use std::sync::Arc;

use guesstimate_core::Value;

/// Postcondition relation `φ ⊆ S × S` (with access to the argument vector
/// for precision): called as `post(pre, post, args)`.
pub(crate) type PostPred = Arc<dyn Fn(&Value, &Value, &[Value]) -> bool + Send + Sync>;

/// Object invariant over a canonical snapshot.
pub(crate) type InvPred = Arc<dyn Fn(&Value) -> bool + Send + Sync>;

/// Predicate over a full execution case.
pub(crate) type CasePred = Arc<dyn Fn(&ExecCase) -> bool + Send + Sync>;

/// One observed (or enumerated) execution of a shared operation: the unit
/// both the runtime conformance checker and the static classifier judge.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecCase {
    /// Canonical snapshot before execution.
    pub pre: Value,
    /// Argument vector.
    pub args: Vec<Value>,
    /// The operation's boolean result.
    pub result: bool,
    /// Canonical snapshot after execution.
    pub post: Value,
}

/// The contract of one shared-operation method.
///
/// Built with a fluent API; every component is optional (the frame
/// condition — `false` ⇒ state unchanged — is part of the model itself and
/// always checked).
#[derive(Clone, Default)]
pub struct MethodContract {
    pub(crate) post: Option<PostPred>,
    pub(crate) invariant: Option<InvPred>,
    pub(crate) assertions: Vec<Assertion>,
}

impl fmt::Debug for MethodContract {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MethodContract")
            .field("has_post", &self.post.is_some())
            .field("has_invariant", &self.invariant.is_some())
            .field("assertions", &self.assertions.len())
            .finish()
    }
}

impl MethodContract {
    /// An empty contract (only the universal frame condition applies).
    pub fn new() -> Self {
        MethodContract::default()
    }

    /// Sets the postcondition `φ`: must hold whenever the method returns
    /// `true`. Called as `post(pre_snapshot, post_snapshot, args)`.
    pub fn with_post(
        mut self,
        post: impl Fn(&Value, &Value, &[Value]) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.post = Some(Arc::new(post));
        self
    }

    /// Sets the object invariant: must hold of the post state of every
    /// execution whose pre state satisfied it.
    pub fn with_invariant(mut self, inv: impl Fn(&Value) -> bool + Send + Sync + 'static) -> Self {
        self.invariant = Some(Arc::new(inv));
        self
    }

    /// Adds a named domain assertion over execution cases.
    pub fn with_assertion(
        mut self,
        name: impl Into<String>,
        check: impl Fn(&ExecCase) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.assertions.push(Assertion::new(name, check));
        self
    }

    /// Adds a pre-built assertion (e.g. a state-independent one).
    pub fn with_assertion_obj(mut self, a: Assertion) -> Self {
        self.assertions.push(a);
        self
    }

    /// Adds a state-independent *guard*: an execution whose argument list
    /// `ok` refuses must fail and leave the state unchanged. A guard decodes
    /// the method's whole parameter list and refuses a list that does not
    /// decode (`is_some_and`), as the operation does.
    pub fn with_guard(
        self,
        name: impl Into<String>,
        ok: impl Fn(&[Value]) -> bool + Send + Sync + 'static,
    ) -> Self {
        let guard = move |c: &ExecCase| ok(&c.args) || (!c.result && c.pre == c.post);
        self.with_assertion_obj(Assertion::new(name, guard).assume_state_independent())
    }
}

/// A named assertion over execution cases — the unit the verifier counts
/// and classifies (Spec# turns each contract into many such assertions).
#[derive(Clone)]
pub struct Assertion {
    pub(crate) name: String,
    pub(crate) check: CasePred,
    pub(crate) state_independent: bool,
}

impl Assertion {
    /// Creates a named assertion.
    pub fn new(
        name: impl Into<String>,
        check: impl Fn(&ExecCase) -> bool + Send + Sync + 'static,
    ) -> Self {
        Assertion {
            name: name.into(),
            check: Arc::new(check),
            state_independent: false,
        }
    }

    /// Marks the assertion as *state-independent*: its truth depends only
    /// on the argument vector (e.g. a bounds guard). The verifier may then
    /// classify it `Verified` from an exhaustive *argument* enumeration
    /// alone, even over a sampled state space — the analog of Boogie
    /// discharging a path condition that never reads the heap.
    pub fn assume_state_independent(mut self) -> Self {
        self.state_independent = true;
        self
    }

    /// Whether the assertion was marked state-independent.
    pub fn is_state_independent(&self) -> bool {
        self.state_independent
    }

    /// The assertion's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the assertion on a case.
    pub fn holds(&self, case: &ExecCase) -> bool {
        (self.check)(case)
    }
}

impl fmt::Debug for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Assertion({:?})", self.name)
    }
}

/// One method's contract together with its name. The argument lists the
/// verifier enumerates for it are the method's row's, read from the
/// registry ([`guesstimate_core::OpRegistry::arg_space`]).
#[derive(Debug, Clone)]
pub struct MethodSpec {
    /// Registered method name.
    pub method: String,
    /// The contract.
    pub contract: MethodContract,
}

impl MethodSpec {
    /// Creates a method spec.
    pub fn new(method: impl Into<String>, contract: MethodContract) -> Self {
        MethodSpec {
            method: method.into(),
            contract,
        }
    }
}

/// The full specification of one shared-object type: per-method contracts
/// plus a type-level invariant.
#[derive(Debug, Clone)]
pub struct SpecSuite {
    /// The registered type name.
    pub type_name: String,
    /// Type-level object invariant (checked for every method).
    pub invariant: Option<InvariantSpec>,
    /// Per-method contracts.
    pub methods: Vec<MethodSpec>,
}

/// A named type-level invariant.
#[derive(Clone)]
pub struct InvariantSpec {
    pub(crate) name: String,
    pub(crate) pred: InvPred,
}

impl fmt::Debug for InvariantSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InvariantSpec({:?})", self.name)
    }
}

impl InvariantSpec {
    /// Creates a named invariant.
    pub fn new(
        name: impl Into<String>,
        pred: impl Fn(&Value) -> bool + Send + Sync + 'static,
    ) -> Self {
        InvariantSpec {
            name: name.into(),
            pred: Arc::new(pred),
        }
    }
}

impl SpecSuite {
    /// Creates an empty suite for a type.
    pub fn new(type_name: impl Into<String>) -> Self {
        SpecSuite {
            type_name: type_name.into(),
            invariant: None,
            methods: Vec::new(),
        }
    }

    /// Sets the type-level invariant.
    pub fn with_invariant(
        mut self,
        name: impl Into<String>,
        pred: impl Fn(&Value) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.invariant = Some(InvariantSpec::new(name, pred));
        self
    }

    /// Adds a method spec.
    pub fn with_method(mut self, m: MethodSpec) -> Self {
        self.methods.push(m);
        self
    }

    /// Total number of assertions the verifier will classify for this suite
    /// (frame + post + invariant + domain assertions, per method).
    pub fn assertion_count(&self) -> usize {
        self.methods
            .iter()
            .map(|m| {
                1 // frame
                    + usize::from(m.contract.post.is_some())
                    + usize::from(self.invariant.is_some() || m.contract.invariant.is_some())
                    + m.contract.assertions.len()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(pre: i64, post: i64, result: bool) -> ExecCase {
        ExecCase {
            pre: Value::from(pre),
            args: vec![],
            result,
            post: Value::from(post),
        }
    }

    #[test]
    fn contract_builder_accumulates() {
        let c = MethodContract::new()
            .with_post(|_, _, _| true)
            .with_invariant(|_| true)
            .with_assertion("a1", |_| true)
            .with_assertion("a2", |_| false);
        assert!(c.post.is_some());
        assert!(c.invariant.is_some());
        assert_eq!(c.assertions.len(), 2);
        assert!(format!("{c:?}").contains("assertions: 2"));
    }

    #[test]
    fn assertion_evaluates() {
        let a = Assertion::new("monotone", |c: &ExecCase| {
            !c.result || c.post.as_i64() >= c.pre.as_i64()
        });
        assert_eq!(a.name(), "monotone");
        assert!(a.holds(&case(1, 2, true)));
        assert!(!a.holds(&case(2, 1, true)));
        assert!(a.holds(&case(2, 1, false)), "vacuous on failure");
        assert!(format!("{a:?}").contains("monotone"));
    }

    #[test]
    fn suite_counts_assertions() {
        let suite = SpecSuite::new("T")
            .with_invariant("inv", |_| true)
            .with_method(MethodSpec::new(
                "f",
                MethodContract::new().with_post(|_, _, _| true),
            ))
            .with_method(MethodSpec::new(
                "g",
                MethodContract::new().with_assertion("extra", |_| true),
            ));
        // f: frame + post + invariant = 3; g: frame + invariant + extra = 3.
        assert_eq!(suite.assertion_count(), 6);
    }
}
