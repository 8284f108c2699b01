//! # guesstimate-analysis
//!
//! Static effect analysis over registered shared-operation methods.
//!
//! GUESSTIMATE's cost model hangs on re-execution: every remote commit
//! rebuilds the guesstimated state `sg = [P](sc)` by replaying the whole
//! pending queue. Knowing which operations *commute* is the lever that
//! removes that cost (Shapiro & Preguiça's commutative replicated data
//! types), and bounded exploration is how such claims are checked
//! mechanically (Boucheneb & Imine). This crate provides both halves:
//!
//! * a **footprint-based static commutativity judgment** — two invocations
//!   commute when their declared [`guesstimate_core::Footprint`]s are disjoint (no write/write
//!   and no read/write overlap);
//! * a **bounded-exhaustive semantic validator** that reuses the
//!   `spec::verifier` [`CaseSpace`] machinery to check `s1;s2 ≡ s2;s1` over
//!   enumerated states, classifying each method pair
//!   [`Classification::Commute`] / [`Classification::Conflict`] /
//!   [`Classification::Unknown`];
//! * a **footprint sanitizer** refuting any declared effect whose write set
//!   under-approximates observed snapshot diffs, plus an undeclared-effect
//!   lint;
//! * an **access-witness sanitizer** driving the same argument domains
//!   through [`guesstimate_core::execute_witnessed`] and refuting any
//!   declared footprint the *observed reads or writes* escape
//!   ([`ViolationKind::UndeclaredRead`] / [`ViolationKind::UndeclaredWrite`])
//!   — closing the classic soundness hole where a method silently reads a
//!   path outside its declaration and gets misclassified as commuting —
//!   plus **dead-footprint warnings** for declared paths never observed
//!   touched across the sampled domain (see `docs/ANALYSIS.md` §Soundness);
//! * a **determinism sanitizer** executing each method twice from identical
//!   snapshots — divergence would silently break replica convergence;
//! * the `analyze` binary printing the per-app conflict matrix and all
//!   violations (non-zero exit on any violation, so it can gate CI).
//!
//! The validated output feeds the hybrid async commit and the model
//! checker's independence relation (see `docs/ANALYSIS.md`).

#![deny(missing_docs)]

pub mod harness;
pub use guesstimate_core::json;
pub mod shard;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use guesstimate_core::{
    containment_escapes, execute, execute_witnessed, paths_overlap, AccessKind, ArgView,
    CommuteMatrix, EffectSpec, MachineId, ObjectId, ObjectStore, OpRegistry, ProbeReads, SharedOp,
    Value,
};
use guesstimate_spec::{CaseSpace, SpecSuite};

pub use guesstimate_core::snapshot_diff;

/// The commutativity classification of one method pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// Proven to commute: either a complete enumeration found no
    /// counterexample, or every enumerated argument pair had disjoint
    /// (and sanitizer-clean) declared footprints.
    Commute,
    /// A concrete counterexample was found: some state and argument pair
    /// where `s1;s2` and `s2;s1` disagree on the final snapshot or on the
    /// operations' results.
    Conflict,
    /// No counterexample, but the enumeration was incomplete and the
    /// static judgment could not prove disjointness for every argument
    /// pair. The runtime must fall back to argument-precise footprints.
    Unknown,
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Classification::Commute => "Commute",
            Classification::Conflict => "Conflict",
            Classification::Unknown => "Unknown",
        })
    }
}

/// The kind of a lint violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A registered method has no declared [`guesstimate_core::EffectSpec`].
    UndeclaredEffect,
    /// A registered method was given no argument space to analyze over.
    UnanalyzedMethod,
    /// An observed snapshot change is not covered by the declared write
    /// set — the footprint under-approximates and every consumer of it
    /// (including the hybrid async commit) would be unsound.
    FootprintUnderApproximation,
    /// Executing the method twice from identical snapshots diverged.
    Nondeterminism,
    /// The access witness observed a *read* of a path the declared
    /// footprint covers with neither its read nor its write set: some
    /// state outside the declaration observably influences the method's
    /// behavior, so every footprint-based commutation judgment about it
    /// is unsound. Detected by perturbation probing
    /// ([`guesstimate_core::execute_witnessed`]).
    UndeclaredRead,
    /// The access witness observed a *write* escaping the declared write
    /// set. Overlaps [`ViolationKind::FootprintUnderApproximation`] in
    /// spirit, but the witness samples the case product with a stride, so
    /// it can reach state/argument corners the sequential write sanitizer
    /// stops short of.
    UndeclaredWrite,
    /// The static judgment says every enumerated argument pair is disjoint,
    /// yet the semantic validator found a commutation counterexample: the
    /// declared footprints are wrong in a way the write-diff check alone
    /// cannot see. Historically this was the only net that could snag an
    /// undeclared read; the witness sanitizer now refutes those directly
    /// ([`ViolationKind::UndeclaredRead`]), leaving this check as a
    /// backstop for dependences no perturbation surfaced.
    StaticSemanticDisagreement,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::UndeclaredEffect => "undeclared-effect",
            ViolationKind::UnanalyzedMethod => "unanalyzed-method",
            ViolationKind::FootprintUnderApproximation => "footprint-under-approximation",
            ViolationKind::Nondeterminism => "nondeterminism",
            ViolationKind::UndeclaredRead => "undeclared-read",
            ViolationKind::UndeclaredWrite => "undeclared-write",
            ViolationKind::StaticSemanticDisagreement => "static-semantic-disagreement",
        })
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct AnalysisViolation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// The object type.
    pub type_name: String,
    /// The offending method (or method pair, rendered `a;b`).
    pub method: String,
    /// Human-readable details (counterexample state/arguments).
    pub detail: String,
}

impl fmt::Display for AnalysisViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}::{} — {}",
            self.kind, self.type_name, self.method, self.detail
        )
    }
}

/// The argument space of one method, for sanitizing and pairing.
///
/// Derived from the app's [`SpecSuite`] via [`method_spaces_from_suite`]
/// (every registered method of a bundled app has a spec).
#[derive(Debug, Clone)]
pub struct MethodSpace {
    /// Registered method name.
    pub method: String,
    /// Argument vectors to enumerate.
    pub args: Vec<Vec<Value>>,
    /// True if `args` covers all relevant argument vectors (up to
    /// symmetry); required for a `Commute`-by-enumeration verdict.
    pub args_exhaustive: bool,
}

/// Extracts one [`MethodSpace`] per method of a spec suite.
pub fn method_spaces_from_suite(suite: &SpecSuite) -> Vec<MethodSpace> {
    suite
        .methods
        .iter()
        .map(|m| MethodSpace {
            method: m.method.clone(),
            args: m.arg_space.clone(),
            args_exhaustive: m.args_exhaustive,
        })
        .collect()
}

/// The classification of one (unordered) method pair.
#[derive(Debug, Clone)]
pub struct PairReport {
    /// First method (lexicographically ≤ `b`).
    pub a: String,
    /// Second method.
    pub b: String,
    /// The verdict.
    pub classification: Classification,
    /// Cases (state × args × args) evaluated.
    pub cases: usize,
    /// True if every enumerated argument pair had disjoint declared
    /// footprints (the static judgment).
    pub static_commute: bool,
    /// A rendered counterexample, when conflicting.
    pub counterexample: Option<String>,
}

/// The analysis output for one application type.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// The object type analyzed.
    pub type_name: String,
    /// Methods covered, sorted.
    pub methods: Vec<String>,
    /// One entry per unordered method pair (including the diagonal).
    pub pairs: Vec<PairReport>,
    /// All lint violations.
    pub violations: Vec<AnalysisViolation>,
    /// Non-fatal advisories — currently dead-footprint warnings: declared
    /// paths the access witness never observed touched across the sampled
    /// state × argument domain. Over-approximation is sound (declaring too
    /// much only costs commutation opportunities), so these never affect
    /// [`AppReport::is_clean`] or the `analyze` exit code; they point at
    /// specs worth tightening.
    pub warnings: Vec<String>,
}

impl AppReport {
    /// True if the app passed the lint (no violations of any kind).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The classification of a method pair (order-insensitive).
    pub fn classification(&self, m1: &str, m2: &str) -> Option<Classification> {
        let (a, b) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        self.pairs
            .iter()
            .find(|p| p.a == a && p.b == b)
            .map(|p| p.classification)
    }

    /// Extracts the validated always-commute pairs as a [`CommuteMatrix`]
    /// for the runtime's fast path.
    pub fn commute_matrix(&self) -> CommuteMatrix {
        let mut m = CommuteMatrix::new();
        for p in &self.pairs {
            if p.classification == Classification::Commute {
                m.insert(&self.type_name, &p.a, &p.b);
            }
        }
        m
    }

    /// The type's *universal commuters*: methods classified `Commute`
    /// against **every** method of the type, the diagonal pair included,
    /// that also declare an `EffectSpec` (no undeclared-effect violation).
    ///
    /// These are exactly the methods the runtime's hybrid async commit
    /// path (`MachineConfig::async_commit`) may commit without a round:
    /// commuting with anything that can ever interleave — in both final
    /// state and results — makes arrival-order application
    /// observationally equivalent to the total order. Mirrors
    /// `guesstimate_runtime::commute::universal_commuters`, computed here
    /// from the analysis verdicts instead of a validated matrix.
    pub fn universal_commuters(&self) -> Vec<String> {
        self.methods
            .iter()
            .filter(|m| {
                !self
                    .violations
                    .iter()
                    .any(|v| v.kind == ViolationKind::UndeclaredEffect && &v.method == *m)
            })
            .filter(|m| {
                self.methods
                    .iter()
                    .all(|o| self.classification(m, o) == Some(Classification::Commute))
            })
            .cloned()
            .collect()
    }

    /// Renders the conflict matrix as an aligned text grid: `C` commute,
    /// `X` conflict, `?` unknown.
    pub fn format_matrix(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let w = self
            .methods
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(6)
            .max(6);
        let _ = write!(out, "{:<w$}", self.type_name, w = w + 1);
        for m in &self.methods {
            let _ = write!(out, " {m:>w$}", w = w.min(m.len().max(4)));
        }
        let _ = writeln!(out);
        for m1 in &self.methods {
            let _ = write!(out, "{m1:<w$}", w = w + 1);
            for m2 in &self.methods {
                let sym = match self.classification(m1, m2) {
                    Some(Classification::Commute) => 'C',
                    Some(Classification::Conflict) => 'X',
                    Some(Classification::Unknown) => '?',
                    None => '-',
                };
                let _ = write!(out, " {sym:>w$}", w = w.min(m2.len().max(4)));
            }
            let _ = writeln!(out);
        }
        out
    }
}

fn scratch_id() -> ObjectId {
    ObjectId::new(MachineId::new(u32::MAX), u64::MAX)
}

/// Restores `state` into a fresh object and executes `ops` in order.
/// Returns each op's success flag and the final snapshot, or `None` when
/// the state does not restore into this type.
fn run_seq(
    registry: &OpRegistry,
    type_name: &str,
    state: &Value,
    ops: &[(&str, &[Value])],
) -> Option<(Vec<bool>, Value)> {
    let id = scratch_id();
    let mut obj = registry.construct(type_name).ok()?;
    if obj.restore(state).is_err() {
        return None;
    }
    let mut store = ObjectStore::new();
    store.insert(id, obj);
    let mut results = Vec::with_capacity(ops.len());
    for (method, args) in ops {
        let op = SharedOp::primitive(id, *method, args.to_vec());
        results.push(execute(&op, &mut store, registry).ok()?.is_success());
    }
    Some((results, store.get(id)?.snapshot()))
}

fn render_case(state: &Value, a1: &[Value], a2: &[Value]) -> String {
    let mut s = format!("state={state:?} args1={a1:?} args2={a2:?}");
    if s.len() > 240 {
        s.truncate(240);
        s.push('…');
    }
    s
}

/// Per-method case cap for the access-witness sanitizer.
///
/// Witnessed execution re-runs the method once per perturbation candidate
/// of every pre-state path ([`guesstimate_core::ProbeReads::All`]), so a
/// case costs two to three orders of magnitude more than the plain
/// write-diff sanitizer's. The witness loop therefore samples the
/// state × argument product with a stride instead of walking its prefix —
/// same total budget, spread across the whole domain.
const WITNESS_CASE_CAP: usize = 192;

/// Drives each (still-sanitized) method's sampled case domain through
/// [`guesstimate_core::execute_witnessed`] and returns the witness
/// violations, the dead-footprint warnings, and the set of refuted
/// methods.
fn witness_sanitize(
    registry: &OpRegistry,
    type_name: &str,
    spaces: &[MethodSpace],
    space: &CaseSpace,
    sanitized: &BTreeSet<&str>,
) -> (Vec<AnalysisViolation>, Vec<String>, BTreeSet<String>) {
    let mut violations = Vec::new();
    let mut warnings = Vec::new();
    let mut refuted: BTreeSet<String> = BTreeSet::new();
    let id = scratch_id();
    for ms in spaces {
        // Methods already refuted (or lacking a declared effect) are not
        // worth the probing cost; their verdicts are already poisoned.
        if !sanitized.contains(ms.method.as_str()) {
            continue;
        }
        let Some(effect) = registry.effect_of(type_name, &ms.method) else {
            continue;
        };
        let total = space.states.len() * ms.args.len();
        if total == 0 {
            continue;
        }
        let cap = space.max_cases.clamp(1, WITNESS_CASE_CAP);
        let stride = total.div_ceil(cap);
        let mut declared_union: BTreeSet<String> = BTreeSet::new();
        let mut observed_union: BTreeSet<String> = BTreeSet::new();
        let mut sampled = 0usize;
        let mut escaped = false;
        'method: for (case_idx, (state, argv)) in space
            .states
            .iter()
            .flat_map(|s| ms.args.iter().map(move |a| (s, a)))
            .enumerate()
        {
            if case_idx % stride != 0 {
                continue;
            }
            let Ok(mut obj) = registry.construct(type_name) else {
                break;
            };
            if obj.restore(state).is_err() {
                continue;
            }
            let mut store = ObjectStore::new();
            store.insert(id, obj);
            let op = SharedOp::primitive(id, ms.method.as_str(), argv.clone());
            let Ok((_, witness)) = execute_witnessed(&op, &mut store, registry, ProbeReads::All)
            else {
                continue;
            };
            sampled += 1;
            let fp = effect.footprint(ArgView::new(argv));
            declared_union.extend(fp.reads.iter().cloned());
            declared_union.extend(fp.writes.iter().cloned());
            for w in witness.values() {
                observed_union.extend(w.reads.iter().cloned());
                observed_union.extend(w.writes.iter().cloned());
            }
            let declared = BTreeMap::from([(id, fp)]);
            if let Some(e) = containment_escapes(&witness, &declared).first() {
                let fp = &declared[&id];
                violations.push(AnalysisViolation {
                    kind: match e.kind {
                        AccessKind::Read => ViolationKind::UndeclaredRead,
                        AccessKind::Write => ViolationKind::UndeclaredWrite,
                    },
                    type_name: type_name.to_owned(),
                    method: ms.method.clone(),
                    detail: format!(
                        "witness observed {e}; declared reads {:?} writes {:?} ({})",
                        fp.reads,
                        fp.writes,
                        render_case(state, argv, &[])
                    ),
                });
                refuted.insert(ms.method.clone());
                escaped = true;
                break 'method;
            }
        }
        // Dead-footprint advisory: a declared path no sampled case ever
        // touched. Computed over the same sampled cases as the observed
        // union, so a path declared only for arguments the stride skipped
        // is not reported.
        if !escaped && sampled > 0 {
            let dead: Vec<&String> = declared_union
                .iter()
                .filter(|d| !observed_union.iter().any(|o| paths_overlap(d, o)))
                .collect();
            if !dead.is_empty() {
                let mut listed: Vec<String> =
                    dead.iter().take(8).map(|d| format!("{d:?}")).collect();
                if dead.len() > listed.len() {
                    listed.push(format!("… {} more", dead.len() - listed.len()));
                }
                warnings.push(format!(
                    "{type_name}::{} declares {} never observed touched across {sampled} sampled cases — consider tightening the footprint",
                    ms.method,
                    listed.join(", "),
                ));
            }
        }
    }
    (violations, warnings, refuted)
}

/// Runs the full analysis for one application type.
///
/// `spaces` must cover every registered method of `type_name` (missing
/// methods produce an [`ViolationKind::UnanalyzedMethod`] violation);
/// `space` supplies the state enumeration and the per-method case cap
/// (`max_cases` also caps each pair's `state × args × args` product).
pub fn analyze_app(
    registry: &OpRegistry,
    type_name: &str,
    spaces: &[MethodSpace],
    space: &CaseSpace,
) -> AppReport {
    let mut violations = Vec::new();

    // --- coverage lints -------------------------------------------------
    for m in registry.methods_without_effects(type_name) {
        violations.push(AnalysisViolation {
            kind: ViolationKind::UndeclaredEffect,
            type_name: type_name.to_owned(),
            method: m.to_owned(),
            detail: "registered without an EffectSpec".to_owned(),
        });
    }
    let methods: Vec<String> = registry
        .methods_of(type_name)
        .into_iter()
        .map(str::to_owned)
        .collect();
    for m in &methods {
        if !spaces.iter().any(|s| &s.method == m) {
            violations.push(AnalysisViolation {
                kind: ViolationKind::UnanalyzedMethod,
                type_name: type_name.to_owned(),
                method: m.clone(),
                detail: "no argument space supplied for analysis".to_owned(),
            });
        }
    }

    // Sort the method spaces so every downstream list — violations, pairs,
    // the rendered matrix — is deterministic regardless of caller order.
    let mut sorted_spaces = spaces.to_vec();
    sorted_spaces.sort_by(|x, y| x.method.cmp(&y.method));
    let spaces = &sorted_spaces[..];

    // --- sanitizers: determinism + footprint writes ---------------------
    // Methods whose declared footprints survive the sanitizer; only these
    // may be promoted to Commute by the static judgment.
    let mut sanitized: BTreeSet<&str> = BTreeSet::new();
    for ms in spaces {
        let mut clean = registry.effect_of(type_name, &ms.method).is_some();
        let mut cases = 0usize;
        'outer: for state in &space.states {
            for argv in &ms.args {
                if cases >= space.max_cases {
                    break 'outer;
                }
                let Some((r1, post1)) = run_seq(registry, type_name, state, &[(&ms.method, argv)])
                else {
                    continue;
                };
                cases += 1;
                // Determinism: identical snapshot, identical outcome.
                let rerun = run_seq(registry, type_name, state, &[(&ms.method, argv)]);
                if rerun.as_ref().map(|(r, p)| (r, p)) != Some((&r1, &post1)) {
                    clean = false;
                    violations.push(AnalysisViolation {
                        kind: ViolationKind::Nondeterminism,
                        type_name: type_name.to_owned(),
                        method: ms.method.clone(),
                        detail: render_case(state, argv, &[]),
                    });
                    break 'outer;
                }
                // Footprint: every observed write covered by the declaration.
                if let Some(effect) = registry.effect_of(type_name, &ms.method) {
                    let fp = effect.footprint(ArgView::new(argv));
                    for path in snapshot_diff(state, &post1) {
                        if !fp.writes_cover(&path) {
                            clean = false;
                            violations.push(AnalysisViolation {
                                kind: ViolationKind::FootprintUnderApproximation,
                                type_name: type_name.to_owned(),
                                method: ms.method.clone(),
                                detail: format!(
                                    "observed write at {path:?} not in declared writes {:?} ({})",
                                    fp.writes,
                                    render_case(state, argv, &[])
                                ),
                            });
                            break 'outer;
                        }
                    }
                }
            }
        }
        if clean {
            sanitized.insert(&ms.method);
        }
    }

    // --- access-witness sanitizer ----------------------------------------
    let (witness_violations, warnings, refuted) =
        witness_sanitize(registry, type_name, spaces, space, &sanitized);
    violations.extend(witness_violations);
    for m in &refuted {
        sanitized.remove(m.as_str());
    }

    // --- pairwise commutativity -----------------------------------------
    let mut pairs = Vec::new();
    for (i, ms1) in spaces.iter().enumerate() {
        for ms2 in spaces.iter().skip(i) {
            let (a, b) = if ms1.method <= ms2.method {
                (ms1, ms2)
            } else {
                (ms2, ms1)
            };
            let fx1 = registry.effect_of(type_name, &a.method);
            let fx2 = registry.effect_of(type_name, &b.method);
            // Static judgment: disjoint declared footprints for EVERY
            // argument pair. This scans the full (uncapped) argument
            // product — it is pure footprint evaluation, no execution —
            // and requires both spaces to be exhaustive, since the verdict
            // generalizes to arbitrary runtime arguments.
            let static_commute = match (fx1, fx2) {
                (Some(f1), Some(f2)) if a.args_exhaustive && b.args_exhaustive => {
                    a.args.iter().all(|a1| {
                        let fp1 = f1.footprint(ArgView::new(a1));
                        b.args
                            .iter()
                            .all(|a2| fp1.disjoint(&f2.footprint(ArgView::new(a2))))
                    })
                }
                _ => false,
            }
            // Diagonal pairs may instead carry a declared `self_commuting`
            // claim (e.g. blind counters: the write overlaps itself, but
            // addition is order-insensitive). The claim is accepted only
            // with exhaustive argument coverage, and the dynamic sweep
            // below refutes a false one the same way it refutes an
            // under-declared footprint.
            || (a.method == b.method
                && a.args_exhaustive
                && fx1.is_some_and(EffectSpec::is_self_commuting));
            let mut counterexample = None;
            let mut cases = 0usize;
            let mut truncated = false;
            'pair: for state in &space.states {
                for a1 in &a.args {
                    for a2 in &b.args {
                        if cases >= space.max_cases {
                            truncated = true;
                            break 'pair;
                        }
                        let ab = run_seq(
                            registry,
                            type_name,
                            state,
                            &[(&a.method, a1), (&b.method, a2)],
                        );
                        let ba = run_seq(
                            registry,
                            type_name,
                            state,
                            &[(&b.method, a2), (&a.method, a1)],
                        );
                        cases += 1;
                        let (Some((rab, sab)), Some((rba, sba))) = (ab, ba) else {
                            continue;
                        };
                        // s1;s2 ≡ s2;s1: same final snapshot AND each op
                        // reports the same result in both orders.
                        if sab != sba || rab[0] != rba[1] || rab[1] != rba[0] {
                            counterexample = Some(render_case(state, a1, a2));
                            break 'pair;
                        }
                    }
                }
            }
            let complete =
                space.states_exhaustive && a.args_exhaustive && b.args_exhaustive && !truncated;
            let static_ok = static_commute
                && sanitized.contains(a.method.as_str())
                && sanitized.contains(b.method.as_str());
            let classification = if counterexample.is_some() {
                if static_ok {
                    // A semantic counterexample under a static "disjoint"
                    // verdict means the declaration is wrong in a way that
                    // slipped past both the write-diff sanitizer and the
                    // witness probes — a dependence no perturbation
                    // surfaced. Rare since the witness sanitizer refutes
                    // undeclared reads directly, but kept as a backstop.
                    violations.push(AnalysisViolation {
                        kind: ViolationKind::StaticSemanticDisagreement,
                        type_name: type_name.to_owned(),
                        method: format!("{};{}", a.method, b.method),
                        detail: counterexample.clone().unwrap_or_default(),
                    });
                }
                Classification::Conflict
            } else if refuted.contains(a.method.as_str()) || refuted.contains(b.method.as_str()) {
                // A witness-refuted footprint poisons every judgment about
                // the method: the enumeration sweep only exercises the
                // states it was given, and a method caught accessing
                // outside its declaration is exactly the kind whose
                // conflicts hide in states the sweep missed. Force the
                // pair conservative, excluding the method from the matrix
                // (and hence from the hybrid path's universal commuters).
                Classification::Conflict
            } else if complete || static_ok {
                Classification::Commute
            } else {
                Classification::Unknown
            };
            pairs.push(PairReport {
                a: a.method.clone(),
                b: b.method.clone(),
                classification,
                cases,
                static_commute,
                counterexample,
            });
        }
    }

    // Belt and braces on top of the space sort: the report's pair list is
    // ordered by (a, b) no matter how the loop above evolves.
    pairs.sort_by(|x: &PairReport, y: &PairReport| (&x.a, &x.b).cmp(&(&y.a, &y.b)));

    AppReport {
        type_name: type_name.to_owned(),
        methods,
        pairs,
        violations,
        warnings,
    }
}

/// Renders a full analysis run as the archivable JSON document (schema
/// version 2):
///
/// ```json
/// {"version": 2, "apps": [{"type": ..., "methods": [...], "clean": true,
///   "pairs": [{"a", "b", "classification", "cases", "static_commute",
///   "counterexample"}, ...], "violations": [...], "warnings": [...]}]}
/// ```
///
/// Version 2 extended version 1 with the per-app `warnings` list (the
/// witness sanitizer's dead-footprint advisories) and the two witness
/// violation kinds in `violations[].kind`; version 3 adds the optional
/// per-app `shard_plan` object ([`report_to_json_with_plans`]). Everything
/// earlier versions carried is unchanged, so readers of any accepted
/// version interoperate.
///
/// CI archives this file per run; [`matrices_from_json`] reads it back
/// into a [`CommuteMatrix`] so downstream tools (the model checker, the
/// runtime's hybrid path) reuse the validated verdicts without
/// re-running the bounded-exhaustive validator, and
/// [`guesstimate_core::ShardPlan::from_json_archive`] recovers the
/// shard plan for the runtime's router.
pub fn report_to_json(reports: &[AppReport]) -> String {
    report_to_json_with_plans(reports, None)
}

/// [`report_to_json`] with an optional shard plan: each app whose type the
/// plan covers gains a `"shard_plan"` field. Prefix patterns render via
/// [`guesstimate_core::PathPattern::render`], which percent-escapes `/`
/// (and pattern metacharacters) inside literal segments so a rendered
/// prefix always splits unambiguously.
pub fn report_to_json_with_plans(
    reports: &[AppReport],
    plans: Option<&guesstimate_core::ShardPlan>,
) -> String {
    // Keys are written in sorted order, the order archives have always had.
    json::object(|w| {
        w.key("apps").array(|w| {
            for r in reports {
                let plan = plans.and_then(|p| p.types.get(&r.type_name));
                w.object(|w| write_app(w, r, plan));
            }
        });
        w.field("version", 3u32);
    })
}

fn write_app(w: &mut json::JsonWriter, r: &AppReport, plan: Option<&guesstimate_core::TypePlan>) {
    use guesstimate_core::Routing;
    let strings = |w: &mut json::JsonWriter, list: &[String]| {
        w.array(|w| {
            for s in list {
                w.value(s);
            }
        });
    };
    w.field("clean", r.is_clean());
    strings(w.key("methods"), &r.methods);
    w.key("pairs").array(|w| {
        for p in &r.pairs {
            w.object(|w| {
                w.field("a", &p.a)
                    .field("b", &p.b)
                    .field("cases", p.cases)
                    .field("classification", p.classification.to_string())
                    .field("counterexample", p.counterexample.as_ref())
                    .field("static_commute", p.static_commute);
            });
        }
    });
    if let Some(tp) = plan {
        w.key("shard_plan").object(|w| {
            w.key("components").array(|w| {
                for (i, c) in tp.components.iter().enumerate() {
                    w.object(|w| {
                        w.field("id", i).field("keyed", c.keyed);
                        let prefixes: Vec<String> = c.prefixes.iter().map(|p| p.render()).collect();
                        strings(w.key("prefixes"), &prefixes);
                    });
                }
            });
            w.key("routes").object(|w| {
                for (method, route) in &tp.routes {
                    w.key(method).object(|w| match route {
                        Routing::Local { component, key_arg } => {
                            w.field("component", *component)
                                .field("key_arg", *key_arg)
                                .field("kind", "local");
                        }
                        Routing::CrossShard => {
                            w.field("kind", "cross");
                        }
                    });
                }
            });
        });
    }
    w.field("type", &r.type_name);
    strings(w.key("universal_commuters"), &r.universal_commuters());
    w.key("violations").array(|w| {
        for v in &r.violations {
            w.object(|w| {
                w.field("detail", &v.detail)
                    .field("kind", v.kind.to_string())
                    .field("method", &v.method);
            });
        }
    });
    strings(w.key("warnings"), &r.warnings);
}

/// Reads an archive written by [`report_to_json`] back into the combined
/// [`CommuteMatrix`] over all apps (the union of every app's validated
/// always-commute pairs).
///
/// # Errors
///
/// Returns a description of the first syntactic or shape problem; an
/// archive recording any `Conflict`-free schema but zero apps yields an
/// empty matrix, not an error.
pub fn matrices_from_json(text: &str) -> Result<CommuteMatrix, String> {
    use json::Json;
    let doc = Json::parse(text)?;
    // Accept every schema version whose `pairs` shape is unchanged:
    // versions 2 and 3 only added fields this reader ignores.
    match doc.get("version").and_then(Json::as_u64) {
        Some(1..=3) => {}
        Some(v) => return Err(format!("unsupported archive version {v}")),
        None => return Err("missing `version`".to_owned()),
    }
    let apps = doc
        .get("apps")
        .and_then(Json::as_list)
        .ok_or("missing `apps` array")?;
    let mut matrix = CommuteMatrix::new();
    for app in apps {
        let ty = app
            .get("type")
            .and_then(Json::as_str)
            .ok_or("app missing `type`")?;
        let pairs = app
            .get("pairs")
            .and_then(Json::as_list)
            .ok_or("app missing `pairs`")?;
        for p in pairs {
            let (Some(a), Some(b), Some(c)) = (
                p.get("a").and_then(Json::as_str),
                p.get("b").and_then(Json::as_str),
                p.get("classification").and_then(Json::as_str),
            ) else {
                return Err("pair missing a/b/classification".to_owned());
            };
            if c == "Commute" {
                matrix.insert(ty, a, b);
            }
        }
    }
    Ok(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use guesstimate_core::{args, EffectSpec, Footprint, GState, RestoreError, ShardPlan};

    /// Two independent cells plus an append-only log.
    #[derive(Clone, Default)]
    struct Cells {
        a: i64,
        b: i64,
        log: Vec<i64>,
    }

    impl GState for Cells {
        const TYPE_NAME: &'static str = "Cells";
        fn snapshot(&self) -> Value {
            Value::map([
                ("a", Value::from(self.a)),
                ("b", Value::from(self.b)),
                ("log", self.log.iter().map(|&x| Value::from(x)).collect()),
            ])
        }
        fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
            let shape = || RestoreError::shape("cells");
            self.a = v.field("a").and_then(Value::as_i64).ok_or_else(shape)?;
            self.b = v.field("b").and_then(Value::as_i64).ok_or_else(shape)?;
            self.log = v
                .field("log")
                .and_then(Value::as_list)
                .ok_or_else(shape)?
                .iter()
                .map(|x| x.as_i64().ok_or_else(shape))
                .collect::<Result<_, _>>()?;
            Ok(())
        }
    }

    fn cell_effect(key: &'static str) -> EffectSpec {
        EffectSpec::new(move |_| Footprint::new().reads([key]).writes([key]))
    }

    fn registry() -> OpRegistry {
        let mut r = OpRegistry::new();
        r.register_type::<Cells>();
        r.register_with_effects::<Cells>("set_a", cell_effect("a"), |s, a| {
            let Some(v) = a.i64(0) else { return false };
            s.a = v;
            true
        });
        r.register_with_effects::<Cells>("set_b", cell_effect("b"), |s, a| {
            let Some(v) = a.i64(0) else { return false };
            s.b = v;
            true
        });
        r.register_with_effects::<Cells>(
            "append",
            EffectSpec::new(|_| Footprint::new().reads(["log"]).writes(["log"])),
            |s, a| {
                let Some(v) = a.i64(0) else { return false };
                s.log.push(v);
                true
            },
        );
        // BUG for the sanitizer: declares `a` but also writes `b`.
        r.register_with_effects::<Cells>("sneaky", cell_effect("a"), |s, a| {
            let Some(v) = a.i64(0) else { return false };
            s.a = v;
            s.b = v;
            true
        });
        // BUG for the witness sanitizer: writes exactly what it declares,
        // but silently *reads* `b` — invisible to the write-diff check.
        r.register_with_effects::<Cells>("copy_b_to_a", cell_effect("a"), |s, _| {
            s.a = s.b;
            true
        });
        r
    }

    fn states() -> Vec<Value> {
        let mut one = Cells {
            a: 1,
            ..Cells::default()
        };
        one.log.push(7);
        vec![GState::snapshot(&Cells::default()), GState::snapshot(&one)]
    }

    fn spc(method: &str) -> MethodSpace {
        MethodSpace {
            method: method.to_owned(),
            args: vec![args![1], args![2]],
            // Small-scope abstraction: the cell setters ignore which value
            // is stored, so two representatives cover the space.
            args_exhaustive: true,
        }
    }

    #[test]
    fn diff_reports_leaf_and_structural_changes() {
        let mut x = Cells::default();
        let pre = GState::snapshot(&x);
        x.a = 5;
        x.log.push(1);
        let d = snapshot_diff(&pre, &GState::snapshot(&x));
        assert_eq!(d, vec!["a".to_owned(), "log".to_owned()]);
        assert!(snapshot_diff(&pre, &pre).is_empty());
        // Equal-length lists diff per index.
        let l1: Value = [1, 2].iter().map(|&x| Value::from(x)).collect();
        let l2: Value = [1, 3].iter().map(|&x| Value::from(x)).collect();
        assert_eq!(snapshot_diff(&l1, &l2), vec!["1".to_owned()]);
        // Type mismatch at the root reports the root.
        assert_eq!(snapshot_diff(&Value::from(1), &l2), vec![String::new()]);
    }

    #[test]
    fn disjoint_footprints_classify_as_commute() {
        let report = analyze_app(
            &registry(),
            "Cells",
            &[spc("set_a"), spc("set_b"), spc("append")],
            &CaseSpace::sampled(states(), 10_000),
        );
        assert_eq!(
            report.classification("set_a", "set_b"),
            Some(Classification::Commute),
            "statically disjoint"
        );
        assert_eq!(
            report.classification("set_a", "append"),
            Some(Classification::Commute)
        );
        // sneaky is registered but unanalyzed → violation, not a crash.
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::UnanalyzedMethod && v.method == "sneaky"));
    }

    #[test]
    fn json_archive_roundtrips_to_the_same_matrix() {
        let report = analyze_app(
            &registry(),
            "Cells",
            &[spc("set_a"), spc("set_b"), spc("append")],
            &CaseSpace::sampled(states(), 10_000),
        );
        let direct = report.commute_matrix();
        let text = report_to_json(std::slice::from_ref(&report));
        let restored = matrices_from_json(&text).expect("archive parses");
        assert_eq!(restored.len(), direct.len());
        for m1 in &report.methods {
            for m2 in &report.methods {
                assert_eq!(
                    restored.commutes("Cells", m1, m2),
                    direct.commutes("Cells", m1, m2),
                    "{m1};{m2}"
                );
            }
        }
        // Violations and verdicts are preserved verbatim.
        let doc = json::Json::parse(&text).unwrap();
        let app = &doc.get("apps").unwrap().as_list().unwrap()[0];
        assert_eq!(app.get("clean").unwrap().as_bool(), Some(false));
        assert!(!app.get("violations").unwrap().as_list().unwrap().is_empty());
    }

    #[test]
    fn matrices_from_json_rejects_bad_archives() {
        assert!(matrices_from_json("{").is_err());
        assert!(matrices_from_json("{\"apps\": []}").is_err(), "no version");
        // An unknown future version fails with a *named* error, not a panic.
        let err = matrices_from_json("{\"version\": 4, \"apps\": []}").unwrap_err();
        assert!(err.contains("unsupported archive version 4"), "{err}");
        let err = ShardPlan::from_json_archive("{\"version\": 4, \"apps\": []}").unwrap_err();
        assert!(err.contains("unsupported archive version 4"), "{err}");
        // All shipped schema versions are accepted: v1 archives predate
        // the witness fields, v2 archives carry them, v3 adds shard plans.
        for v in [1, 2, 3] {
            let empty = matrices_from_json(&format!("{{\"version\": {v}, \"apps\": []}}")).unwrap();
            assert!(empty.is_empty());
        }
    }

    /// Version-negotiation fixtures: a minimal archive of each shipped
    /// schema version loads into the same commute matrix.
    #[test]
    fn matrices_from_json_loads_v1_v2_v3_fixtures() {
        let v1 = r#"{"version": 1, "apps": [{"type": "Cells", "pairs": [
            {"a": "set_a", "b": "set_b", "classification": "Commute"}]}]}"#;
        let v2 = r#"{"version": 2, "apps": [{"type": "Cells", "warnings": [], "pairs": [
            {"a": "set_a", "b": "set_b", "classification": "Commute",
             "cases": 4, "static_commute": true, "counterexample": null}]}]}"#;
        let v3 = r#"{"version": 3, "apps": [{"type": "Cells", "warnings": [], "pairs": [
            {"a": "set_a", "b": "set_b", "classification": "Commute",
             "cases": 4, "static_commute": true, "counterexample": null}],
            "shard_plan": {"components": [{"id": 0, "keyed": false, "prefixes": ["a"]}],
                           "routes": {"set_a": {"kind": "local", "component": 0, "key_arg": null},
                                      "set_b": {"kind": "cross"}}}}]}"#;
        for text in [v1, v2, v3] {
            let m = matrices_from_json(text).unwrap();
            assert!(m.commutes("Cells", "set_a", "set_b"), "fixture: {text}");
        }
        // Only the v3 fixture carries a plan; earlier versions load empty.
        assert!(ShardPlan::from_json_archive(v1).unwrap().types.is_empty());
        assert!(ShardPlan::from_json_archive(v2).unwrap().types.is_empty());
        let plan = ShardPlan::from_json_archive(v3).unwrap();
        let tp = &plan.types["Cells"];
        assert_eq!(tp.components.len(), 1);
        assert!(!tp.components[0].keyed);
        assert_eq!(
            tp.routes["set_a"],
            guesstimate_core::Routing::Local {
                component: 0,
                key_arg: None
            }
        );
        assert_eq!(tp.routes["set_b"], guesstimate_core::Routing::CrossShard);
    }

    /// The exact bytes of a one-app v3 archive with a shard plan.
    #[test]
    fn archive_matches_its_golden_bytes() {
        use guesstimate_core::{ComponentPlan, PathPattern, Routing, TypePlan};
        let pair = |a: &str, b: &str, classification, counterexample: Option<&str>| PairReport {
            a: a.to_owned(),
            b: b.to_owned(),
            classification,
            cases: 4,
            static_commute: counterexample.is_none(),
            counterexample: counterexample.map(str::to_owned),
        };
        let report = AppReport {
            type_name: "Cells".to_owned(),
            methods: vec!["set_a".to_owned(), "set_b".to_owned()],
            pairs: vec![
                pair(
                    "set_a",
                    "set_a",
                    Classification::Conflict,
                    Some("a=1 \"x\""),
                ),
                pair("set_a", "set_b", Classification::Commute, None),
                pair("set_b", "set_b", Classification::Commute, None),
            ],
            violations: vec![AnalysisViolation {
                kind: ViolationKind::Nondeterminism,
                type_name: "Cells".to_owned(),
                method: "set_b".to_owned(),
                detail: "flaky".to_owned(),
            }],
            warnings: vec!["w".to_owned()],
        };
        let component = |p: &str| ComponentPlan {
            prefixes: vec![PathPattern::parse(p).unwrap()],
            keyed: false,
        };
        let local = |component, key_arg| Routing::Local { component, key_arg };
        let mut plan = ShardPlan::new();
        plan.types.insert(
            "Cells".to_owned(),
            TypePlan {
                components: vec![component("a"), component("b")],
                routes: [
                    ("set_a".to_owned(), local(0, None)),
                    ("set_b".to_owned(), local(1, Some(0))),
                    ("mix".to_owned(), Routing::CrossShard),
                ]
                .into(),
            },
        );
        assert_eq!(
            report_to_json_with_plans(std::slice::from_ref(&report), Some(&plan)),
            concat!(
                r#"{"apps":[{"clean":false,"methods":["set_a","set_b"],"pairs":["#,
                r#"{"a":"set_a","b":"set_a","cases":4,"classification":"Conflict","counterexample":"a=1 \"x\"","static_commute":false},"#,
                r#"{"a":"set_a","b":"set_b","cases":4,"classification":"Commute","counterexample":null,"static_commute":true},"#,
                r#"{"a":"set_b","b":"set_b","cases":4,"classification":"Commute","counterexample":null,"static_commute":true}],"#,
                r#""shard_plan":{"components":[{"id":0,"keyed":false,"prefixes":["a"]},{"id":1,"keyed":false,"prefixes":["b"]}],"#,
                r#""routes":{"mix":{"kind":"cross"},"set_a":{"component":0,"key_arg":null,"kind":"local"},"#,
                r#""set_b":{"component":1,"key_arg":0,"kind":"local"}}},"#,
                r#""type":"Cells","universal_commuters":["set_b"],"#,
                r#""violations":[{"detail":"flaky","kind":"nondeterminism","method":"set_b"}],"warnings":["w"]}],"#,
                r#""version":3}"#,
            )
        );
    }

    /// A derived plan round-trips through the v3 archive exactly.
    #[test]
    fn shard_plan_roundtrips_through_v3_json() {
        let r = registry();
        let spaces = [spc("set_a"), spc("set_b"), spc("append"), spc("sneaky")];
        let space = CaseSpace::sampled(states(), 1_000);
        let report = analyze_app(&r, "Cells", &spaces, &space);
        let tp = shard::derive_type_plan(&r, "Cells", &spaces, &report);
        assert_eq!(
            shard::derive_type_plan(&r, "Cells", &spaces, &report),
            tp,
            "derivation is deterministic"
        );
        let mut plan = guesstimate_core::ShardPlan::new();
        plan.types.insert("Cells".to_owned(), tp);
        let text = report_to_json_with_plans(std::slice::from_ref(&report), Some(&plan));
        let reread = ShardPlan::from_json_archive(&text).unwrap();
        assert_eq!(reread, plan);
    }

    #[test]
    fn self_pairs_detect_order_sensitivity() {
        let report = analyze_app(
            &registry(),
            "Cells",
            &[spc("set_a"), spc("append")],
            &CaseSpace::sampled(states(), 10_000),
        );
        // set_a(1); set_a(2) leaves a=2 vs a=1 — conflict on the diagonal.
        assert_eq!(
            report.classification("set_a", "set_a"),
            Some(Classification::Conflict)
        );
        // append(1); append(2) orders the log differently.
        assert_eq!(
            report.classification("append", "append"),
            Some(Classification::Conflict)
        );
    }

    #[test]
    fn footprint_sanitizer_refutes_underdeclared_writes() {
        let report = analyze_app(
            &registry(),
            "Cells",
            &[spc("set_a"), spc("set_b"), spc("append"), spc("sneaky")],
            &CaseSpace::sampled(states(), 10_000),
        );
        assert!(report.violations.iter().any(|v| {
            v.kind == ViolationKind::FootprintUnderApproximation && v.method == "sneaky"
        }));
        // sneaky's static "disjointness" with set_b must NOT yield Commute:
        // its footprint failed the sanitizer.
        assert_ne!(
            report.classification("set_b", "sneaky"),
            Some(Classification::Commute)
        );
    }

    #[test]
    fn witness_sanitizer_refutes_undeclared_reads() {
        let report = analyze_app(
            &registry(),
            "Cells",
            &[spc("set_a"), spc("set_b"), spc("copy_b_to_a")],
            &CaseSpace::sampled(states(), 10_000),
        );
        assert!(
            report.violations.iter().any(|v| {
                v.kind == ViolationKind::UndeclaredRead
                    && v.method == "copy_b_to_a"
                    && v.detail.contains("`b`")
            }),
            "violations: {:?}",
            report.violations
        );
        // Without the witness, set_b × copy_b_to_a would pass as Commute —
        // declared footprints {b} and {a} are disjoint and the write
        // sanitizer sees nothing wrong. The refutation must force it (and
        // every other pair of the method) to Conflict.
        assert_eq!(
            report.classification("set_b", "copy_b_to_a"),
            Some(Classification::Conflict)
        );
        assert_eq!(
            report.classification("set_a", "copy_b_to_a"),
            Some(Classification::Conflict)
        );
        assert!(!report
            .universal_commuters()
            .contains(&"copy_b_to_a".to_owned()));
        // The honest pair is untouched by the refutation.
        assert_eq!(
            report.classification("set_a", "set_b"),
            Some(Classification::Commute)
        );
    }

    #[test]
    fn dead_footprints_warn_without_failing_the_lint() {
        let mut r = OpRegistry::new();
        r.register_type::<Cells>();
        // Over-declared: claims to read `b`, never does.
        r.register_with_effects::<Cells>(
            "bump_a",
            EffectSpec::new(|_| Footprint::new().reads(["a", "b"]).writes(["a"])),
            |s, _| {
                s.a += 1;
                true
            },
        );
        let report = analyze_app(
            &r,
            "Cells",
            &[spc("bump_a")],
            &CaseSpace::sampled(states(), 10_000),
        );
        assert!(report.is_clean(), "over-approximation is sound");
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("bump_a") && w.contains("\"b\"")),
            "warnings: {:?}",
            report.warnings
        );
        // The advisory reaches the archive too.
        let text = report_to_json(std::slice::from_ref(&report));
        let doc = json::Json::parse(&text).unwrap();
        assert_eq!(doc.get("version").and_then(json::Json::as_u64), Some(3));
        let app = &doc.get("apps").unwrap().as_list().unwrap()[0];
        assert!(!app.get("warnings").unwrap().as_list().unwrap().is_empty());
    }

    #[test]
    fn undeclared_effects_are_linted() {
        let mut r = registry();
        r.register_method::<Cells>("mystery", |_, _| true);
        let report = analyze_app(
            &r,
            "Cells",
            &[spc("set_a"), spc("set_b"), spc("append"), spc("sneaky")],
            &CaseSpace::sampled(states(), 1_000),
        );
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::UndeclaredEffect && v.method == "mystery"));
        assert!(!report.is_clean());
    }

    #[test]
    fn nondeterminism_is_detected() {
        use std::sync::atomic::{AtomicI64, Ordering};
        use std::sync::Arc;
        let mut r = OpRegistry::new();
        r.register_type::<Cells>();
        let counter = Arc::new(AtomicI64::new(0));
        r.register_with_effects::<Cells>("flaky", cell_effect("a"), move |s, _| {
            s.a = counter.fetch_add(1, Ordering::Relaxed);
            true
        });
        let report = analyze_app(
            &r,
            "Cells",
            &[spc("flaky")],
            &CaseSpace::sampled(states(), 1_000),
        );
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::Nondeterminism && v.method == "flaky"));
    }

    #[test]
    fn complete_enumeration_proves_commute_without_effects() {
        let mut r = OpRegistry::new();
        r.register_type::<Cells>();
        // No EffectSpec at all: only exhaustive enumeration can prove it.
        r.register_method::<Cells>("bump_a", |s, _| {
            s.a += 1;
            true
        });
        let spaces = [MethodSpace {
            method: "bump_a".to_owned(),
            args: vec![args![]],
            args_exhaustive: true,
        }];
        let report = analyze_app(&r, "Cells", &spaces, &CaseSpace::exhaustive(states()));
        assert_eq!(
            report.classification("bump_a", "bump_a"),
            Some(Classification::Commute),
            "increments commute; proven by complete enumeration"
        );
        // Still linted for the missing declaration.
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::UndeclaredEffect));
    }

    #[test]
    fn commute_matrix_extraction_and_formatting() {
        let report = analyze_app(
            &registry(),
            "Cells",
            &[spc("set_a"), spc("set_b"), spc("append"), spc("sneaky")],
            &CaseSpace::sampled(states(), 10_000),
        );
        let m = report.commute_matrix();
        assert!(m.commutes("Cells", "set_a", "set_b"));
        assert!(!m.commutes("Cells", "set_a", "set_a"));
        let grid = report.format_matrix();
        assert!(grid.contains("Cells"));
        assert!(grid.contains("set_a"));
        assert!(grid.contains('C') && grid.contains('X'));
    }
}
