//! Replayable schedules: the checker's choice alphabet and its on-disk
//! JSON form.
//!
//! A schedule is the complete record of one explored interleaving: the
//! preset that built the initial cluster, the optional tamper
//! specification (for seeded-mutation tests), and the sequence of
//! [`Step`]s taken from the post-prelude state. Choice identities are the
//! controlled scheduler's stable sequence numbers
//! ([`guesstimate_net::SchedNet`]), which are deterministic functions of
//! the steps taken so far — so a schedule file replays verbatim on a
//! freshly built cluster.
//!
//! The file format (schema v1, written by [`Schedule::to_json`]):
//!
//! ```json
//! {
//!   "version": 1,
//!   "preset": "sudoku",
//!   "tamper": {"victim": 1, "nth": 1, "swap": [0, 1]},
//!   "steps": [
//!     {"t": "timer"},
//!     {"t": "deliver", "seq": 12},
//!     {"t": "drop", "seq": 14},
//!     {"t": "admit", "seq": 3}
//!   ]
//! }
//! ```
//!
//! `tamper` is optional. During replay, a `deliver`/`drop`/`admit` whose
//! seq is no longer pending is skipped rather than failing: the
//! minimizer removes steps, which shifts the seq numbers of messages
//! created later, and skip-on-mismatch keeps shrunken candidates
//! meaningful (see `shrink`).

use guesstimate_analysis::json::{escape, Json};

/// One scheduling choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Step {
    /// Deliver the in-flight message with this seq.
    Deliver(u64),
    /// Drop (lose) the in-flight message with this seq.
    Drop(u64),
    /// Admit the staged joiner with this choice seq.
    Admit(u64),
    /// Fire the earliest armed timer (advances virtual time).
    Timer,
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Deliver(s) => write!(f, "deliver({s})"),
            Step::Drop(s) => write!(f, "drop({s})"),
            Step::Admit(s) => write!(f, "admit({s})"),
            Step::Timer => write!(f, "timer"),
        }
    }
}

/// A seeded mutation: on the `nth` (1-based) delivery of a flushed batch
/// to `victim` -- a `Msg::Ops`, or a `Msg::BeginApply` carrying the
/// master's -- swap the operation *ids* of the envelopes at positions
/// `swap.0` and `swap.1` of the batch.
///
/// Swapping ids (not positions) matters: receivers key a round's
/// operations by id and apply in id order, so an id swap inverts the
/// victim's apply order for those two operations — exactly the corruption
/// the committed-agreement oracles exist to catch. The swapped pair must
/// be non-commuting for the corruption to be observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TamperSpec {
    /// Machine whose incoming batch is corrupted.
    pub victim: u32,
    /// Which batch delivery to the victim to corrupt (1-based).
    pub nth: u64,
    /// Envelope positions whose ids are exchanged.
    pub swap: (usize, usize),
}

/// A replayable schedule: preset + optional tamper + choice sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Preset name (`scenario::Preset::by_name`).
    pub preset: String,
    /// Optional seeded mutation.
    pub tamper: Option<TamperSpec>,
    /// The choices, in order.
    pub steps: Vec<Step>,
}

impl Schedule {
    /// Renders the schedule as its JSON file form (pretty enough to diff:
    /// one step per line).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"preset\": {},\n", escape(&self.preset)));
        if let Some(t) = &self.tamper {
            out.push_str(&format!(
                "  \"tamper\": {{\"victim\": {}, \"nth\": {}, \"swap\": [{}, {}]}},\n",
                t.victim, t.nth, t.swap.0, t.swap.1
            ));
        }
        out.push_str("  \"steps\": [\n");
        for (i, s) in self.steps.iter().enumerate() {
            let body = match s {
                Step::Deliver(q) => format!("{{\"t\": \"deliver\", \"seq\": {q}}}"),
                Step::Drop(q) => format!("{{\"t\": \"drop\", \"seq\": {q}}}"),
                Step::Admit(q) => format!("{{\"t\": \"admit\", \"seq\": {q}}}"),
                Step::Timer => "{\"t\": \"timer\"}".to_owned(),
            };
            let comma = if i + 1 < self.steps.len() { "," } else { "" };
            out.push_str(&format!("    {body}{comma}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a schedule file.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntactic or shape problem.
    pub fn from_json(text: &str) -> Result<Schedule, String> {
        let doc = Json::parse(text)?;
        match doc.get("version").and_then(Json::as_u64) {
            Some(1) => {}
            Some(v) => return Err(format!("unsupported schedule version {v}")),
            None => return Err("missing `version`".to_owned()),
        }
        let preset = doc
            .get("preset")
            .and_then(Json::as_str)
            .ok_or("missing `preset`")?
            .to_owned();
        let tamper = match doc.get("tamper") {
            None | Some(Json::Null) => None,
            Some(t) => {
                let victim = t
                    .get("victim")
                    .and_then(Json::as_u64)
                    .ok_or("tamper missing `victim`")?;
                let nth = t
                    .get("nth")
                    .and_then(Json::as_u64)
                    .ok_or("tamper missing `nth`")?;
                let swap = t
                    .get("swap")
                    .and_then(Json::as_list)
                    .ok_or("tamper missing `swap`")?;
                let [a, b] = swap else {
                    return Err("tamper `swap` must have two entries".to_owned());
                };
                let index = |x: &Json| x.as_u64().and_then(|n| usize::try_from(n).ok());
                let (Some(a), Some(b)) = (index(a), index(b)) else {
                    return Err("tamper `swap` entries must be indices".to_owned());
                };
                Some(TamperSpec {
                    victim: u32::try_from(victim).map_err(|e| e.to_string())?,
                    nth,
                    swap: (a, b),
                })
            }
        };
        let mut steps = Vec::new();
        for (i, s) in doc
            .get("steps")
            .and_then(Json::as_list)
            .ok_or("missing `steps` array")?
            .iter()
            .enumerate()
        {
            let t = s
                .get("t")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("step {i} missing `t`"))?;
            let seq = || {
                s.get("seq")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("step {i} ({t}) missing `seq`"))
            };
            steps.push(match t {
                "deliver" => Step::Deliver(seq()?),
                "drop" => Step::Drop(seq()?),
                "admit" => Step::Admit(seq()?),
                "timer" => Step::Timer,
                other => return Err(format!("step {i}: unknown kind `{other}`")),
            });
        }
        Ok(Schedule {
            preset,
            tamper,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        let s = Schedule {
            preset: "sudoku".to_owned(),
            tamper: Some(TamperSpec {
                victim: 1,
                nth: 2,
                swap: (0, 3),
            }),
            steps: vec![Step::Timer, Step::Deliver(7), Step::Drop(9), Step::Admit(3)],
        };
        let text = s.to_json();
        assert_eq!(Schedule::from_json(&text).unwrap(), s);

        let no_tamper = Schedule {
            preset: "auction".to_owned(),
            tamper: None,
            steps: vec![Step::Deliver(0)],
        };
        assert_eq!(
            Schedule::from_json(&no_tamper.to_json()).unwrap(),
            no_tamper
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(Schedule::from_json("{}").is_err());
        assert!(Schedule::from_json(
            "{\"version\": 1, \"preset\": \"x\", \"steps\": [{\"t\": \"deliver\"}]}"
        )
        .is_err());
        assert!(Schedule::from_json(
            "{\"version\": 1, \"preset\": \"x\", \"steps\": [{\"t\": \"warp\"}]}"
        )
        .is_err());
    }
}
