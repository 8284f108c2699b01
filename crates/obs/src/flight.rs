//! The violation flight recorder.
//!
//! A bounded, allocation-light [`Tracer`] keeping the most recent trace
//! events per machine in fixed-capacity rings. When something fires — a
//! model-checking oracle, a paranoid-mode invariant, a witness or shard
//! escape, or a panic in a bench binary — the recorder dumps a
//! **postmortem bundle**: the captured causal timeline, per-machine
//! [`StateSummary`] snapshots, and the result of a happens-before check
//! over the captured window. The bundle is a single JSON document meant
//! to sit next to a ddmin-shrunk schedule so a human can replay the last
//! seconds before the violation.
//!
//! Ring truncation means old `msg_sent` events age out while their
//! receives survive; the embedded happens-before check therefore runs in
//! lenient mode (orphan receives are counted, not flagged).

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::Arc;

use guesstimate_core::json::{self, Json, JsonWriter};
use guesstimate_net::{TraceRecord, Tracer};
use guesstimate_runtime::StateSummary;
use parking_lot::Mutex;

use crate::timeline::{check_happens_before, merge};
use crate::trace_json::{record_to_json, write_record, TraceLine};

/// Default per-machine ring capacity.
pub const DEFAULT_CAP: usize = 256;

struct Ring {
    events: VecDeque<TraceRecord>,
    dropped: u64,
}

/// A bounded per-machine ring buffer of recent trace events.
pub struct FlightRecorder {
    cap: usize,
    rings: Mutex<BTreeMap<u32, Ring>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rings = self.rings.lock();
        f.debug_struct("FlightRecorder")
            .field("cap", &self.cap)
            .field("machines", &rings.len())
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_CAP)
    }
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `cap` events per machine.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            rings: Mutex::new(BTreeMap::new()),
        }
    }

    /// Every captured event, merged into causal timeline order.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let rings = self.rings.lock();
        let mut all: Vec<TraceRecord> = rings
            .values()
            .flat_map(|r| r.events.iter().copied())
            .collect();
        all.sort_by_key(|r| r.at);
        all
    }

    /// Total events currently held across all rings.
    pub fn len(&self) -> usize {
        self.rings.lock().values().map(|r| r.events.len()).sum()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the postmortem bundle: `reason`, per-machine captured
    /// events (with how many older events the ring dropped), the machine
    /// state summaries, and a lenient happens-before check over the
    /// captured window.
    pub fn dump_json(&self, reason: &str, states: &[StateSummary]) -> String {
        let rings = self.rings.lock();
        let lines = rings
            .values()
            .flat_map(|ring| &ring.events)
            .filter_map(|r| TraceLine::parse(&record_to_json(r)).ok());
        let hb = check_happens_before(&merge(lines.collect()), false);
        json::object(|w| {
            w.field("reason", reason).field("cap", self.cap);
            hb.write_json(w.key("hb"));
            w.key("machines").array(|w| {
                for (m, ring) in rings.iter() {
                    w.object(|w| {
                        w.field("machine", *m).field("dropped", ring.dropped);
                        w.key("events").array(|w| {
                            for r in &ring.events {
                                w.object(|w| write_record(w, r));
                            }
                        });
                    });
                }
            });
            w.key("states").array(|w| {
                for s in states {
                    w.object(|w| write_state(w, s));
                }
            });
        })
    }

    /// Writes the postmortem bundle to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error.
    pub fn write_postmortem(
        &self,
        path: &Path,
        reason: &str,
        states: &[StateSummary],
    ) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.dump_json(reason, states))
    }

    /// Installs a panic hook that dumps this recorder to `path` (with
    /// the panic message as the reason) before the previous hook runs.
    /// Used by the bench binaries so a crash mid-experiment still leaves
    /// a postmortem next to the partial artifacts.
    pub fn install_panic_dump(recorder: Arc<FlightRecorder>, path: std::path::PathBuf) {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let reason = format!("panic: {info}");
            let _ = recorder.write_postmortem(&path, &reason, &[]);
            previous(info);
        }));
    }
}

/// Fans one trace stream out to two sinks — typically a full archive
/// sink (recording tracer or JSONL stream) plus a [`FlightRecorder`], so
/// a binary both keeps the complete run and holds a bounded crash ring.
pub struct TeeTracer {
    a: Arc<dyn Tracer>,
    b: Arc<dyn Tracer>,
}

impl std::fmt::Debug for TeeTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeTracer").finish_non_exhaustive()
    }
}

impl TeeTracer {
    /// Builds the tee. Both sinks see every record, `a` first.
    pub fn new(a: Arc<dyn Tracer>, b: Arc<dyn Tracer>) -> Self {
        TeeTracer { a, b }
    }
}

impl Tracer for TeeTracer {
    fn record(&self, record: TraceRecord) {
        self.a.record(record);
        self.b.record(record);
    }
}

impl Tracer for FlightRecorder {
    fn record(&self, record: TraceRecord) {
        let mut rings = self.rings.lock();
        let ring = rings.entry(record.source.index()).or_insert_with(|| Ring {
            events: VecDeque::with_capacity(self.cap),
            dropped: 0,
        });
        if ring.events.len() == self.cap {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(record);
    }
}

/// The members of one machine's state summary (digests as exact integers).
fn write_state(w: &mut JsonWriter, s: &StateSummary) {
    w.field("machine", s.id.index())
        .field("is_master", s.is_master)
        .field("joined", s.joined)
        .field("in_cohort", s.in_cohort)
        .field("active_round", s.active_round)
        .field("pending", s.pending)
        .field("completed", s.completed)
        .field("completed_serialized", s.completed_serialized)
        .field("committed_digest", s.committed_digest)
        .field("guess_digest", s.guess_digest)
        .field("guess_invariant_holds", s.guess_invariant_holds)
        .field("witness_violations", s.witness_violations)
        .field("shard_violations", s.shard_violations)
        .field("restarts", s.restarts);
}

/// What a validated postmortem bundle contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostmortemSummary {
    /// The recorded reason.
    pub reason: String,
    /// Machines with captured rings.
    pub machines: u64,
    /// Total captured events across rings.
    pub events: u64,
    /// State summaries embedded in the bundle.
    pub states: u64,
    /// Whether the embedded happens-before check passed.
    pub hb_ok: bool,
}

/// Validates a postmortem bundle: parses the document, requires the
/// `reason` / `hb` / `machines` / `states` sections, re-parses every
/// captured event as a trace line, and **re-runs** the happens-before
/// check on the captured timeline (lenient mode), cross-checking it
/// against the embedded verdict.
///
/// # Errors
///
/// Returns a human-readable description of the first malformation.
pub fn validate_postmortem(text: &str) -> Result<PostmortemSummary, String> {
    let v = Json::parse(text)?;
    let reason = v
        .get("reason")
        .and_then(Json::as_str)
        .ok_or("missing reason")?
        .to_owned();
    let hb_ok = v
        .get("hb")
        .and_then(|h| h.get("ok"))
        .and_then(Json::as_bool)
        .ok_or("missing hb.ok")?;
    let machines = v
        .get("machines")
        .and_then(Json::as_list)
        .ok_or("missing machines")?;
    let mut events = 0u64;
    let mut lines = Vec::new();
    for m in machines {
        m.get("machine")
            .and_then(Json::as_u64)
            .ok_or("machine entry missing index")?;
        for e in m
            .get("events")
            .and_then(Json::as_list)
            .ok_or("missing events")?
        {
            let line = TraceLine::from_json(e)
                .map_err(|err| format!("captured event malformed: {err}"))?;
            lines.push(line);
            events += 1;
        }
    }
    let states = v
        .get("states")
        .and_then(Json::as_list)
        .ok_or("missing states")?;
    for s in states {
        s.get("machine")
            .and_then(Json::as_u64)
            .ok_or("state entry missing machine")?;
    }
    let recheck = check_happens_before(&merge(lines), false);
    if recheck.ok() != hb_ok {
        return Err(format!(
            "embedded hb verdict ({hb_ok}) disagrees with recheck ({})",
            recheck.ok()
        ));
    }
    Ok(PostmortemSummary {
        reason,
        machines: machines.len() as u64,
        events,
        states: states.len() as u64,
        hb_ok,
    })
}

#[cfg(test)]
mod tests {
    use guesstimate_core::MachineId;
    use guesstimate_net::{SimTime, TraceEvent};

    use super::*;

    fn rec(at_ms: u64, source: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_millis(at_ms),
            source: MachineId::new(source),
            event,
        }
    }

    #[test]
    fn ring_keeps_only_the_last_cap_events() {
        let fr = FlightRecorder::new(3);
        for i in 0..10 {
            fr.record(rec(i, 0, TraceEvent::Restarted));
        }
        assert_eq!(fr.len(), 3);
        let snap = fr.snapshot();
        assert_eq!(snap[0].at, SimTime::from_millis(7));
        assert_eq!(snap[2].at, SimTime::from_millis(9));
    }

    #[test]
    fn rings_are_per_machine() {
        let fr = FlightRecorder::new(2);
        for i in 0..5 {
            fr.record(rec(i, 0, TraceEvent::Restarted));
            fr.record(rec(i, 1, TraceEvent::Restarted));
        }
        assert_eq!(fr.len(), 4, "two events kept per machine");
    }

    #[test]
    fn dump_validates_and_reports_truncation() {
        let fr = FlightRecorder::new(2);
        for i in 0..4 {
            fr.record(rec(
                i,
                0,
                TraceEvent::MsgSent {
                    stamp: i,
                    kind: "ops",
                    bytes: 10,
                },
            ));
        }
        fr.record(rec(
            9,
            1,
            TraceEvent::MsgReceived {
                origin: MachineId::new(0),
                stamp: 3,
                kind: "ops",
            },
        ));
        let bundle = fr.dump_json("test \"reason\"", &[]);
        let summary = validate_postmortem(&bundle).expect("bundle well-formed");
        assert_eq!(summary.reason, "test \"reason\"");
        assert_eq!(summary.machines, 2);
        assert_eq!(summary.events, 3);
        assert!(summary.hb_ok, "receive of stamp 3 matches a kept send");
        assert!(bundle.contains("\"dropped\":2"));
    }

    #[test]
    fn bundle_matches_its_golden_bytes() {
        let fr = FlightRecorder::new(4);
        fr.record(rec(
            1,
            0,
            TraceEvent::MsgSent {
                stamp: 0,
                kind: "ops",
                bytes: 10,
            },
        ));
        fr.record(rec(
            2,
            1,
            TraceEvent::MsgReceived {
                origin: MachineId::new(0),
                stamp: 0,
                kind: "ops",
            },
        ));
        // Both digests lie above 2^53, where an `f64` would round them.
        let state = StateSummary {
            id: MachineId::new(1),
            is_master: false,
            joined: true,
            in_cohort: true,
            active_round: None,
            pending: 2,
            completed: 9,
            completed_serialized: 8,
            committed_digest: u64::MAX - 1,
            guess_digest: (1 << 53) + 1,
            guess_invariant_holds: true,
            witness_violations: 0,
            shard_violations: 0,
            restarts: 1,
        };
        assert_eq!(
            fr.dump_json("golden \"r\"", &[state]),
            concat!(
                r#"{"reason":"golden \"r\"","cap":4,"#,
                r#""hb":{"ok":true,"sends":1,"receives":1,"matched":1,"orphans":0,"unreceived":0,"violations":0},"#,
                r#""machines":[{"machine":0,"dropped":0,"events":[{"at_us":1000,"src":0,"event":"msg_sent","stamp":0,"kind":"ops","bytes":10}]},"#,
                r#"{"machine":1,"dropped":0,"events":[{"at_us":2000,"src":1,"event":"msg_received","origin":0,"stamp":0,"kind":"ops"}]}],"#,
                r#""states":[{"machine":1,"is_master":false,"joined":true,"in_cohort":true,"active_round":null,"#,
                r#""pending":2,"completed":9,"completed_serialized":8,"committed_digest":18446744073709551614,"#,
                r#""guess_digest":9007199254740993,"guess_invariant_holds":true,"witness_violations":0,"#,
                r#""shard_violations":0,"restarts":1}]}"#,
            )
        );
    }

    #[test]
    fn validate_rejects_garbage_and_mismatched_verdicts() {
        assert!(validate_postmortem("not json").is_err());
        assert!(validate_postmortem("{\"reason\":\"x\"}").is_err());
        let fr = FlightRecorder::new(4);
        fr.record(rec(1, 0, TraceEvent::Restarted));
        let bundle = fr.dump_json("ok", &[]);
        let flipped = bundle.replace("\"ok\":true", "\"ok\":false");
        assert!(validate_postmortem(&flipped).is_err());
    }
}
