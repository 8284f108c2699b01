//! Every JSON decoder fails closed on malformed input.
//!
//! One valid document per decoder seeds the run: a checked-in schedule, a
//! v3 analysis archive with a shard plan, a trace line, a span line and a
//! flight-recorder postmortem bundle. Each seed is mutated three ways --
//! cut at every prefix, random bytes overwritten, deep nesting spliced in --
//! and every mutant goes through all seven decoders. Each must return `Ok`
//! or `Err`: a panic fails the test, and a stack overflow aborts it.

use guesstimate_analysis::matrices_from_json;
use guesstimate_core::json::Json;
use guesstimate_core::{MachineId, ShardPlan};
use guesstimate_mc::Schedule;
use guesstimate_net::{SimTime, TraceEvent, TraceRecord, Tracer};
use guesstimate_obs::{record_to_json, validate_postmortem, FlightRecorder, SpanLine, TraceLine};
use proptest::prelude::*;

const SCHEDULE: &str = include_str!("schedules/sudoku-tamper-swap.json");

const ARCHIVE: &str = r#"{
  "version": 3,
  "apps": [{
    "type": "Pair",
    "pairs": [{"a": "bump_a", "b": "mix", "classification": "Conflict"}],
    "shard_plan": {
      "components": [
        {"id": 0, "keyed": false, "prefixes": ["a"]},
        {"id": 1, "keyed": false, "prefixes": ["b"]}
      ],
      "routes": {
        "bump_a": {"kind": "local", "component": 0, "key_arg": null},
        "mix": {"kind": "cross"}
      }
    }
  }]
}"#;

const SPAN: &str = r#"{"machine":1,"seq":0,"issued_us":500,"flushed_us":2000,"committed_us":5000,"completed_us":5500,"round":1,"async":false,"exec_count":2,"lost":false}"#;

fn record(at_ms: u64, source: u32, event: TraceEvent) -> TraceRecord {
    TraceRecord {
        at: SimTime::from_millis(at_ms),
        source: MachineId::new(source),
        event,
    }
}

/// The five seeds, each valid for its own decoder.
fn seeds() -> [String; 5] {
    let sent = record(
        1,
        0,
        TraceEvent::MsgSent {
            stamp: 0,
            kind: "ops",
            bytes: 10,
        },
    );
    let fr = FlightRecorder::new(4);
    fr.record(sent);
    fr.record(record(
        2,
        1,
        TraceEvent::MsgReceived {
            origin: MachineId::new(0),
            stamp: 0,
            kind: "ops",
        },
    ));
    [
        SCHEDULE.to_owned(),
        ARCHIVE.to_owned(),
        record_to_json(&sent),
        SPAN.to_owned(),
        fr.dump_json("seed", &[]),
    ]
}

/// Runs every decoder over `text`. Only a panic or an abort can fail it.
fn decode_all(text: &str) {
    let _ = Json::parse(text);
    let _ = Schedule::from_json(text);
    let _ = ShardPlan::from_json_archive(text);
    let _ = matrices_from_json(text);
    let _ = TraceLine::parse(text);
    let _ = SpanLine::parse(text);
    let _ = validate_postmortem(text);
}

#[test]
fn seeds_decode_and_every_prefix_fails_closed() {
    let [schedule, archive, trace, span, bundle] = seeds();
    assert!(Schedule::from_json(&schedule).unwrap().tamper.is_some());
    assert!(ShardPlan::from_json_archive(&archive)
        .unwrap()
        .types
        .contains_key("Pair"));
    assert!(matrices_from_json(&archive).is_ok());
    assert_eq!(TraceLine::parse(&trace).unwrap().event, "msg_sent");
    assert_eq!(SpanLine::parse(&span).unwrap().seq, 0);
    assert_eq!(validate_postmortem(&bundle).unwrap().events, 2);
    for seed in seeds() {
        let seed = seed.trim_end();
        for end in (0..seed.len()).filter(|&i| seed.is_char_boundary(i)) {
            let prefix = &seed[..end];
            decode_all(prefix);
            assert!(
                Json::parse(prefix).is_err(),
                "a cut document parses: {prefix:?}"
            );
        }
    }
}

#[test]
fn deep_nesting_is_an_error_for_every_decoder() {
    for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
        assert!(Json::parse(&deep).is_err());
        assert!(Schedule::from_json(&deep).is_err());
        assert!(ShardPlan::from_json_archive(&deep).is_err());
        assert!(matrices_from_json(&deep).is_err());
        assert!(TraceLine::parse(&deep).is_err());
        assert!(SpanLine::parse(&deep).is_err());
        assert!(validate_postmortem(&deep).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn overwritten_bytes_fail_closed(
        seed in 0usize..5,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = seeds()[seed].clone().into_bytes();
        let len = bytes.len();
        for (at, b) in edits {
            bytes[at % len] = b;
        }
        decode_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn spliced_nesting_fails_closed(
        seed in 0usize..5,
        at in any::<usize>(),
        depth in 1usize..200,
        object in any::<bool>(),
    ) {
        let seed = &seeds()[seed];
        let mut cut = at % (seed.len() + 1);
        while !seed.is_char_boundary(cut) {
            cut -= 1;
        }
        let open = if object { "{\"a\":" } else { "[" };
        decode_all(&format!("{}{}{}", &seed[..cut], open.repeat(depth), &seed[cut..]));
    }
}
