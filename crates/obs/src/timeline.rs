//! Merging per-machine trace streams into one causally-ordered cluster
//! timeline, and checking the happens-before discipline of that timeline.
//!
//! Every message carries an origin stamp (allocated by the network driver
//! at the send *action*, so all legs of a broadcast share one stamp).
//! A trace is **causally consistent** when every `msg_received` has a
//! matching earlier `msg_sent` from its claimed origin. Dropped messages
//! legitimately leave sends without receives; faulty duplication
//! legitimately produces repeated receives of one stamp — neither is a
//! violation.

use std::collections::HashMap;

use guesstimate_core::json::JsonWriter;

use crate::trace_json::TraceLine;

/// Sorts trace lines into the canonical cluster-timeline order: by
/// timestamp, with sends before protocol events before receives at equal
/// timestamps (so a zero-latency hop still orders its send first), then
/// by machine and stamp for determinism.
pub fn merge(mut lines: Vec<TraceLine>) -> Vec<TraceLine> {
    lines.sort_by_key(|l| (l.at_us, event_rank(&l.event), l.src, l.stamp));
    lines
}

fn event_rank(event: &str) -> u8 {
    match event {
        "msg_sent" => 0,
        "msg_received" => 2,
        _ => 1,
    }
}

/// One happens-before violation found in a timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbViolation {
    /// Claimed sender of the message.
    pub origin: u32,
    /// The message stamp.
    pub stamp: u64,
    /// The machine that recorded the receive.
    pub receiver: u32,
    /// When the matching send was recorded, if it exists at all.
    pub sent_at_us: Option<u64>,
    /// When the receive was recorded.
    pub received_at_us: u64,
}

impl std::fmt::Display for HbViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.sent_at_us {
            Some(s) => write!(
                f,
                "machine {} received stamp {} from {} at {}us but it was sent at {}us",
                self.receiver, self.stamp, self.origin, self.received_at_us, s
            ),
            None => write!(
                f,
                "machine {} received stamp {} from {} at {}us with no matching send",
                self.receiver, self.stamp, self.origin, self.received_at_us
            ),
        }
    }
}

/// The result of a happens-before check over a timeline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HbReport {
    /// `msg_sent` events seen.
    pub sends: u64,
    /// `msg_received` events seen.
    pub receives: u64,
    /// Receives whose matching send exists and precedes them.
    pub matched: u64,
    /// Receives with no matching send in the stream. In `strict` mode
    /// these are violations; in lenient mode (truncated flight-recorder
    /// rings, where old sends age out) they are merely counted.
    pub orphans: u64,
    /// Stamps sent but never received anywhere (dropped messages, or
    /// legs still in flight at shutdown). Informational.
    pub unreceived: u64,
    /// The violations found.
    pub violations: Vec<HbViolation>,
}

impl HbReport {
    /// Whether the timeline passed the check.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Writes the verdict as the `hb` object of the `obs` report and the
    /// postmortem bundle (violations as a count).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("ok", self.ok())
                .field("sends", self.sends)
                .field("receives", self.receives)
                .field("matched", self.matched)
                .field("orphans", self.orphans)
                .field("unreceived", self.unreceived)
                .field("violations", self.violations.len());
        });
    }
}

/// Checks the happens-before discipline: every receive's matching send
/// must exist (unless `strict` is false) and must not be later than the
/// receive. Duplicate receives of one stamp are fine (fault-plan
/// duplication); a stamp re-sent by the same origin is a violation
/// (stamps are allocated once per send action).
pub fn check_happens_before(lines: &[TraceLine], strict: bool) -> HbReport {
    let mut report = HbReport::default();
    let mut sends: HashMap<(u32, u64), u64> = HashMap::new();
    let mut received: HashMap<(u32, u64), u64> = HashMap::new();
    for l in lines {
        match l.event.as_str() {
            "msg_sent" => {
                report.sends += 1;
                let Some(stamp) = l.stamp else { continue };
                if let Some(&first) = sends.get(&(l.src, stamp)) {
                    // The same origin stamped two different sends: the
                    // stamp allocator is per-driver monotone, so this
                    // can only be a corrupted or mis-merged trace.
                    report.violations.push(HbViolation {
                        origin: l.src,
                        stamp,
                        receiver: l.src,
                        sent_at_us: Some(first),
                        received_at_us: l.at_us,
                    });
                } else {
                    sends.insert((l.src, stamp), l.at_us);
                }
            }
            "msg_received" => {
                report.receives += 1;
                let (Some(origin), Some(stamp)) = (l.origin, l.stamp) else {
                    continue;
                };
                received.insert((origin, stamp), l.at_us);
                match sends.get(&(origin, stamp)) {
                    Some(&sent_at) if sent_at <= l.at_us => report.matched += 1,
                    Some(&sent_at) => report.violations.push(HbViolation {
                        origin,
                        stamp,
                        receiver: l.src,
                        sent_at_us: Some(sent_at),
                        received_at_us: l.at_us,
                    }),
                    None => {
                        report.orphans += 1;
                        if strict {
                            report.violations.push(HbViolation {
                                origin,
                                stamp,
                                receiver: l.src,
                                sent_at_us: None,
                                received_at_us: l.at_us,
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }
    report.unreceived = sends
        .keys()
        .filter(|key| !received.contains_key(*key))
        .count() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(
        at_us: u64,
        src: u32,
        event: &str,
        origin: Option<u32>,
        stamp: Option<u64>,
    ) -> TraceLine {
        TraceLine {
            at_us,
            src,
            event: event.to_owned(),
            round: None,
            stamp,
            origin,
            kind: None,
            pending: None,
            cause: None,
        }
    }

    #[test]
    fn merge_orders_sends_before_receives_at_equal_times() {
        let merged = merge(vec![
            line(5, 1, "msg_received", Some(0), Some(0)),
            line(5, 0, "msg_sent", None, Some(0)),
            line(5, 0, "round_started", None, None),
        ]);
        assert_eq!(merged[0].event, "msg_sent");
        assert_eq!(merged[1].event, "round_started");
        assert_eq!(merged[2].event, "msg_received");
    }

    #[test]
    fn clean_broadcast_with_drop_and_duplicate_passes() {
        // One broadcast (stamp 0) to three peers: one leg delivered,
        // one delivered twice (duplication fault), one dropped.
        let lines = vec![
            line(1, 0, "msg_sent", None, Some(0)),
            line(4, 1, "msg_received", Some(0), Some(0)),
            line(5, 2, "msg_received", Some(0), Some(0)),
            line(9, 2, "msg_received", Some(0), Some(0)),
        ];
        let r = check_happens_before(&lines, true);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.sends, 1);
        assert_eq!(r.receives, 3);
        assert_eq!(r.matched, 3);
        assert_eq!(r.unreceived, 0);
    }

    #[test]
    fn dropped_send_is_not_a_violation_but_is_counted() {
        let lines = vec![line(1, 0, "msg_sent", None, Some(0))];
        let r = check_happens_before(&lines, true);
        assert!(r.ok());
        assert_eq!(r.unreceived, 1);
    }

    #[test]
    fn receive_before_send_is_a_violation() {
        let lines = vec![
            line(3, 1, "msg_received", Some(0), Some(0)),
            line(7, 0, "msg_sent", None, Some(0)),
        ];
        let r = check_happens_before(&lines, true);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(
            r.violations[0].sent_at_us, None,
            "send seen after, so unmatched at receive time"
        );
        // After the canonical merge the receive still precedes the send
        // (different timestamps), so the violation persists.
        let r = check_happens_before(&merge(lines), true);
        assert!(!r.ok());
    }

    #[test]
    fn orphan_receive_is_lenient_unless_strict() {
        let lines = vec![line(3, 1, "msg_received", Some(0), Some(9))];
        assert!(check_happens_before(&lines, false).ok());
        assert_eq!(check_happens_before(&lines, false).orphans, 1);
        assert!(!check_happens_before(&lines, true).ok());
    }

    #[test]
    fn reused_stamp_by_same_origin_is_a_violation() {
        let lines = vec![
            line(1, 0, "msg_sent", None, Some(4)),
            line(2, 0, "msg_sent", None, Some(4)),
        ];
        assert!(!check_happens_before(&lines, false).ok());
    }
}
