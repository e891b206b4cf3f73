//! Chrome `trace_events` export and validation.
//!
//! The exporter maps each lane to one display thread (`tid`), so the
//! per-lane record order — which is deterministic — is exactly what
//! `chrome://tracing` / Perfetto render as nested spans. Compiler lanes
//! live on `pid 1` with wall-clock microseconds relative to the capture
//! start. Simulator lanes ([`crate::sim_lane`]) live on `pid 2` — the
//! "simulated machine" process — and their records carry *simulated*
//! timestamps: a record with `t0`/`t1` float fields (seconds) becomes a
//! Chrome complete event (`ph: "X"`) at `ts = t0·10⁶` with
//! `dur = (t1−t0)·10⁶`, and a record with only `t0` an instant at that
//! simulated time. One display thread per simulated processor gives a
//! Gantt chart of the machine next to the compiler timeline.

use crate::json::{self, Json};
use crate::trace::{LaneRecords, Phase, Record, Trace, Value};

/// Whether the lane holds a simulated processor's timeline.
fn is_sim_lane(lane: &LaneRecords) -> bool {
    lane.key.first() == Some(&2)
}

/// Simulated `(start, duration)` in microseconds, if the record carries
/// sim-time fields (`t1` defaulting to `t0` for instants).
fn sim_times_us(r: &Record) -> Option<(f64, f64)> {
    let t0 = match r.get("t0") {
        Some(Value::F64(v)) => *v,
        _ => return None,
    };
    let t1 = match r.get("t1") {
        Some(Value::F64(v)) => *v,
        _ => t0,
    };
    Some((t0 * 1e6, (t1 - t0).max(0.0) * 1e6))
}

/// Renders a trace as a Chrome `trace_events` JSON document.
pub fn chrome_trace(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str("  ");
        out.push_str(&line);
    };
    push(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"dmc compiler\"}}"
            .to_owned(),
        &mut first,
    );
    if trace.lanes.iter().any(is_sim_lane) {
        push(
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 0, \
             \"args\": {\"name\": \"simulated machine\"}}"
                .to_owned(),
            &mut first,
        );
    }
    for (tid, lane) in trace.lanes.iter().enumerate() {
        let pid = if is_sim_lane(lane) { 2 } else { 1 };
        push(
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
                 \"args\": {{\"name\": {}}}}}",
                json::quote(&lane.label)
            ),
            &mut first,
        );
    }
    for (tid, lane) in trace.lanes.iter().enumerate() {
        let sim = is_sim_lane(lane);
        for r in &lane.records {
            let args: Vec<String> = r
                .fields
                .iter()
                .map(|(k, v)| format!("{}: {}", json::quote(k), v.to_json()))
                .collect();
            if let Some((ts_us, dur_us)) = if sim { sim_times_us(r) } else { None } {
                // Simulated-time record on the machine process.
                // Critical-path records get their own category so they
                // can be isolated (or colored) in the trace viewer.
                let cat = if r.name.starts_with("crit.") {
                    "sim,crit"
                } else {
                    "sim"
                };
                let (ph, dur) = if r.phase == Phase::Instant && r.get("t1").is_none() {
                    ("i", String::new())
                } else {
                    ("X", format!(", \"dur\": {dur_us:.3}"))
                };
                push(
                    format!(
                        "{{\"name\": {}, \"cat\": \"{cat}\", \"ph\": \"{ph}\", \"ts\": {ts_us:.3}\
                         {dur}, \"pid\": 2, \"tid\": {tid}, \"args\": {{{}}}}}",
                        json::quote(r.name),
                        args.join(", ")
                    ),
                    &mut first,
                );
                continue;
            }
            let ph = match r.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            };
            let scope = if r.phase == Phase::Instant {
                ", \"s\": \"t\""
            } else {
                ""
            };
            push(
                format!(
                    "{{\"name\": {}, \"cat\": \"dmc\", \"ph\": \"{ph}\", \"ts\": {:.3}, \
                     \"pid\": 1, \"tid\": {tid}{scope}, \"args\": {{{}}}}}",
                    json::quote(r.name),
                    r.ts_ns as f64 / 1e3,
                    args.join(", ")
                ),
                &mut first,
            );
        }
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// Summary of a validated Chrome trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Display threads (lanes) seen.
    pub lanes: usize,
    /// Completed begin/end span pairs.
    pub spans: usize,
    /// Instant events.
    pub events: usize,
}

/// Re-parses a Chrome `trace_events` document and checks it is
/// well-formed: valid JSON, a `traceEvents` array, every begin matched by
/// an end of the same name in stack order per display thread, complete
/// (`"X"`) events with non-negative durations, and timestamps
/// monotonically non-decreasing per display thread. A complete event
/// counts as one finished span.
///
/// # Errors
///
/// Returns a description of the first malformation found.
pub fn validate_chrome(doc: &str) -> Result<TraceCheck, String> {
    let root = json::parse(doc)?;
    let events = match root.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => return Err("missing traceEvents array".to_owned()),
    };
    let mut check = TraceCheck::default();
    // Per-tid open-span stack and last timestamp.
    let mut stacks: std::collections::BTreeMap<i64, (Vec<String>, f64)> =
        std::collections::BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            // Metadata: process/thread names. Only thread names describe
            // display lanes.
            if name == "thread_name" {
                check.lanes += 1;
            }
            continue;
        }
        let tid = ev
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing tid"))? as i64;
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let (stack, last_ts) = stacks.entry(tid).or_insert_with(|| (Vec::new(), f64::MIN));
        if ts < *last_ts {
            return Err(format!(
                "event {i} ({name}): timestamp {ts} goes backwards on tid {tid} (last {last_ts})"
            ));
        }
        *last_ts = ts;
        match ph {
            "B" => stack.push(name.to_owned()),
            "E" => match stack.pop() {
                Some(open) if open == name => check.spans += 1,
                Some(open) => {
                    return Err(format!(
                        "event {i}: end of '{name}' but '{open}' is open on tid {tid}"
                    ))
                }
                None => {
                    return Err(format!(
                        "event {i}: end of '{name}' with no open span on tid {tid}"
                    ))
                }
            },
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i} ({name}): complete event without dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!(
                        "event {i} ({name}): complete event with negative duration {dur}"
                    ));
                }
                check.spans += 1;
            }
            "i" => check.events += 1,
            other => return Err(format!("event {i}: unsupported phase '{other}'")),
        }
    }
    for (tid, (stack, _)) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid}: unclosed spans at end of trace: {stack:?}"
            ));
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{LaneRecords, Record, Value};

    fn rec(phase: Phase, name: &'static str, ts_ns: u64) -> Record {
        Record {
            phase,
            name,
            ts_ns,
            fields: Vec::new(),
        }
    }

    #[test]
    fn export_and_validate() {
        let trace = Trace {
            lanes: vec![LaneRecords {
                key: vec![0],
                label: "main \"quoted\"".to_owned(),
                records: vec![
                    rec(Phase::Begin, "compile", 100),
                    Record {
                        phase: Phase::Instant,
                        name: "prov.message",
                        ts_ns: 150,
                        fields: vec![
                            ("array", Value::Str("X".to_owned())),
                            ("words", Value::UInt(3)),
                        ],
                    },
                    rec(Phase::End, "compile", 900),
                ],
            }],
        };
        let doc = chrome_trace(&trace);
        let check = validate_chrome(&doc).expect("valid");
        assert_eq!(
            check,
            TraceCheck {
                lanes: 1,
                spans: 1,
                events: 1
            }
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let doc = chrome_trace(&Trace::default());
        let check = validate_chrome(&doc).expect("an empty capture is a valid trace");
        assert_eq!(check, TraceCheck::default());
    }

    #[test]
    fn sim_lanes_round_trip_as_complete_events() {
        // One simulated processor: an interval record (t0/t1 simulated
        // seconds) plus the end-of-run summary instant (t0 only).
        let sim_rec = |name: &'static str, fields: Vec<(&'static str, Value)>| Record {
            phase: Phase::Instant,
            name,
            ts_ns: 0,
            fields,
        };
        let trace = Trace {
            lanes: vec![
                LaneRecords {
                    key: vec![0],
                    label: "main".to_owned(),
                    records: vec![rec(Phase::Begin, "run", 10), rec(Phase::End, "run", 2000)],
                },
                LaneRecords {
                    key: vec![2, 0],
                    label: "sim p0".to_owned(),
                    records: vec![
                        sim_rec(
                            "sim.compute",
                            vec![
                                ("t0", Value::F64(0.0)),
                                ("t1", Value::F64(1.5e-6)),
                                ("flops", Value::F64(3.0)),
                            ],
                        ),
                        sim_rec(
                            "sim.send",
                            vec![
                                ("t0", Value::F64(1.5e-6)),
                                ("t1", Value::F64(2.5e-6)),
                                ("msg", Value::UInt(0)),
                            ],
                        ),
                        sim_rec("sim.proc", vec![("t0", Value::F64(2.5e-6))]),
                    ],
                },
            ],
        };
        let doc = chrome_trace(&trace);
        let check = validate_chrome(&doc).expect("valid");
        // 2 thread lanes; 1 wall-clock span + 2 complete events; 1 instant.
        assert_eq!(
            check,
            TraceCheck {
                lanes: 2,
                spans: 3,
                events: 1
            }
        );
        // Sim records land on the machine process with simulated-µs stamps.
        assert!(doc.contains("\"ph\": \"X\""), "{doc}");
        assert!(doc.contains("\"name\": \"simulated machine\""), "{doc}");
        assert!(doc.contains("\"ts\": 1.500, \"dur\": 1.000"), "{doc}");
    }

    #[test]
    fn critical_path_records_are_flagged_with_their_own_category() {
        let trace = Trace {
            lanes: vec![LaneRecords {
                key: vec![2, 4],
                label: "critical path".to_owned(),
                records: vec![Record {
                    phase: Phase::Instant,
                    name: "crit.span",
                    ts_ns: 0,
                    fields: vec![
                        ("kind", Value::Str("compute".to_owned())),
                        ("t0", Value::F64(0.0)),
                        ("t1", Value::F64(1.0e-6)),
                    ],
                }],
            }],
        };
        let doc = chrome_trace(&trace);
        validate_chrome(&doc).expect("valid");
        assert!(doc.contains("\"cat\": \"sim,crit\""), "{doc}");
    }

    #[test]
    fn rejects_malformed_complete_events() {
        // Negative duration.
        let doc = r#"{"traceEvents": [
          {"name": "sim.compute", "ph": "X", "ts": 5, "dur": -1, "pid": 2, "tid": 0}
        ]}"#;
        assert!(validate_chrome(doc)
            .unwrap_err()
            .contains("negative duration"));
        // Missing duration.
        let doc = r#"{"traceEvents": [
          {"name": "sim.compute", "ph": "X", "ts": 5, "pid": 2, "tid": 0}
        ]}"#;
        assert!(validate_chrome(doc).unwrap_err().contains("without dur"));
        // Non-monotonic complete events on one lane.
        let doc = r#"{"traceEvents": [
          {"name": "a", "ph": "X", "ts": 5, "dur": 1, "pid": 2, "tid": 0},
          {"name": "b", "ph": "X", "ts": 2, "dur": 1, "pid": 2, "tid": 0}
        ]}"#;
        assert!(validate_chrome(doc).unwrap_err().contains("backwards"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(validate_chrome("not json").is_err());
        assert!(validate_chrome("{\"traceEvents\": 3}").is_err());
        // Unbalanced: begin with no end.
        let doc = r#"{"traceEvents": [
          {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome(doc).unwrap_err().contains("unclosed"));
        // Mismatched nesting.
        let doc = r#"{"traceEvents": [
          {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 0},
          {"name": "b", "ph": "E", "ts": 2, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome(doc).unwrap_err().contains("'a' is open"));
        // Backwards time.
        let doc = r#"{"traceEvents": [
          {"name": "a", "ph": "B", "ts": 5, "pid": 1, "tid": 0},
          {"name": "a", "ph": "E", "ts": 2, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome(doc).unwrap_err().contains("backwards"));
    }
}
