//! Message provenance, parsed once from a capture: which read created each
//! communication set, which §6 pass eliminated or merged what, which sets
//! were split deeper for legality, and where every message of the
//! schedule came from. [`Provenance::reads_markdown`] and
//! [`Provenance::messages_markdown`] render it as the Reads and Surviving
//! messages sections of the explain report.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{Phase, Record, Trace, Value};

fn uint(r: &Record, key: &str) -> Option<u64> {
    match r.get(key) {
        Some(Value::UInt(x)) => Some(*x),
        Some(Value::Int(x)) => u64::try_from(*x).ok(),
        _ => None,
    }
}

/// An id field; `usize::MAX` when absent, so it matches nothing.
fn id(r: &Record, key: &str) -> usize {
    uint(r, key).map_or(usize::MAX, |x| x as usize)
}

fn text(r: &Record, key: &str) -> String {
    match r.get(key) {
        Some(Value::Str(s)) => s.clone(),
        _ => "?".to_owned(),
    }
}

/// One (statement, read) analysis job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReadProv {
    /// The array it reads.
    pub array: String,
    /// The access as written in the source, e.g. `X[i - 3]`.
    pub access: String,
    /// Leaves of its Last Write Tree; `None` for the location-centric
    /// owner tree.
    pub leaves: Option<u64>,
    /// Whether the tree is an approximation.
    pub approximate: bool,
    /// Communication sets derived from the tree, before any §6 pass.
    pub initial_sets: Option<u64>,
    /// `(pass, sets in, sets out)` per §6 pass, in order.
    pub passes: Vec<(String, u64, u64)>,
    /// `(pass, array)` per communication set a pass eliminated.
    pub eliminated: Vec<(String, String)>,
}

/// A communication set planned deeper than §6.2's level because one of
/// its chunks would deadlock there (`schedule.split`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Split {
    /// The set's index among the final sets.
    pub set: u64,
    /// Its array.
    pub array: String,
    /// The split it was deepened to.
    pub split: u64,
    /// The unsafe chunk's sender.
    pub sender: u64,
    /// The unsafe chunk's receiver.
    pub receiver: u64,
    /// The iteration that last writes the chunk, as rendered.
    pub last_send: String,
    /// The iteration that first uses it, as rendered.
    pub first_use: String,
}

/// One message of the final schedule and where it came from
/// (`prov.message`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageProv {
    /// Message id: its index in the schedule.
    pub msg: usize,
    /// The array it carries.
    pub array: String,
    /// The statement whose read created its communication set.
    pub stmt: usize,
    /// That read's index in the statement.
    pub read: usize,
    /// Sending processor.
    pub sender: usize,
    /// Receiving processors.
    pub receivers: Vec<usize>,
    /// Payload words.
    pub words: u64,
    /// The §6 passes its communication set survived, in order.
    pub steps: Vec<String>,
}

impl MessageProv {
    /// The pass chain, `", "`-joined; `None` for a set no pass touched.
    pub fn chain(&self) -> Option<String> {
        (!self.steps.is_empty()).then(|| self.steps.join(", "))
    }

    /// The receivers, `", "`-joined.
    pub fn receiver_list(&self) -> String {
        let listed: Vec<String> = self.receivers.iter().map(usize::to_string).collect();
        listed.join(", ")
    }
}

/// Everything a capture says about where the compiler's messages came
/// from. Reads come from the per-read lane spans; messages and legality
/// splits from the `schedule` span, which a capture holds once: it plans
/// once, then counts and simulates that plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Provenance {
    /// Per `(statement, read)` analysis job.
    pub reads: BTreeMap<(usize, usize), ReadProv>,
    /// The schedule's legality splits, in order.
    pub splits: Vec<Split>,
    /// The schedule's messages, in id order.
    pub messages: Vec<MessageProv>,
}

impl Provenance {
    /// Parses the provenance records of `trace`.
    pub fn parse(trace: &Trace) -> Self {
        let mut p = Provenance::default();
        for lane in &trace.lanes {
            let is_read_lane = lane.key.first() == Some(&1);
            let mut cur_read: Option<(usize, usize)> = None;
            for r in &lane.records {
                match (r.phase, r.name) {
                    (Phase::Begin, "read") if is_read_lane => {
                        let key = (id(r, "stmt"), id(r, "read"));
                        cur_read = Some(key);
                        let info = p.reads.entry(key).or_default();
                        info.array = text(r, "array");
                        info.access = text(r, "access");
                    }
                    (Phase::Instant, "lwt.done") => {
                        if let Some(key) = cur_read {
                            let info = p.reads.entry(key).or_default();
                            info.leaves = uint(r, "leaves");
                            info.approximate = r.get("approximate") == Some(&Value::Bool(true));
                        }
                    }
                    (Phase::Instant, "commsets.done") => {
                        if let Some(key) = cur_read {
                            p.reads.entry(key).or_default().initial_sets = uint(r, "sets");
                        }
                    }
                    (Phase::Instant, "opt.pass") => {
                        if let Some(key) = cur_read {
                            p.reads.entry(key).or_default().passes.push((
                                text(r, "pass"),
                                uint(r, "sets_in").unwrap_or(0),
                                uint(r, "sets_out").unwrap_or(0),
                            ));
                        }
                    }
                    (Phase::Instant, "prov.eliminated") => p
                        .reads
                        .entry((id(r, "stmt"), id(r, "read")))
                        .or_default()
                        .eliminated
                        .push((text(r, "pass"), text(r, "array"))),
                    (Phase::Instant, "schedule.split") => p.splits.push(Split {
                        set: uint(r, "set").unwrap_or(0),
                        array: text(r, "array"),
                        split: uint(r, "split").unwrap_or(0),
                        sender: uint(r, "sender").unwrap_or(0),
                        receiver: uint(r, "receiver").unwrap_or(0),
                        last_send: text(r, "last_send"),
                        first_use: text(r, "first_use"),
                    }),
                    (Phase::Instant, "prov.message") => {
                        let receivers = text(r, "receivers");
                        let steps = text(r, "steps");
                        p.messages.push(MessageProv {
                            msg: id(r, "msg"),
                            array: text(r, "array"),
                            stmt: id(r, "stmt"),
                            read: id(r, "read"),
                            sender: id(r, "sender"),
                            receivers: receivers
                                .split(", ")
                                .filter_map(|x| x.parse().ok())
                                .collect(),
                            words: uint(r, "words").unwrap_or(0),
                            steps: steps
                                .split('+')
                                .filter(|s| !s.is_empty())
                                .map(str::to_owned)
                                .collect(),
                        });
                    }
                    _ => {}
                }
            }
        }
        p
    }

    /// Message counts of the schedule, grouped by the §6 pass chain
    /// their communication set survived ([`MessageProv::chain`];
    /// `"(none)"` for a set no pass touched). The groups partition the
    /// schedule's messages, so the counts sum exactly to its total
    /// message count — which is what lets the bench explainer tile a
    /// `messages` delta over pass chains with no residue.
    pub fn message_pass_counts(&self) -> Vec<(String, u64)> {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for m in &self.messages {
            *counts
                .entry(m.chain().unwrap_or_else(|| "(none)".to_owned()))
                .or_default() += 1;
        }
        counts.into_iter().collect()
    }

    /// The report's title and its Reads analyzed section.
    pub fn reads_markdown(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# dmc explain — {title}\n");

        let _ = writeln!(out, "## Reads analyzed");
        if self.reads.is_empty() {
            let _ = writeln!(out, "(no per-read records captured)");
        }
        for ((stmt, read), info) in &self.reads {
            let lwt = match info.leaves {
                Some(n) => format!(
                    "{n} LWT {}{}",
                    if n == 1 { "leaf" } else { "leaves" },
                    if info.approximate {
                        " (approximate)"
                    } else {
                        ""
                    }
                ),
                None => "owner tree".to_owned(),
            };
            let sets = info
                .initial_sets
                .map_or(String::new(), |n| format!(", {n} comm set(s)"));
            let _ = writeln!(out, "- S{stmt} read#{read} `{}`: {lwt}{sets}", info.access);
            for (pass, sets_in, sets_out) in &info.passes {
                let _ = writeln!(out, "    - {pass}: {sets_in} -> {sets_out} set(s)");
            }
            for (pass, array) in &info.eliminated {
                let _ = writeln!(out, "    - {array} set eliminated by {pass}");
            }
        }
        out
    }

    /// The report's Surviving messages section: the schedule's legality
    /// splits, then each message with the read it serves.
    pub fn messages_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n## Surviving messages (final schedule)");
        for s in &self.splits {
            let _ = writeln!(
                out,
                "(legality: set {} ({}) split to {}: its chunk p{} -> p{} is last written at \
                 {} and first used at {})",
                s.set, s.array, s.split, s.sender, s.receiver, s.last_send, s.first_use
            );
        }
        if self.messages.is_empty() {
            let _ = writeln!(out, "(no messages: the plan is fully local)");
        }
        for m in &self.messages {
            let origin = self
                .reads
                .get(&(m.stmt, m.read))
                .map(|i| format!("`{}`", i.access))
                .unwrap_or_else(|| m.array.clone());
            let cast = if m.receivers.len() > 1 {
                format!(
                    "multicast p{} -> [{}] ({} receivers)",
                    m.sender,
                    m.receiver_list(),
                    m.receivers.len()
                )
            } else {
                format!("p{} -> p{}", m.sender, m.receiver_list())
            };
            let steps = m
                .chain()
                .map_or(String::new(), |c| format!("; survived {c}"));
            let _ = writeln!(
                out,
                "- m{}: {} {cast}, {} word(s) — {origin} read by S{}#{}{steps}",
                m.msg, m.array, m.words, m.stmt, m.read
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{field, LaneRecords};

    fn rec(phase: Phase, name: &'static str, fields: Vec<(&'static str, Value)>) -> Record {
        Record {
            phase,
            name,
            ts_ns: 0,
            fields,
        }
    }

    #[test]
    fn report_attributes_messages_to_reads() {
        let trace = Trace {
            lanes: vec![
                LaneRecords {
                    key: vec![0],
                    label: "main".to_owned(),
                    records: vec![
                        rec(Phase::Begin, "schedule", vec![]),
                        rec(
                            Phase::Instant,
                            "schedule.split",
                            vec![
                                field("set", 1u64),
                                field("array", "X"),
                                field("split", 1u64),
                                field("sender", 1u64),
                                field("receiver", 2u64),
                                field("last_send", "[0, 7]"),
                                field("first_use", "[0, 4]"),
                            ],
                        ),
                        rec(
                            Phase::Instant,
                            "prov.message",
                            vec![
                                field("msg", 0u64),
                                field("array", "X"),
                                field("stmt", 0u64),
                                field("read", 0u64),
                                field("sender", 1u64),
                                field("receivers", "2"),
                                field("nrecv", 1u64),
                                field("words", 3u64),
                                field("steps", "self_reuse+fold_receivers"),
                            ],
                        ),
                        rec(Phase::End, "schedule", vec![]),
                    ],
                },
                LaneRecords {
                    key: vec![1, 0, 0],
                    label: "read 0/0".to_owned(),
                    records: vec![
                        rec(
                            Phase::Begin,
                            "read",
                            vec![
                                field("stmt", 0u64),
                                field("read", 0u64),
                                field("array", "X"),
                                field("access", "X[i - 3]"),
                            ],
                        ),
                        rec(
                            Phase::Instant,
                            "lwt.done",
                            vec![field("leaves", 2u64), field("approximate", false)],
                        ),
                        rec(
                            Phase::Instant,
                            "prov.eliminated",
                            vec![
                                field("pass", "already_local"),
                                field("array", "X"),
                                field("stmt", 0u64),
                                field("read", 0u64),
                            ],
                        ),
                        rec(Phase::End, "read", vec![]),
                    ],
                },
            ],
        };
        let prov = Provenance::parse(&trace);
        assert_eq!(prov.messages.len(), 1, "{prov:?}");
        assert_eq!(prov.messages[0].receivers, vec![2]);
        assert_eq!(
            prov.message_pass_counts(),
            vec![("self_reuse, fold_receivers".to_owned(), 1)]
        );
        let report = prov.reads_markdown("unit") + &prov.messages_markdown();
        assert!(report.contains("S0 read#0 `X[i - 3]`"), "{report}");
        assert!(report.contains("m0: X p1 -> p2, 3 word(s)"), "{report}");
        assert!(
            report.contains("survived self_reuse, fold_receivers"),
            "{report}"
        );
        assert!(report.contains("eliminated by already_local"), "{report}");
        assert!(
            report.contains(
                "(legality: set 1 (X) split to 1: its chunk p1 -> p2 is last written at [0, 7] \
                 and first used at [0, 4])"
            ),
            "{report}"
        );
    }
}
