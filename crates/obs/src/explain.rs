//! The message-provenance explain report: a human-readable rendering of
//! the provenance events the pipeline emits — which read created each
//! communication set, which §6 pass eliminated or merged what, and where
//! every message of the final schedule came from.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{Phase, Record, Trace, Value};

fn as_u64(v: Option<&Value>) -> Option<u64> {
    match v {
        Some(Value::UInt(x)) => Some(*x),
        Some(Value::Int(x)) => u64::try_from(*x).ok(),
        _ => None,
    }
}

fn as_str(v: Option<&Value>) -> Option<&str> {
    match v {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn as_f64(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::F64(x)) => Some(*x),
        Some(Value::UInt(x)) => Some(*x as f64),
        Some(Value::Int(x)) => Some(*x as f64),
        _ => None,
    }
}

/// One processor's end-of-run time breakdown (`sim.proc`).
#[derive(Clone, Default)]
struct ProcView {
    compute: f64,
    comm: f64,
    idle: f64,
    finish: f64,
}

/// Whole-run critical-path summary (`crit.summary`).
#[derive(Clone, Default)]
struct CritSummary {
    makespan_ns: u64,
    events: u64,
    critical: u64,
    length: u64,
    blame: [u64; 6],
}

/// One processor's blame decomposition (`crit.proc`).
#[derive(Clone)]
struct CritProc {
    proc: u64,
    blame: [u64; 6],
}

/// One message's charged time and slack (`crit.msg`).
#[derive(Clone)]
struct CritMsg {
    msg: u64,
    sender: u64,
    nrecv: u64,
    send_ns: u64,
    wait_ns: u64,
    recv_ns: u64,
    slack_ns: u64,
    critical: bool,
}

/// One what-if estimate (`crit.whatif`).
#[derive(Clone)]
struct CritWhatIf {
    msg: u64,
    scenario: String,
    win_ns: u64,
}

/// Blame category names in the canonical order of the `crit.*` events.
const BLAME_CATS: [&str; 6] = [
    "compute",
    "alpha",
    "beta",
    "contention",
    "recv-wait",
    "drain",
];

fn blame_fields(r: &Record) -> [u64; 6] {
    [
        as_u64(r.get("compute_ns")).unwrap_or(0),
        as_u64(r.get("alpha_ns")).unwrap_or(0),
        as_u64(r.get("beta_ns")).unwrap_or(0),
        as_u64(r.get("contention_ns")).unwrap_or(0),
        as_u64(r.get("recv_wait_ns")).unwrap_or(0),
        as_u64(r.get("drain_ns")).unwrap_or(0),
    ]
}

/// Renders each part's percentage share (one decimal) of the parts' own
/// total so the printed shares sum to exactly 100.0: the shares are
/// apportioned in tenths of a percent by largest remainder. Returns empty
/// strings when the total is not positive.
fn pct_shares(parts: &[f64]) -> Vec<String> {
    let total: f64 = parts.iter().map(|p| p.max(0.0)).sum();
    if total <= 0.0 || total.is_nan() {
        return vec![String::new(); parts.len()];
    }
    let exact: Vec<f64> = parts.iter().map(|p| 1000.0 * p.max(0.0) / total).collect();
    let mut tenths: Vec<u64> = exact.iter().map(|x| x.floor() as u64).collect();
    let mut deficit = 1000i64 - tenths.iter().sum::<u64>() as i64;
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.partial_cmp(&ra)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut i = 0;
    while deficit > 0 && !order.is_empty() {
        tenths[order[i % order.len()]] += 1;
        deficit -= 1;
        i += 1;
    }
    tenths
        .iter()
        .map(|t| format!(" ({}.{}%)", t / 10, t % 10))
        .collect()
}

/// One link's end-of-run traffic (`sim.link`).
#[derive(Clone)]
struct LinkView {
    src: u64,
    dst: u64,
    words: u64,
    transmissions: u64,
}

#[derive(Default)]
struct ReadInfo {
    array: String,
    access: String,
    leaves: Option<u64>,
    approximate: bool,
    initial_sets: Option<u64>,
    passes: Vec<(String, u64, u64)>,
    eliminated: Vec<String>,
}

#[derive(Clone)]
struct MsgInfo {
    msg: u64,
    array: String,
    stmt: u64,
    read: u64,
    sender: u64,
    receivers: String,
    nrecv: u64,
    words: u64,
    steps: String,
}

/// Message counts of the **last** schedule built in the capture, grouped
/// by the §6 pass chain their communication set survived (the
/// `prov.message` event's `steps` field, `", "`-joined; `"(none)"` for a
/// set no pass touched). The groups partition the schedule's messages,
/// so the counts sum exactly to the schedule's total message count —
/// which is what lets the bench explainer tile a `messages` delta over
/// pass chains with no residue. Follows the same supersession rule as
/// [`explain_report`]: a new `schedule` span discards earlier messages.
pub fn message_pass_counts(trace: &Trace) -> Vec<(String, u64)> {
    let mut messages: Vec<String> = Vec::new();
    for lane in &trace.lanes {
        for r in &lane.records {
            match (r.phase, r.name) {
                (Phase::Begin, "schedule") => messages.clear(),
                (Phase::Instant, "prov.message") => {
                    let steps = as_str(r.get("steps")).unwrap_or("");
                    messages.push(if steps.is_empty() {
                        "(none)".to_owned()
                    } else {
                        steps.replace('+', ", ")
                    });
                }
                _ => {}
            }
        }
    }
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for chain in messages {
        *counts.entry(chain).or_default() += 1;
    }
    counts.into_iter().collect()
}

/// Builds the explain report for one captured compilation.
///
/// Reads come from the per-read lane spans; messages, and the sets split
/// deeper than §6.2's level for legality, come from the **last** schedule
/// built in the capture (earlier `schedule` spans — e.g. the one inside
/// `message_stats` — are superseded).
pub fn explain_report(trace: &Trace, title: &str) -> String {
    let mut reads: BTreeMap<(u64, u64), ReadInfo> = BTreeMap::new();
    let mut stages: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    let mut messages: Vec<MsgInfo> = Vec::new();
    let mut splits: Vec<String> = Vec::new();
    let mut sim_done: Option<Vec<(&'static str, Value)>> = None;
    let mut procs: BTreeMap<u64, ProcView> = BTreeMap::new();
    let mut links: Vec<LinkView> = Vec::new();
    let mut latency: Option<(u64, u64, u64, u64)> = None;
    let mut crit: Option<CritSummary> = None;
    let mut crit_procs: Vec<CritProc> = Vec::new();
    let mut crit_msgs: Vec<CritMsg> = Vec::new();
    let mut crit_whatifs: Vec<CritWhatIf> = Vec::new();

    for lane in &trace.lanes {
        let is_read_lane = lane.key.first() == Some(&1);
        let mut cur_read: Option<(u64, u64)> = None;
        for r in &lane.records {
            match (r.phase, r.name) {
                (Phase::Begin, "read") if is_read_lane => {
                    let stmt = as_u64(r.get("stmt")).unwrap_or(u64::MAX);
                    let read = as_u64(r.get("read")).unwrap_or(u64::MAX);
                    cur_read = Some((stmt, read));
                    let info = reads.entry((stmt, read)).or_default();
                    info.array = as_str(r.get("array")).unwrap_or("?").to_owned();
                    info.access = as_str(r.get("access")).unwrap_or("?").to_owned();
                }
                (Phase::Instant, "lwt.done") => {
                    if let Some(key) = cur_read {
                        let info = reads.entry(key).or_default();
                        info.leaves = as_u64(r.get("leaves"));
                        info.approximate = r.get("approximate") == Some(&Value::Bool(true));
                    }
                }
                (Phase::Instant, "commsets.done") => {
                    if let Some(key) = cur_read {
                        reads.entry(key).or_default().initial_sets = as_u64(r.get("sets"));
                    }
                }
                (Phase::Instant, "opt.pass") => {
                    if let Some(key) = cur_read {
                        reads.entry(key).or_default().passes.push((
                            as_str(r.get("pass")).unwrap_or("?").to_owned(),
                            as_u64(r.get("sets_in")).unwrap_or(0),
                            as_u64(r.get("sets_out")).unwrap_or(0),
                        ));
                    }
                }
                (Phase::Instant, "prov.eliminated") => {
                    let stmt = as_u64(r.get("stmt")).unwrap_or(u64::MAX);
                    let read = as_u64(r.get("read")).unwrap_or(u64::MAX);
                    let pass = as_str(r.get("pass")).unwrap_or("?");
                    let array = as_str(r.get("array")).unwrap_or("?");
                    reads
                        .entry((stmt, read))
                        .or_default()
                        .eliminated
                        .push(format!("{array} set eliminated by {pass}"));
                }
                (Phase::Instant, "stage.hit") => {
                    stages
                        .entry(as_str(r.get("stage")).unwrap_or("?").to_owned())
                        .or_default()
                        .0 += 1;
                }
                (Phase::Instant, "stage.disk_hit") => {
                    // A hit served by the persistent layer: counts into
                    // the stage's hit column and the disk column.
                    let e = stages
                        .entry(as_str(r.get("stage")).unwrap_or("?").to_owned())
                        .or_default();
                    e.0 += 1;
                    e.2 += 1;
                }
                (Phase::Instant, "stage.miss") => {
                    stages
                        .entry(as_str(r.get("stage")).unwrap_or("?").to_owned())
                        .or_default()
                        .1 += 1;
                }
                (Phase::Begin, "schedule") => {
                    messages.clear();
                    splits.clear();
                }
                (Phase::Begin, "simulate") => {
                    // A new simulated run supersedes the previous one's
                    // machine telemetry and critical-path analysis.
                    links.clear();
                    crit = None;
                    crit_procs.clear();
                    crit_msgs.clear();
                    crit_whatifs.clear();
                }
                (Phase::Instant, "crit.summary") => {
                    crit = Some(CritSummary {
                        makespan_ns: as_u64(r.get("makespan_ns")).unwrap_or(0),
                        events: as_u64(r.get("events")).unwrap_or(0),
                        critical: as_u64(r.get("critical")).unwrap_or(0),
                        length: as_u64(r.get("length")).unwrap_or(0),
                        blame: blame_fields(r),
                    });
                }
                (Phase::Instant, "crit.proc") => crit_procs.push(CritProc {
                    proc: as_u64(r.get("proc")).unwrap_or(u64::MAX),
                    blame: blame_fields(r),
                }),
                (Phase::Instant, "crit.msg") => crit_msgs.push(CritMsg {
                    msg: as_u64(r.get("msg")).unwrap_or(0),
                    sender: as_u64(r.get("sender")).unwrap_or(0),
                    nrecv: as_u64(r.get("nrecv")).unwrap_or(1),
                    send_ns: as_u64(r.get("send_ns")).unwrap_or(0),
                    wait_ns: as_u64(r.get("wait_ns")).unwrap_or(0),
                    recv_ns: as_u64(r.get("recv_ns")).unwrap_or(0),
                    slack_ns: as_u64(r.get("slack_ns")).unwrap_or(0),
                    critical: r.get("critical") == Some(&Value::Bool(true)),
                }),
                (Phase::Instant, "crit.whatif") => crit_whatifs.push(CritWhatIf {
                    msg: as_u64(r.get("msg")).unwrap_or(0),
                    scenario: as_str(r.get("scenario")).unwrap_or("?").to_owned(),
                    win_ns: as_u64(r.get("win_ns")).unwrap_or(0),
                }),
                (Phase::Instant, "schedule.split") => {
                    let f = |k| r.get(k).map(Value::render).unwrap_or_default();
                    let (set, array, split) = (f("set"), f("array"), f("split"));
                    let (q, p, last, first) =
                        (f("sender"), f("receiver"), f("last_send"), f("first_use"));
                    splits.push(format!(
                        "(legality: set {set} ({array}) split to {split}: its chunk p{q} -> \
                         p{p} is last written at {last} and first used at {first})"
                    ));
                }
                (Phase::Instant, "prov.message") => messages.push(MsgInfo {
                    msg: as_u64(r.get("msg")).unwrap_or(0),
                    array: as_str(r.get("array")).unwrap_or("?").to_owned(),
                    stmt: as_u64(r.get("stmt")).unwrap_or(u64::MAX),
                    read: as_u64(r.get("read")).unwrap_or(u64::MAX),
                    sender: as_u64(r.get("sender")).unwrap_or(0),
                    receivers: as_str(r.get("receivers")).unwrap_or("?").to_owned(),
                    nrecv: as_u64(r.get("nrecv")).unwrap_or(1),
                    words: as_u64(r.get("words")).unwrap_or(0),
                    steps: as_str(r.get("steps")).unwrap_or("").to_owned(),
                }),
                (Phase::Instant, "simulate.done") => sim_done = Some(r.fields.clone()),
                (Phase::Instant, "sim.latency") => {
                    latency = Some((
                        as_u64(r.get("transmissions")).unwrap_or(0),
                        as_u64(r.get("p50_us")).unwrap_or(0),
                        as_u64(r.get("p95_us")).unwrap_or(0),
                        as_u64(r.get("p99_us")).unwrap_or(0),
                    ));
                }
                (Phase::Instant, "sim.link") => links.push(LinkView {
                    src: as_u64(r.get("src")).unwrap_or(0),
                    dst: as_u64(r.get("dst")).unwrap_or(0),
                    words: as_u64(r.get("words")).unwrap_or(0),
                    transmissions: as_u64(r.get("transmissions")).unwrap_or(0),
                }),
                (Phase::Instant, "sim.proc") => {
                    let p = as_u64(r.get("proc")).unwrap_or(u64::MAX);
                    procs.insert(
                        p,
                        ProcView {
                            compute: as_f64(r.get("compute")).unwrap_or(0.0),
                            comm: as_f64(r.get("comm")).unwrap_or(0.0),
                            idle: as_f64(r.get("idle")).unwrap_or(0.0),
                            finish: as_f64(r.get("t0")).unwrap_or(0.0),
                        },
                    );
                }
                _ => {}
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "# dmc explain — {title}\n");

    let _ = writeln!(out, "## Reads analyzed");
    if reads.is_empty() {
        let _ = writeln!(out, "(no per-read records captured)");
    }
    for ((stmt, read), info) in &reads {
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
        for e in &info.eliminated {
            let _ = writeln!(out, "    - {e}");
        }
    }

    if !stages.is_empty() {
        // Session stage-graph reuse: every compilation stage is looked up
        // in the session's content-addressed store before it runs. The
        // classic one-shot API compiles through a throwaway session, so
        // its report truthfully shows zero hits.
        let (hits, misses, disk) = stages
            .values()
            .fold((0u64, 0u64, 0u64), |(h, m, d), (sh, sm, sd)| {
                (h + sh, m + sm, d + sd)
            });
        let total = hits + misses;
        let pct = if total > 0 {
            format!(" ({:.0}% reused)", 100.0 * hits as f64 / total as f64)
        } else {
            String::new()
        };
        let _ = writeln!(out, "\n## Reuse");
        let _ = writeln!(out, "Stage graph: {hits} hit(s), {misses} miss(es){pct}.");
        for (stage, (sh, sm, _)) in &stages {
            let _ = writeln!(out, "- {stage}: {sh} hit(s), {sm} miss(es)");
        }
        if disk > 0 {
            // Hits served by the persistent (on-disk) layer rather than
            // the in-memory map: artifacts that survived from an earlier
            // process via the artifact store.
            let _ = writeln!(out, "\n### Persistent reuse");
            let _ = writeln!(
                out,
                "{disk} of {hits} hit(s) were served from the on-disk artifact store."
            );
            for (stage, (_, _, sd)) in stages.iter().filter(|(_, (_, _, sd))| *sd > 0) {
                let _ = writeln!(out, "- {stage}: {sd} disk hit(s)");
            }
        }
    }

    let _ = writeln!(out, "\n## Surviving messages (final schedule)");
    for line in &splits {
        let _ = writeln!(out, "{line}");
    }
    if messages.is_empty() {
        let _ = writeln!(out, "(no messages: the plan is fully local)");
    }
    for m in &messages {
        let origin = reads
            .get(&(m.stmt, m.read))
            .map(|i| format!("`{}`", i.access))
            .unwrap_or_else(|| m.array.clone());
        let cast = if m.nrecv > 1 {
            format!(
                "multicast p{} -> [{}] ({} receivers)",
                m.sender, m.receivers, m.nrecv
            )
        } else {
            format!("p{} -> p{}", m.sender, m.receivers)
        };
        let steps = if m.steps.is_empty() {
            String::new()
        } else {
            format!("; survived {}", m.steps.replace('+', ", "))
        };
        let _ = writeln!(
            out,
            "- m{}: {} {cast}, {} word(s) — {origin} read by S{}#{}{steps}",
            m.msg, m.array, m.words, m.stmt, m.read
        );
    }

    if let Some(fields) = &sim_done {
        let _ = writeln!(out, "\n## Simulation");
        let kv: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{k} = {}", v.render()))
            .collect();
        let _ = writeln!(out, "{}", kv.join(", "));
    }

    if !procs.is_empty() {
        let ms = |v: f64| format!("{:.3} ms", v * 1e3);
        let _ = writeln!(out, "\n## Machine view");
        let _ = writeln!(
            out,
            "{} simulated processor(s); simulated time.",
            procs.len()
        );
        for (p, v) in &procs {
            // Largest-remainder shares of the compute/comm/idle split so
            // the three percentages always total exactly 100.0.
            let shares = pct_shares(&[v.compute, v.comm, v.idle]);
            let _ = writeln!(
                out,
                "- p{p}: compute {}{}, comm {}{}, idle {}{}, finish {}",
                ms(v.compute),
                shares[0],
                ms(v.comm),
                shares[1],
                ms(v.idle),
                shares[2],
                ms(v.finish)
            );
        }
        if let Some((n, p50, p95, p99)) = latency {
            // Bucket upper bounds from the exact log2 latency histogram
            // (see `Log2Hist::quantile_bound`), hence the `<=`.
            let _ = writeln!(
                out,
                "- latency percentiles over {n} transmission(s): \
                 p50 <= {p50} us, p95 <= {p95} us, p99 <= {p99} us"
            );
        }
        if !links.is_empty() {
            let mut by_words = links.clone();
            by_words.sort_by(|a, b| {
                b.words
                    .cmp(&a.words)
                    .then((a.src, a.dst).cmp(&(b.src, b.dst)))
            });
            let _ = writeln!(out, "Top links by traffic:");
            for l in by_words.iter().take(8) {
                let _ = writeln!(
                    out,
                    "- p{} -> p{}: {} word(s) in {} transmission(s)",
                    l.src, l.dst, l.words, l.transmissions
                );
            }
            if by_words.len() > 8 {
                let _ = writeln!(out, "  (+{} more links)", by_words.len() - 8);
            }
        }
        if !messages.is_empty() {
            let mut hot = messages.clone();
            hot.sort_by(|a, b| {
                (b.words * b.nrecv)
                    .cmp(&(a.words * a.nrecv))
                    .then(a.msg.cmp(&b.msg))
            });
            let _ = writeln!(out, "Hot messages (by words x receivers):");
            for m in hot.iter().take(5) {
                let steps = if m.steps.is_empty() {
                    "(no pass record)".to_owned()
                } else {
                    format!("survived {}", m.steps.replace('+', ", "))
                };
                // Indented on purpose: tools count top-level `- m` lines to
                // check one-report-line-per-scheduled-message, and this list
                // repeats messages already attributed above.
                let _ = writeln!(
                    out,
                    "  - m{}: {} p{} -> [{}], {} word(s) x {} receiver(s) — {steps}",
                    m.msg, m.array, m.sender, m.receivers, m.words, m.nrecv
                );
            }
        }
    }

    if let Some(cs) = &crit {
        let _ = writeln!(out, "\n## Critical path");
        let _ = writeln!(
            out,
            "Exact event-DAG analysis of the simulated run (integer ns): \
             makespan {} ns, {} event(s), {} critical (zero slack), \
             canonical path {} event(s).",
            cs.makespan_ns, cs.events, cs.critical, cs.length
        );
        let shares = pct_shares(&cs.blame.map(|v| v as f64));
        let blame_line: Vec<String> = BLAME_CATS
            .iter()
            .zip(cs.blame.iter())
            .zip(&shares)
            .map(|((cat, v), s)| format!("{cat} {v}{s}"))
            .collect();
        let _ = writeln!(
            out,
            "Machine blame, ns (categories tile each processor's makespan \
             exactly): {}",
            blame_line.join(", ")
        );
        // Indented on purpose: `- p` + ": compute " at top level is how
        // tools count Machine-view processor rows.
        for cp in &crit_procs {
            let kv: Vec<String> = BLAME_CATS
                .iter()
                .zip(cp.blame.iter())
                .map(|(cat, v)| format!("{cat} {v}"))
                .collect();
            let _ = writeln!(out, "  - p{}: {}", cp.proc, kv.join(", "));
        }
        if !crit_msgs.is_empty() {
            // Charge per §6 pass chain: join each message's charged time
            // with its provenance steps from the schedule section.
            let steps_of = |id: u64| -> String {
                messages
                    .iter()
                    .find(|m| m.msg == id)
                    .map(|m| {
                        if m.steps.is_empty() {
                            "(no pass record)".to_owned()
                        } else {
                            m.steps.replace('+', ", ")
                        }
                    })
                    .unwrap_or_else(|| "(no pass record)".to_owned())
            };
            let mut by_pass: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
            for cm in &crit_msgs {
                let e = by_pass.entry(steps_of(cm.msg)).or_default();
                e.0 += 1;
                e.1 += cm.send_ns + cm.wait_ns + cm.recv_ns;
                e.2 += u64::from(cm.critical);
            }
            let mut pass_rows: Vec<(&String, &(u64, u64, u64))> = by_pass.iter().collect();
            pass_rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
            let _ = writeln!(out, "Blame by optimization provenance:");
            for (steps, (n, ns, ncrit)) in pass_rows {
                let _ = writeln!(
                    out,
                    "  - {steps}: {n} message(s), {ns} ns charged, {ncrit} critical"
                );
            }
            let mut hot: Vec<&CritMsg> = crit_msgs.iter().collect();
            hot.sort_by(|a, b| {
                (b.send_ns + b.wait_ns + b.recv_ns)
                    .cmp(&(a.send_ns + a.wait_ns + a.recv_ns))
                    .then(a.msg.cmp(&b.msg))
            });
            let _ = writeln!(out, "Most expensive messages (charged ns):");
            for cm in hot.iter().take(5) {
                let crit_note = if cm.critical {
                    "critical".to_owned()
                } else {
                    format!("slack {} ns", cm.slack_ns)
                };
                let _ = writeln!(
                    out,
                    "  - m{}: p{} -> {} receiver(s), {} ns \
                     (send {}, wait {}, recv {}) — {crit_note}",
                    cm.msg,
                    cm.sender,
                    cm.nrecv,
                    cm.send_ns + cm.wait_ns + cm.recv_ns,
                    cm.send_ns,
                    cm.wait_ns,
                    cm.recv_ns
                );
            }
        }
        if !crit_whatifs.is_empty() {
            let _ = writeln!(out, "What-if estimates (exact DAG re-evaluation):");
            for w in crit_whatifs.iter().take(5) {
                let _ = writeln!(
                    out,
                    "  - {} m{}: makespan -{} ns",
                    w.scenario, w.msg, w.win_ns
                );
            }
        }
    }
    out
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
            det: true,
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
        let report = explain_report(&trace, "unit");
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

    #[test]
    fn reuse_section_summarizes_stage_cache() {
        let trace = Trace {
            lanes: vec![LaneRecords {
                key: vec![0],
                label: "main".to_owned(),
                records: vec![
                    rec(
                        Phase::Instant,
                        "stage.hit",
                        vec![field("stage", "lwt"), field("key", "a")],
                    ),
                    rec(
                        Phase::Instant,
                        "stage.hit",
                        vec![field("stage", "lwt"), field("key", "b")],
                    ),
                    rec(
                        Phase::Instant,
                        "stage.miss",
                        vec![field("stage", "opt"), field("key", "c")],
                    ),
                    rec(
                        Phase::Instant,
                        "stage.miss",
                        vec![field("stage", "opt"), field("key", "d")],
                    ),
                ],
            }],
        };
        let report = explain_report(&trace, "unit");
        assert!(report.contains("## Reuse"), "{report}");
        assert!(
            report.contains("Stage graph: 2 hit(s), 2 miss(es) (50% reused)."),
            "{report}"
        );
        assert!(report.contains("- lwt: 2 hit(s), 0 miss(es)"), "{report}");
        assert!(report.contains("- opt: 0 hit(s), 2 miss(es)"), "{report}");
        // Without disk hits there is no Persistent reuse subsection.
        assert!(!report.contains("### Persistent reuse"), "{report}");
        // A trace with no stage events renders no Reuse section at all.
        let empty = explain_report(&Trace { lanes: vec![] }, "unit");
        assert!(!empty.contains("## Reuse"), "{empty}");
    }

    #[test]
    fn persistent_reuse_subsection_splits_disk_hits() {
        let trace = Trace {
            lanes: vec![LaneRecords {
                key: vec![0],
                label: "main".to_owned(),
                records: vec![
                    rec(
                        Phase::Instant,
                        "stage.hit",
                        vec![field("stage", "lwt"), field("key", "a")],
                    ),
                    rec(
                        Phase::Instant,
                        "stage.disk_hit",
                        vec![field("stage", "lwt"), field("key", "b")],
                    ),
                    rec(
                        Phase::Instant,
                        "stage.disk_hit",
                        vec![field("stage", "schedule"), field("key", "c")],
                    ),
                    rec(
                        Phase::Instant,
                        "stage.miss",
                        vec![field("stage", "opt"), field("key", "d")],
                    ),
                ],
            }],
        };
        let report = explain_report(&trace, "unit");
        // Disk hits count as hits in the stage-graph totals...
        assert!(
            report.contains("Stage graph: 3 hit(s), 1 miss(es) (75% reused)."),
            "{report}"
        );
        assert!(report.contains("- lwt: 2 hit(s), 0 miss(es)"), "{report}");
        // ...and are itemized separately under Persistent reuse.
        assert!(report.contains("### Persistent reuse"), "{report}");
        assert!(
            report.contains("2 of 3 hit(s) were served from the on-disk artifact store."),
            "{report}"
        );
        let tail = report.split("### Persistent reuse").nth(1).unwrap();
        assert!(tail.contains("- lwt: 1 disk hit(s)"), "{report}");
        assert!(tail.contains("- schedule: 1 disk hit(s)"), "{report}");
        assert!(!tail.contains("- opt:"), "{report}");
    }

    #[test]
    fn machine_view_joins_sim_telemetry_with_provenance() {
        let trace = Trace {
            lanes: vec![
                LaneRecords {
                    key: vec![0],
                    label: "main".to_owned(),
                    records: vec![
                        rec(Phase::Begin, "schedule", vec![]),
                        rec(
                            Phase::Instant,
                            "prov.message",
                            vec![
                                field("msg", 0u64),
                                field("array", "X"),
                                field("stmt", 0u64),
                                field("read", 0u64),
                                field("sender", 0u64),
                                field("receivers", "1"),
                                field("nrecv", 1u64),
                                field("words", 64u64),
                                field("steps", "self_reuse+aggregate"),
                            ],
                        ),
                        rec(Phase::End, "schedule", vec![]),
                        rec(Phase::Begin, "simulate", vec![]),
                        rec(
                            Phase::Instant,
                            "sim.link",
                            vec![
                                field("src", 0u64),
                                field("dst", 1u64),
                                field("words", 64u64),
                                field("transmissions", 2u64),
                            ],
                        ),
                        rec(
                            Phase::Instant,
                            "simulate.done",
                            vec![field("time_s", 1.0e-3)],
                        ),
                        rec(Phase::End, "simulate", vec![]),
                    ],
                },
                LaneRecords {
                    key: vec![2, 1],
                    label: "sim p1".to_owned(),
                    records: vec![rec(
                        Phase::Instant,
                        "sim.proc",
                        vec![
                            field("proc", 1u64),
                            field("compute", 0.5e-3),
                            field("comm", 0.25e-3),
                            field("idle", 0.25e-3),
                            field("t0", 1.0e-3),
                        ],
                    )],
                },
            ],
        };
        let report = explain_report(&trace, "unit");
        assert!(report.contains("## Machine view"), "{report}");
        assert!(
            report.contains("p1: compute 0.500 ms (50.0%), comm 0.250 ms (25.0%), idle 0.250 ms (25.0%), finish 1.000 ms"),
            "{report}"
        );
        assert!(
            report.contains("p0 -> p1: 64 word(s) in 2 transmission(s)"),
            "{report}"
        );
        assert!(
            report.contains(
                "m0: X p0 -> [1], 64 word(s) x 1 receiver(s) — survived self_reuse, aggregate"
            ),
            "{report}"
        );
    }

    #[test]
    fn machine_view_percentages_sum_to_exactly_100() {
        // 1/3 splits round to 33.3 each under naive rounding (99.9 total);
        // largest-remainder apportionment hands the extra tenth to the
        // largest remainder so the shares total exactly 100.0.
        let shares = pct_shares(&[1.0, 1.0, 1.0]);
        assert_eq!(shares, vec![" (33.4%)", " (33.3%)", " (33.3%)"]);
        let shares = pct_shares(&[2.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let total: u64 = shares
            .iter()
            .map(|s| {
                let t = s.trim_start_matches(" (").trim_end_matches("%)");
                let (a, b) = t.split_once('.').unwrap();
                a.parse::<u64>().unwrap() * 10 + b.parse::<u64>().unwrap()
            })
            .sum();
        assert_eq!(total, 1000, "{shares:?}");
        // Degenerate inputs render no percentage at all.
        assert_eq!(pct_shares(&[0.0, 0.0]), vec!["", ""]);
        assert_eq!(pct_shares(&[]), Vec::<String>::new());
    }

    #[test]
    fn critical_path_section_renders_blame_and_what_ifs() {
        let trace = Trace {
            lanes: vec![LaneRecords {
                key: vec![0],
                label: "main".to_owned(),
                records: vec![
                    rec(Phase::Begin, "schedule", vec![]),
                    rec(
                        Phase::Instant,
                        "prov.message",
                        vec![
                            field("msg", 0u64),
                            field("array", "X"),
                            field("stmt", 0u64),
                            field("read", 0u64),
                            field("sender", 0u64),
                            field("receivers", "1"),
                            field("nrecv", 1u64),
                            field("words", 64u64),
                            field("steps", "self_reuse+aggregate"),
                        ],
                    ),
                    rec(Phase::End, "schedule", vec![]),
                    rec(Phase::Begin, "simulate", vec![]),
                    rec(Phase::End, "simulate", vec![]),
                    rec(
                        Phase::Instant,
                        "crit.summary",
                        vec![
                            field("makespan_ns", 1_000u64),
                            field("events", 7u64),
                            field("critical", 4u64),
                            field("length", 3u64),
                            field("compute_ns", 900u64),
                            field("alpha_ns", 500u64),
                            field("beta_ns", 300u64),
                            field("contention_ns", 0u64),
                            field("recv_wait_ns", 200u64),
                            field("drain_ns", 100u64),
                        ],
                    ),
                    rec(
                        Phase::Instant,
                        "crit.proc",
                        vec![
                            field("proc", 0u64),
                            field("compute_ns", 500u64),
                            field("alpha_ns", 300u64),
                            field("beta_ns", 200u64),
                            field("contention_ns", 0u64),
                            field("recv_wait_ns", 0u64),
                            field("drain_ns", 0u64),
                        ],
                    ),
                    rec(
                        Phase::Instant,
                        "crit.msg",
                        vec![
                            field("msg", 0u64),
                            field("sender", 0u64),
                            field("nrecv", 1u64),
                            field("send_ns", 500u64),
                            field("wait_ns", 200u64),
                            field("recv_ns", 100u64),
                            field("slack_ns", 0u64),
                            field("critical", true),
                        ],
                    ),
                    rec(
                        Phase::Instant,
                        "crit.whatif",
                        vec![
                            field("msg", 0u64),
                            field("scenario", "eliminate"),
                            field("win_ns", 800u64),
                        ],
                    ),
                ],
            }],
        };
        let report = explain_report(&trace, "unit");
        assert!(report.contains("## Critical path"), "{report}");
        assert!(
            report.contains(
                "makespan 1000 ns, 7 event(s), 4 critical (zero slack), canonical path 3 event(s)"
            ),
            "{report}"
        );
        assert!(
            report.contains("  - p0: compute 500, alpha 300, beta 200"),
            "{report}"
        );
        // Message blame joins the §6 provenance steps from the schedule.
        assert!(
            report.contains("  - self_reuse, aggregate: 1 message(s), 800 ns charged, 1 critical"),
            "{report}"
        );
        assert!(
            report.contains(
                "  - m0: p0 -> 1 receiver(s), 800 ns (send 500, wait 200, recv 100) — critical"
            ),
            "{report}"
        );
        assert!(
            report.contains("  - eliminate m0: makespan -800 ns"),
            "{report}"
        );
        // No top-level `- m`/`- p` rows leak from the critical-path
        // section (tools count those as schedule / machine-view rows).
        for l in report.lines() {
            if l.starts_with("- m") {
                assert!(l.contains("word(s)"), "{l}");
            }
        }
        // A trace with no crit events renders no section at all.
        let empty = explain_report(&Trace { lanes: vec![] }, "unit");
        assert!(!empty.contains("## Critical path"), "{empty}");
    }
}
