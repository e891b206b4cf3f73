//! `dmc explain`: each workload is captured **once** — compile through a
//! [`Session`], one `build_schedule`, the machine run of that plan and its
//! critical-path analysis under the tracer, with the work ledger on over
//! compile + `build_schedule` only (exactly the region of the snapshot's
//! `work_contexts`) — and that one capture feeds every view of it: the
//! Chrome trace, the explain report, the work-unit collapsed stack and
//! the critical-path numbers.
//!
//! The report is assembled here from typed parts: the trace's
//! [`obs::Provenance`] renders the Reads and Surviving messages sections;
//! `reuse_markdown` renders Reuse from the session's [`SessionStats`];
//! `machine_markdown` renders Simulation from the run's [`SimStats`]
//! totals, and Machine view and Critical path from its [`CritAnalysis`],
//! the run's one account; the ledger's [`WorkProfile`] appends Hotspots.
//! The sim lanes of the trace are the analysis's too: it draws them from
//! its own events into the capture.
//!
//! [`check`] is the battery. Per workload it asserts:
//!
//! - **trace**: the Chrome export is well formed (balanced, name-matched
//!   begin/end pairs, monotonic per-lane timestamps) with exactly one
//!   `schedule` span; the provenance names every message of the schedule,
//!   by id in order, with the schedule's sender, receivers and words;
//!   there is one sim lane per simulated processor plus the critical-path
//!   lane;
//! - **ledger**: its charged work is the `work_units` delta of the same
//!   region; the per-context work tiles the charged total; at least 90 %
//!   of the charged work carries a context; a second capture collapses to
//!   the same bytes; the schedule compiled with nothing recording is the
//!   captured one;
//! - **critical path**: the event DAG's longest path equals its makespan
//!   equals the simulator's finish time; zero slack iff critical; blame
//!   tiles the makespan per processor; the links carry the simulator's
//!   transmissions and words; every what-if pruned for its slack
//!   leaves the makespan unchanged; the report carries the Critical path and
//!   Hotspots sections.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dmc_core::{build_schedule, compile, simulate, Options, Session, SessionStats};
use dmc_machine::{
    critpath, Blame, CritAnalysis, LinkBlame, MachineConfig, MsgBlame, Schedule, SimStats,
};
use dmc_obs as obs;
use dmc_polyhedra::ledger::{self, Ledger};
use dmc_polyhedra::{stats, PolyStats};

use crate::profile::WorkProfile;
use crate::{Workload, LIMIT};

/// Everything one capture of a workload produced, and its views.
pub struct Capture {
    /// The trace of compile, schedule, machine run and its critical-path
    /// analysis, which draws the sim lanes.
    pub trace: obs::Trace,
    /// The compiler's provenance, parsed from `trace`.
    pub provenance: obs::Provenance,
    /// The work ledger over compile + `build_schedule`.
    pub ledger: Ledger,
    /// `PolyStats` delta over exactly the ledgered region.
    pub delta: PolyStats,
    /// The schedule `build_schedule` returned.
    pub schedule: Schedule,
    /// The machine run's statistics.
    pub sim: SimStats,
    /// The critical-path analysis of `schedule`.
    pub crit: CritAnalysis,
    /// The ledger folded per attribution context.
    pub profile: WorkProfile,
    /// The Chrome `trace_events` document of `trace`.
    pub chrome: String,
    /// The explain report with its Hotspots section appended.
    pub report: String,
}

/// Captures one workload from cold memo caches, so its cache counters and
/// allocations are the same on every capture. See the module
/// documentation for what the tracer and the ledger each cover.
pub fn capture(w: &Workload) -> Result<Capture, String> {
    // `compile` is exactly this: a fresh session's compile. Holding the
    // session gives the Reuse section its stage counts.
    let mut session = Session::new();
    ledger::start();
    let before = stats::snapshot();
    obs::start_capture();
    let planned = session
        .compile((w.input)(w.nproc), Options::full())
        .and_then(|compiled| {
            build_schedule(&compiled, &w.params, false, LIMIT).map(|s| (compiled, s))
        });
    let delta = stats::snapshot().since(&before);
    let ledger = ledger::finish();
    let config = MachineConfig::ipsc860();
    let ran = planned
        .map_err(|e| e.to_string())
        .and_then(|(compiled, schedule)| {
            let sim = simulate(&compiled, &w.params, &config, false, &schedule)
                .map_err(|e| e.to_string())?
                .stats;
            let crit = critpath::analyze(&schedule, &config)
                .map_err(|e| format!("critical-path analysis failed: {e:?}"))?;
            Ok((schedule, sim, crit))
        });
    let trace = obs::finish_capture();
    let (schedule, sim, crit) = ran.map_err(|e| format!("{}: {e}", w.name))?;
    let profile = WorkProfile::of(w.name, &ledger);
    let chrome = obs::chrome_trace(&trace);
    let provenance = obs::Provenance::parse(&trace);
    let mut report = provenance.reads_markdown(w.name);
    report.push_str(&reuse_markdown(session.stats()));
    report.push_str(&provenance.messages_markdown());
    report.push_str(&machine_markdown(&sim, &crit, &provenance.messages));
    report.push('\n');
    report.push_str(&profile.hotspots_markdown());
    Ok(Capture {
        trace,
        provenance,
        ledger,
        delta,
        schedule,
        sim,
        crit,
        profile,
        chrome,
        report,
    })
}

/// The report's Reuse section: how many of the session's stage lookups
/// were served from its store, in total and per stage. Empty when the
/// session looked nothing up. A capture compiles through a fresh session,
/// so its report truthfully shows zero hits.
fn reuse_markdown(stats: &SessionStats) -> String {
    let mut out = String::new();
    if stats.per_stage.is_empty() {
        return out;
    }
    let (hits, misses) = (stats.stage_hits, stats.stage_misses);
    let reused = 100.0 * hits as f64 / (hits + misses) as f64;
    let _ = writeln!(out, "\n## Reuse");
    let _ = writeln!(
        out,
        "Stage graph: {hits} hit(s), {misses} miss(es) ({reused:.0}% reused)."
    );
    for (stage, c) in &stats.per_stage {
        let _ = writeln!(out, "- {stage}: {} hit(s), {} miss(es)", c.hits, c.misses);
    }
    out
}

/// The report's Simulation, Machine view and Critical path sections, from
/// the machine run's totals and its critical-path analysis, which keeps
/// the run's books; messages are joined with their provenance by id.
fn machine_markdown(
    stats: &SimStats,
    crit: &CritAnalysis,
    messages: &[obs::MessageProv],
) -> String {
    let mut out = String::new();
    // The capture runs the machine in timing mode.
    let _ = writeln!(out, "\n## Simulation");
    let _ = writeln!(
        out,
        "values = false, time = {:?}, flops = {:?}, messages = {}, transmissions = {}, words = {}",
        stats.time, stats.flops, stats.messages, stats.transmissions, stats.words
    );

    // Through seconds, as the simulator reports time, so every printed
    // digit is the one the simulator's seconds give.
    let secs = |ns: u64| ns as f64 * 1e-9;
    let ms = |ns: u64| format!("{:.3} ms", secs(ns) * 1e3);
    let _ = writeln!(out, "\n## Machine view");
    let _ = writeln!(
        out,
        "{} simulated processor(s); simulated time.",
        crit.nproc
    );
    for (p, b) in crit.per_proc.iter().enumerate() {
        let comm = b.alpha_ns + b.beta_ns + b.contention_ns;
        let shares = pct_shares(&[b.compute_ns, comm, b.recv_wait_ns].map(secs));
        let _ = writeln!(
            out,
            "- p{p}: compute {}{}, comm {}{}, idle {}{}, finish {}",
            ms(b.compute_ns),
            shares[0],
            ms(comm),
            shares[1],
            ms(b.recv_wait_ns),
            shares[2],
            ms(crit.makespan_ns - b.drain_ns)
        );
    }
    let mut latencies_us: Vec<u64> = (crit.latencies_ns().into_iter())
        .map(|ns| (ns + 500) / 1000)
        .collect();
    if !latencies_us.is_empty() {
        // The nearest-rank percentile, reported as the power of two at or
        // above it, hence the `<=`.
        latencies_us.sort_unstable();
        let n = latencies_us.len();
        let bound = |q: f64| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            latencies_us[rank - 1].next_power_of_two()
        };
        let _ = writeln!(
            out,
            "- latency percentiles over {n} transmission(s): \
             p50 <= {} us, p95 <= {} us, p99 <= {} us",
            bound(0.50),
            bound(0.95),
            bound(0.99)
        );
    }
    let mut links: Vec<&LinkBlame> = crit.links.iter().filter(|l| l.words > 0).collect();
    // Stable: equal words stay in `(src, dst)` order.
    links.sort_by_key(|l| std::cmp::Reverse(l.words));
    if !links.is_empty() {
        let _ = writeln!(out, "Top links by traffic:");
        for l in links.iter().take(8) {
            let _ = writeln!(
                out,
                "- p{} -> p{}: {} word(s) in {} transmission(s)",
                l.src, l.dst, l.words, l.transmissions
            );
        }
        if links.len() > 8 {
            let _ = writeln!(out, "  (+{} more links)", links.len() - 8);
        }
    }
    if !messages.is_empty() {
        let weight = |m: &obs::MessageProv| m.words * m.receivers.len() as u64;
        let mut hot: Vec<&obs::MessageProv> = messages.iter().collect();
        hot.sort_by(|a, b| weight(b).cmp(&weight(a)).then(a.msg.cmp(&b.msg)));
        let _ = writeln!(out, "Hot messages (by words x receivers):");
        for m in hot.iter().take(5) {
            let steps = m.chain().map_or_else(
                || "(no pass record)".to_owned(),
                |c| format!("survived {c}"),
            );
            let _ = writeln!(
                out,
                "  - m{}: {} p{} -> [{}], {} word(s) x {} receiver(s) — {steps}",
                m.msg,
                m.array,
                m.sender,
                m.receiver_list(),
                m.words,
                m.receivers.len()
            );
        }
    }

    let _ = writeln!(out, "\n## Critical path");
    let _ = writeln!(
        out,
        "Exact event-DAG analysis of the simulated run (integer ns): \
         makespan {} ns, {} event(s), {} critical (zero slack), \
         canonical path {} event(s).",
        crit.makespan_ns,
        crit.events.len(),
        crit.critical_events(),
        crit.chain.len()
    );
    let blame_row = |b: &Blame, shares: &[String]| -> String {
        let cells: Vec<String> = b
            .categories()
            .iter()
            .enumerate()
            .map(|(i, (cat, v))| {
                let share = shares.get(i).map_or("", String::as_str);
                format!("{} {v}{share}", cat.replace('_', "-"))
            })
            .collect();
        cells.join(", ")
    };
    let total = crit.total.categories().map(|(_, v)| v as f64);
    let _ = writeln!(
        out,
        "Machine blame, ns (categories tile each processor's makespan exactly): {}",
        blame_row(&crit.total, &pct_shares(&total))
    );
    // Indented: the top-level `- p` rows are the Machine view's.
    for (p, b) in crit.per_proc.iter().enumerate() {
        let _ = writeln!(out, "  - p{p}: {}", blame_row(b, &[]));
    }
    let sent: Vec<&MsgBlame> = crit.messages.iter().filter(|m| m.sent()).collect();
    if !sent.is_empty() {
        // Charge per §6 pass chain: each message's charged time joined
        // with the provenance of its communication set.
        let steps_of = |id: usize| {
            messages
                .iter()
                .find(|m| m.msg == id)
                .and_then(obs::MessageProv::chain)
                .unwrap_or_else(|| "(no pass record)".to_owned())
        };
        let mut by_pass: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for mb in &sent {
            let e = by_pass.entry(steps_of(mb.msg)).or_default();
            e.0 += 1;
            e.1 += mb.cost_ns();
            e.2 += u64::from(mb.critical);
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
        let mut hot = sent;
        hot.sort_by(|a, b| b.cost_ns().cmp(&a.cost_ns()).then(a.msg.cmp(&b.msg)));
        let _ = writeln!(out, "Most expensive messages (charged ns):");
        for mb in hot.iter().take(5) {
            let note = if mb.critical {
                "critical".to_owned()
            } else {
                format!("slack {} ns", mb.slack_ns)
            };
            let _ = writeln!(
                out,
                "  - m{}: p{} -> {} receiver(s), {} ns (send {}, wait {}, recv {}) — {note}",
                mb.msg,
                mb.sender,
                mb.fanout,
                mb.cost_ns(),
                mb.send_ns,
                mb.wait_ns,
                mb.recv_ns
            );
        }
    }
    let what_ifs = crit.what_if();
    if !what_ifs.is_empty() {
        let _ = writeln!(out, "What-if estimates (exact DAG re-evaluation):");
        for w in what_ifs.iter().take(5) {
            let _ = writeln!(
                out,
                "  - {} m{}: makespan -{} ns",
                w.scenario.name(),
                w.msg,
                w.win_ns
            );
        }
    }
    out
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

/// The battery: every invariant of the module documentation, on one
/// workload's capture. Captures and compiles the workload again for the
/// determinism and transparency checks. Returns one line per view.
pub fn check(w: &Workload, cap: &Capture) -> Result<String, String> {
    let name = w.name;

    let c = obs::validate_chrome(&cap.chrome)
        .map_err(|e| format!("{name}: invalid Chrome trace: {e}"))?;
    // The capture plans once: counting and simulating reuse that plan.
    let plans = (cap.trace.lanes.iter().flat_map(|l| &l.records))
        .filter(|r| r.phase == obs::Phase::Begin && r.name == "schedule")
        .count();
    ensure!(
        plans == 1,
        "{name}: the capture holds {plans} schedule span(s), not one"
    );
    let n_messages = cap.schedule.messages.len();
    let provenance = &cap.provenance.messages;
    ensure!(
        provenance.len() == n_messages,
        "{name}: provenance names {} messages, schedule has {n_messages}",
        provenance.len()
    );
    for (id, (m, spec)) in provenance.iter().zip(&cap.schedule.messages).enumerate() {
        ensure!(
            m.msg == id
                && m.sender == spec.sender
                && m.receivers == spec.receivers
                && m.words == spec.words,
            "{name}: provenance m{} p{} -> {:?}, {} word(s) is not scheduled message m{id} \
             p{} -> {:?}, {} word(s)",
            m.msg,
            m.sender,
            m.receivers,
            m.words,
            spec.sender,
            spec.receivers,
            spec.words
        );
    }
    let nproc = w.nproc as usize;
    let sim_lanes = cap
        .trace
        .lanes
        .iter()
        .filter(|l| l.key.first() == Some(&2))
        .count();
    ensure!(
        sim_lanes == nproc + 1,
        "{name}: {sim_lanes} sim lane(s) for a {nproc}-processor grid (+1 critical path)"
    );
    ensure!(
        cap.trace
            .lanes
            .iter()
            .any(|l| l.key.as_slice() == [2, nproc as u64]),
        "{name}: no critical-path lane"
    );

    let charged = cap.ledger.charged_work();
    ensure!(
        charged == cap.delta.work_units,
        "{name}: the ledger charged {charged}, the work_units delta is {}",
        cap.delta.work_units
    );
    let ctx_sum: u64 = cap.profile.context_totals().iter().map(|(_, u)| u).sum();
    ensure!(
        ctx_sum == charged,
        "{name}: per-context work sums to {ctx_sum}, the ledger charged {charged}"
    );
    let covered = cap.profile.attributed_fraction();
    let enough = covered >= 0.90;
    ensure!(
        enough,
        "{name}: only {:.1}% of work units attributed to contexts (need >= 90%)",
        covered * 100.0
    );
    let again = capture(w)?.profile.collapsed_stack();
    ensure!(
        again == cap.profile.collapsed_stack(),
        "{name}: collapsed stack differs between captures"
    );
    // Recording observes, never steers.
    let compiled = compile((w.input)(w.nproc), Options::full()).map_err(|e| e.to_string())?;
    let plain = build_schedule(&compiled, &w.params, false, LIMIT).map_err(|e| e.to_string())?;
    ensure!(
        plain == cap.schedule,
        "{name}: recording changed the compiled schedule"
    );

    cap.crit
        .verify(&cap.sim)
        .map_err(|e| format!("{name}: invariant violated: {e}"))?;
    cap.crit
        .verify_what_ifs()
        .map_err(|e| format!("{name}: what-if mismatch: {e}"))?;
    for section in ["## Critical path", "## Hotspots"] {
        ensure!(
            cap.report.contains(section),
            "{name}: report is missing the {section:?} section"
        );
    }

    Ok(format!(
        "{name:<10} trace ok: {} lanes ({sim_lanes} sim), {} spans, {} events; \
         {n_messages} message(s) attributed\n\
         {name:<10} ledger ok: {} work units, {} ops, {:.1}% attributed; charged == work_units; \
         recapture collapsed identical; output unchanged\n\
         {name:<10} critpath ok: {} event(s), path {}, makespan {} ns == longest path == sim; \
         blame exact on {} proc(s)",
        c.lanes,
        c.spans,
        c.events,
        charged,
        cap.ledger.records().count(),
        covered * 100.0,
        cap.crit.events.len(),
        cap.crit.chain.len(),
        cap.crit.makespan_ns,
        cap.crit.nproc
    ))
}

#[cfg(test)]
mod tests {
    use dmc_core::{SessionStats, StageCount};

    use super::{pct_shares, reuse_markdown};

    #[test]
    fn reuse_section_summarizes_stage_cache() {
        let count = |hits, misses| StageCount {
            hits,
            disk_hits: 0,
            misses,
        };
        let stats = SessionStats {
            stage_hits: 3,
            stage_disk_hits: 0,
            stage_misses: 2,
            per_stage: [("lwt", count(3, 1)), ("opt", count(0, 1))].into(),
        };
        assert_eq!(
            reuse_markdown(&stats),
            "\n## Reuse\n\
             Stage graph: 3 hit(s), 2 miss(es) (60% reused).\n\
             - lwt: 3 hit(s), 1 miss(es)\n\
             - opt: 0 hit(s), 1 miss(es)\n"
        );
        // A session that looked nothing up renders no Reuse section.
        assert_eq!(reuse_markdown(&SessionStats::default()), "");
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
}
