//! `dmc explain`: each workload is captured **once** — compile,
//! `build_schedule`, `message_stats` and the machine run under the
//! tracer, with the work ledger on over compile + `build_schedule` only
//! (exactly the region of the snapshot's `work_contexts`) — and that one
//! capture feeds every view of it: the Chrome trace, the explain report
//! with its Critical path and Hotspots sections, the work-unit collapsed
//! stack and the critical-path analysis.
//!
//! [`check`] is the battery. Per workload it asserts:
//!
//! - **trace**: the Chrome export is well formed (balanced, name-matched
//!   begin/end pairs, monotonic per-lane timestamps); the report
//!   attributes exactly one surviving message per message of the final
//!   schedule; there is one sim lane per simulated processor plus the
//!   critical-path lane;
//! - **ledger**: its totals equal the `PolyStats` deltas of the same
//!   region for every operation kind and cache counter; the per-context
//!   work tiles the charged total; at least 90 % of the charged work
//!   carries a context; a second capture collapses to the same bytes;
//!   the schedule and message statistics compiled with nothing recording
//!   are the captured ones;
//! - **critical path**: the event DAG's longest path equals its makespan
//!   equals the simulator's finish time; zero slack iff critical; blame
//!   tiles the makespan per processor; every incremental what-if matches
//!   a brute-force pass; the report carries the Critical path and
//!   Hotspots sections.

use std::fmt::Write as _;

use dmc_core::{build_schedule, compile, message_stats, run, Options};
use dmc_machine::{critpath, CritAnalysis, MachineConfig, Schedule, SimStats};
use dmc_obs as obs;
use dmc_obs::json::Json;
use dmc_polyhedra::ledger::{self, CacheOutcome, Ledger};
use dmc_polyhedra::{stats, PolyStats};

use crate::{Workload, LIMIT};

/// Everything one capture of a workload produced, and its views.
pub struct Capture {
    /// The trace of compile, schedule, message statistics and machine run.
    pub trace: obs::Trace,
    /// The work ledger over compile + `build_schedule`.
    pub ledger: Ledger,
    /// `PolyStats` delta over exactly the ledgered region.
    pub delta: PolyStats,
    /// The schedule `build_schedule` returned.
    pub schedule: Schedule,
    /// `message_stats`: messages, transmissions, words.
    pub messages: (u64, u64, u64),
    /// The machine run's statistics.
    pub sim: SimStats,
    /// The critical-path analysis of `schedule`.
    pub crit: CritAnalysis,
    /// The ledger folded per attribution context.
    pub profile: obs::WorkProfile,
    /// The Chrome `trace_events` document of `trace`.
    pub chrome: String,
    /// The explain report with its Hotspots section appended.
    pub report: String,
}

/// Captures one workload. See the module documentation for what the
/// tracer and the ledger each cover.
pub fn capture(w: &Workload) -> Result<Capture, String> {
    ledger::start();
    let before = stats::snapshot();
    obs::start_capture();
    let planned = compile((w.input)(w.nproc), Options::full()).and_then(|compiled| {
        build_schedule(&compiled, &w.params, false, LIMIT).map(|s| (compiled, s))
    });
    let delta = stats::snapshot().since(&before);
    let ledger = ledger::finish();
    let ran = planned.and_then(|(compiled, schedule)| {
        let messages = message_stats(&compiled, &w.params, LIMIT)?;
        let config = MachineConfig::ipsc860();
        let sim = run(&compiled, &w.params, &config, false, LIMIT)?.stats;
        Ok((schedule, messages, sim))
    });
    let trace = obs::finish_capture();
    let (schedule, messages, sim) = ran.map_err(|e| format!("{}: {e}", w.name))?;
    let crit = critpath::analyze(&schedule, &MachineConfig::ipsc860())
        .map_err(|e| format!("{}: critical-path analysis failed: {e:?}", w.name))?;
    let profile = profile_of(w.name, &ledger);
    let chrome = obs::chrome_trace(&trace);
    let mut report = obs::explain_report(&trace, w.name);
    report.push('\n');
    report.push_str(&profile.hotspots_markdown());
    Ok(Capture {
        trace,
        ledger,
        delta,
        schedule,
        messages,
        sim,
        crit,
        profile,
        chrome,
        report,
    })
}

/// Folds a ledger into the deterministic per-context profile.
fn profile_of(name: &str, ledger: &Ledger) -> obs::WorkProfile {
    let mut p = obs::WorkProfile::new(name);
    for seg in &ledger.segments {
        for r in &seg.records {
            p.add_op(
                &seg.ctx,
                &obs::ProfileOp {
                    kind: r.kind.name(),
                    cons_in: u64::from(r.cons_in),
                    cons_out: u64::from(r.cons_out),
                    self_units: r.self_units,
                    charged_units: r.charged_units,
                    top_level: r.top_level,
                    cache_hit: match r.cache {
                        CacheOutcome::Uncached => None,
                        CacheOutcome::Hit => Some(true),
                        CacheOutcome::Miss => Some(false),
                    },
                    duration_ns: r.duration_ns,
                },
            );
        }
    }
    p
}

/// The battery: every invariant of the module documentation, on one
/// workload's capture. Captures and compiles the workload again for the
/// determinism and transparency checks. Returns one line per view.
pub fn check(w: &Workload, cap: &Capture) -> Result<String, String> {
    let name = w.name;

    let c = obs::validate_chrome(&cap.chrome)
        .map_err(|e| format!("{name}: invalid Chrome trace: {e}"))?;
    let n_messages = cap.schedule.messages.len();
    let attributed = cap.report.lines().filter(|l| l.starts_with("- m")).count();
    ensure!(
        attributed == n_messages,
        "{name}: explain report attributes {attributed} messages, schedule has {n_messages}"
    );
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

    check_totals(name, &cap.ledger, &cap.delta)?;
    let ctx_sum: u64 = cap.profile.context_totals().iter().map(|(_, u)| u).sum();
    let charged = cap.ledger.charged_work();
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
    let plain_messages = message_stats(&compiled, &w.params, LIMIT).map_err(|e| e.to_string())?;
    ensure!(
        plain == cap.schedule && plain_messages == cap.messages,
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
         {name:<10} ledger ok: {} work units, {} ops, {:.1}% attributed; totals == PolyStats; \
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

/// Asserts every ledger total equals the matching `PolyStats` delta.
/// These are the *actual* (not charged) values of the same run, so they
/// must agree exactly: any slack means a record site is missing or
/// double-counting.
fn check_totals(name: &str, ledger: &Ledger, delta: &PolyStats) -> Result<(), String> {
    let t = ledger.totals();
    let pairs = [
        ("fm_steps", t.fm_steps, delta.fm_steps),
        (
            "feasibility_calls",
            t.feasibility_calls,
            delta.feasibility_calls,
        ),
        ("bnb_nodes", t.bnb_nodes, delta.bnb_nodes),
        ("negation_tests", t.negation_tests, delta.negation_tests),
        ("lex_splits", t.lex_splits, delta.lex_splits),
        ("feas_cache_hits", t.feas_cache_hits, delta.feas_cache_hits),
        (
            "feas_cache_misses",
            t.feas_cache_misses,
            delta.feas_cache_misses,
        ),
        ("proj_cache_hits", t.proj_cache_hits, delta.proj_cache_hits),
        (
            "proj_cache_misses",
            t.proj_cache_misses,
            delta.proj_cache_misses,
        ),
        ("scan_cache_hits", t.scan_cache_hits, delta.scan_cache_hits),
        (
            "scan_cache_misses",
            t.scan_cache_misses,
            delta.scan_cache_misses,
        ),
        ("lex_cache_hits", t.lex_cache_hits, delta.lex_cache_hits),
        (
            "lex_cache_misses",
            t.lex_cache_misses,
            delta.lex_cache_misses,
        ),
    ];
    for (field, ledger_v, stats_v) in pairs {
        ensure!(
            ledger_v == stats_v,
            "{name}: ledger {field} = {ledger_v}, PolyStats delta = {stats_v} \
             (every engine operation must be recorded exactly once)"
        );
    }
    Ok(())
}

/// The top-`n` contexts by charged work units with each one's share of
/// the workload total, then the engine counters of the ledgered region.
pub fn top_text(name: &str, cap: &Capture, n: usize) -> String {
    let totals = cap.profile.context_totals();
    let total = cap.profile.total_work();
    let mut out = format!(
        "{name}: top {} contexts of {} ({total} work units total)\n{:>10} {:>7}  context\n",
        n.min(totals.len()),
        totals.len(),
        "units",
        "share"
    );
    for (ctx, units) in totals.iter().take(n) {
        let pct = *units as f64 / total.max(1) as f64 * 100.0;
        let _ = writeln!(out, "{units:>10} {pct:>6.1}%  {ctx}");
    }
    let d = &cap.delta;
    let _ = writeln!(
        out,
        "  engine: {} fm steps, {} feasibility calls, {} bnb nodes, \
         {} negation tests, {} prefilter keeps, {} prefilter drops, {} lex splits",
        d.fm_steps,
        d.feasibility_calls,
        d.bnb_nodes,
        d.negation_tests,
        d.prefilter_keeps,
        d.prefilter_drops,
        d.lex_splits
    );
    for wi in cap.crit.what_if().iter().take(n) {
        let _ = writeln!(
            out,
            "  what-if {} m{}: makespan -{:.3} ms",
            wi.scenario.name(),
            wi.msg,
            wi.win_ns as f64 / 1e6
        );
    }
    out
}

/// Per-context work-unit deltas of `profile` against the workload's
/// `work_contexts` section in a `BENCH_pipeline.json` snapshot, and its
/// total against the snapshot's `work_units`.
pub fn diff_text(name: &str, profile: &obs::WorkProfile, snapshot: &Json) -> String {
    let entry = snapshot
        .get("workloads")
        .and_then(Json::as_arr)
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        });
    let Some(entry) = entry else {
        return format!("{name}: not present in snapshot — nothing to diff\n");
    };
    let num = |v: Option<&Json>| v.and_then(Json::as_num).unwrap_or(0.0) as i128;
    let old_total = num(entry.get("work_units"));
    let new_total = i128::from(profile.total_work());
    let mut out = format!(
        "{name}: work_units {old_total} -> {new_total} ({:+})\n",
        new_total - old_total
    );
    let Some(Json::Obj(old_ctx)) = entry.get("work_contexts") else {
        out.push_str("  (snapshot has no work_contexts section; totals only)\n");
        return out;
    };
    // Union of old and new context paths, new totals first.
    let new_ctx = profile.context_totals();
    let mut rows: Vec<(String, i128, i128)> = Vec::new();
    for (ctx, units) in &new_ctx {
        let old = num(old_ctx.iter().find(|(k, _)| k == ctx).map(|(_, v)| v));
        rows.push((ctx.clone(), old, i128::from(*units)));
    }
    for (k, v) in old_ctx {
        if !new_ctx.iter().any(|(c, _)| c == k) {
            rows.push((k.clone(), num(Some(v)), 0));
        }
    }
    rows.sort_by(|a, b| {
        let (da, db) = ((a.2 - a.1).abs(), (b.2 - b.1).abs());
        db.cmp(&da).then(a.0.cmp(&b.0))
    });
    let _ = writeln!(out, "{:>10} {:>10} {:>8}  context", "old", "new", "delta");
    for (ctx, old, new) in rows {
        if old != new {
            let _ = writeln!(out, "{old:>10} {new:>10} {:>+8}  {ctx}", new - old);
        }
    }
    out
}

/// Renders the `dmc explain --json` document: one object per workload
/// with its exact work-unit total and per-context charged work, in the
/// same descending order as the text report. The document round-trips
/// through `dmc_obs::json::parse`.
pub fn profile_json(profiles: &[(&str, obs::WorkProfile)]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let rows: Vec<String> = profiles
        .iter()
        .map(|(name, p)| {
            let contexts: Vec<String> = p
                .context_totals()
                .iter()
                .map(|(c, u)| format!("\"{}\": {u}", esc(c)))
                .collect();
            format!(
                "    {{\"name\": \"{}\", \"work_units\": {}, \"contexts\": {{{}}}}}",
                esc(name),
                p.total_work(),
                contexts.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"harness\": \"dmc explain\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}
