//! `dmc snapshot`: compiles, schedules and simulates the paper's
//! workloads from cold memo caches, checks that running each again over
//! the now-warm caches produces identical schedules, message counts and
//! simulation results, and renders the deterministic numbers — engine
//! counters, charged work units, allocations, critical path, sweep and
//! store traffic — as the `BENCH_pipeline.json` document. No field
//! depends on the host or on timing, so the file is an exact golden.
//!
//! [`check`] is the battery: it builds a fresh document and compares it
//! with the committed one by [`dmc_obs::json::diff`]; every leaf must be
//! equal, and a missing or extra key is a finding.

use std::fmt::Write as _;
use std::path::Path;

use dmc_core::{build_schedule, compile, simulate, Options, Session};
use dmc_machine::{CritAnalysis, MachineConfig};
use dmc_obs::json::{self, Json};
use dmc_polyhedra::{
    cache, lexopt, stats, Constraint, DimKind, Direction, LinExpr, PolyStats, Polyhedron, Space,
};
use dmc_store::DiskStore;

use crate::{explain, lu_input, workloads, Workload, LIMIT};

struct Measured {
    schedule: dmc_machine::Schedule,
    sim: dmc_machine::SimStats,
}

/// Compiles, schedules and simulates that schedule once over whatever
/// this thread's memo caches hold.
fn run_once(w: &Workload) -> Measured {
    let compiled = compile((w.input)(w.nproc), Options::full()).expect("compiles");
    let schedule = build_schedule(&compiled, &w.params, false, LIMIT).expect("schedules");
    let config = MachineConfig::ipsc860();
    let sim = simulate(&compiled, &w.params, &config, false, &schedule)
        .expect("simulates")
        .stats;
    Measured { schedule, sim }
}

fn stats_json(s: &PolyStats) -> String {
    format!(
        concat!(
            "{{\"fm_steps\": {}, \"feasibility_calls\": {}, \"feasibility_unknown\": {}, ",
            "\"bnb_nodes\": {}, \"feas_cache_hits\": {}, \"feas_cache_misses\": {}, ",
            "\"proj_cache_hits\": {}, \"proj_cache_misses\": {}, \"scan_cache_hits\": {}, ",
            "\"scan_cache_misses\": {}, \"lex_cache_hits\": {}, \"lex_cache_misses\": {}, ",
            "\"cache_bypasses\": {}, \"negation_tests\": {}, ",
            "\"prefilter_drops\": {}, \"prefilter_keeps\": {}, \"lex_splits\": {}}}"
        ),
        s.fm_steps,
        s.feasibility_calls,
        s.feasibility_unknown,
        s.bnb_nodes,
        s.feas_cache_hits,
        s.feas_cache_misses,
        s.proj_cache_hits,
        s.proj_cache_misses,
        s.scan_cache_hits,
        s.scan_cache_misses,
        s.lex_cache_hits,
        s.lex_cache_misses,
        s.cache_bypasses,
        s.negation_tests,
        s.prefilter_drops,
        s.prefilter_keeps,
        s.lex_splits,
    )
}

fn contexts_json(contexts: &[(String, u64)]) -> String {
    let rows: Vec<String> = contexts
        .iter()
        .map(|(ctx, units)| format!("\"{ctx}\": {units}"))
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// The per-stage hit/miss tiling of one session, for the snapshot's
/// `sweep` section: columns sum to the session's `stage_hits` and
/// `stage_misses` exactly.
fn per_stage_json(stats: &dmc_core::SessionStats) -> String {
    let rows: Vec<String> = stats
        .per_stage
        .iter()
        .map(|(stage, c)| {
            format!(
                "\"{stage}\": {{\"hits\": {}, \"misses\": {}}}",
                c.hits, c.misses
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// Like [`per_stage_json`], with each stage's hits split by source —
/// the `store` section's warm-start tiling (`disk_hits` ≤ `hits`).
fn per_stage_disk_json(stats: &dmc_core::SessionStats) -> String {
    let rows: Vec<String> = stats
        .per_stage
        .iter()
        .map(|(stage, c)| {
            format!(
                "\"{stage}\": {{\"hits\": {}, \"disk_hits\": {}, \"misses\": {}}}",
                c.hits, c.disk_hits, c.misses
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// `f`'s result and its charged work units on this thread: its
/// `work_units` delta.
fn work_units<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = stats::snapshot().work_units;
    let out = f();
    (out, stats::snapshot().work_units - before)
}

/// Charged work units of one canned engine operation, run on this thread
/// from cold caches. Pure solver work on fixed inputs: exact-gateable.
fn charged(f: impl FnOnce()) -> u64 {
    cache::clear_thread_caches();
    work_units(f).1
}

/// The `polyops` microbench: canned polyhedra driven through the engine's
/// four core operations, each reported in deterministic charged work
/// units (not wall time). These isolate the solver from the pipeline: a
/// regression here names the operation that got more expensive.
fn polyops_json() -> String {
    let space = Space::from_dims([
        ("i", DimKind::Index),
        ("j", DimKind::Index),
        ("k", DimKind::Index),
        ("N", DimKind::Param),
    ]);
    // A banded triangular nest: 0 <= i <= N, i <= j <= i + 3, j <= N,
    // 0 <= k <= j - i, N <= 40 — enough structure that every operation
    // does real shadow/branch-and-bound work.
    let mut p = Polyhedron::universe(space);
    let row = |coeffs: [i128; 4], c: i128| Constraint::ge(LinExpr::from_coeffs(coeffs.to_vec(), c));
    p.add(row([1, 0, 0, 0], 0));
    p.add(row([-1, 0, 0, 1], 0));
    p.add(row([-1, 1, 0, 0], 0));
    p.add(row([1, -1, 0, 0], 3));
    p.add(row([0, -1, 0, 1], 0));
    p.add(row([0, 0, 1, 0], 0));
    p.add(row([-1, 1, -1, 0], 0));
    p.add(row([0, 0, 0, -1], 40));
    p.add(row([0, 0, 0, 1], -1));
    let feasibility = charged(|| {
        let _ = p.integer_feasibility().expect("polyops feasibility");
    });
    let projection = charged(|| {
        let _ = p.eliminate_dims(&[1, 2]).expect("polyops projection");
    });
    let redundancy = charged(|| {
        let _ = p.remove_redundant().expect("polyops redundancy");
    });
    let lexmax = charged(|| {
        let _ = lexopt(&p, &[0, 1], Direction::Max).expect("polyops lexmax");
    });
    format!(
        "{{\"feasibility\": {feasibility}, \"projection\": {projection}, \
         \"redundancy\": {redundancy}, \"lexmax\": {lexmax}}}"
    )
}

/// The critical-path section of one workload: event-DAG size, canonical
/// path length, exact integer makespan, the six-category blame totals and
/// the best what-if win. Every field is an exact integer derived from the
/// deterministic schedule.
fn critpath_json(crit: &CritAnalysis) -> String {
    let blame: Vec<String> = crit
        .total
        .categories()
        .iter()
        .map(|(c, v)| format!("\"{c}\": {v}"))
        .collect();
    let top = match crit.top_what_if() {
        Some(wi) => format!(
            "{{\"msg\": {}, \"scenario\": \"{}\", \"win_ns\": {}}}",
            wi.msg,
            wi.scenario.name(),
            wi.win_ns
        ),
        None => "null".to_owned(),
    };
    format!(
        concat!(
            "{{\"events\": {}, \"critical_events\": {}, \"length\": {}, ",
            "\"makespan_ns\": {}, \"blame\": {{{}}}, \"top_whatif\": {}}}"
        ),
        crit.events.len(),
        crit.critical_events(),
        crit.chain.len(),
        crit.makespan_ns,
        blame.join(", "),
        top,
    )
}

/// Measures every section and renders the snapshot document, running the
/// store section in `cache_dir` and writing progress lines to `log`.
/// `Err` names the invariant the snapshot records that failed (cold and
/// warm runs differ, a Last Write Tree is built twice, the warm store
/// pass recomputes or loads a corrupt entry).
pub fn document(cache_dir: &Path, log: &mut String) -> Result<String, String> {
    let mut body = String::new();
    let mut all_identical = true;

    let _ = writeln!(
        log,
        "{:<10} {:>10} {:>10}",
        "workload", "identical", "cache hits"
    );
    for (k, w) in workloads().iter().enumerate() {
        // The cold run is the one capture `dmc explain` takes: the ledger
        // over compile + schedule from cold caches (which is what makes
        // the counters and `allocs` deterministic), and messages per §6
        // pass chain from the provenance events of the captured schedule.
        // Then the same again over the caches it warmed: a memo hit may
        // change time, never an output.
        let cold = explain::capture(w)?;
        let warm = run_once(w);

        // The message counts are the schedule's, so equal schedules carry
        // equal counts.
        let identical = cold.schedule == warm.schedule && cold.sim == warm.sim;
        all_identical &= identical;

        let s = &cold.delta;
        let hits = s.feas_cache_hits + s.proj_cache_hits + s.scan_cache_hits + s.lex_cache_hits;
        let _ = writeln!(log, "{:<10} {:>10} {:>10}", w.name, identical, hits);

        let params: Vec<String> = w.params.iter().map(|p| p.to_string()).collect();
        if k > 0 {
            body.push_str(",\n");
        }
        let (messages, transmissions, words) = cold.schedule.message_stats();
        let comm_passes = cold.provenance.message_pass_counts();
        let pass_total: u64 = comm_passes.iter().map(|(_, n)| n).sum();
        ensure!(
            pass_total == messages,
            "{}: per-pass message counts must tile the message total",
            w.name
        );
        let _ = write!(
            body,
            concat!(
                "    {{\"name\": \"{}\", \"params\": [{}], \"nproc\": {},\n",
                "     \"counters\": {},\n",
                "     \"identical\": {},\n",
                "     \"messages\": {}, \"transmissions\": {}, \"words\": {}, ",
                "\"work_units\": {}, \"allocs\": {}, \"sim_time_s\": {:.6},\n",
                "     \"critpath\": {},\n",
                "     \"work_contexts\": {},\n",
                "     \"comm_passes\": {}}}"
            ),
            w.name,
            params.join(", "),
            w.nproc,
            stats_json(&cold.delta),
            identical,
            messages,
            transmissions,
            words,
            cold.ledger.charged_work(),
            cold.delta.allocs,
            cold.sim.time,
            critpath_json(&cold.crit),
            contexts_json(&cold.profile.context_totals()),
            contexts_json(&comm_passes),
        );
    }

    // Stage-graph sweep: LU at four processor counts through ONE session.
    // The grid only enters the stage keys at the `opt` stage (receiver
    // folding), so every step after the first reuses all five per-read
    // Last Write Trees — only the `opt` stages re-run. Hit/miss totals are
    // deterministic fingerprint lookups; the message counts come from the
    // classic (non-session) `build_schedule`, pinning the cached artifacts
    // to the one-shot pipeline. The sweep's charged work is summed over
    // the session's compiles alone: stage hits skip the engine entirely
    // and memo-cache hits replay their memoized charge, so the total is
    // deterministic — and visibly *smaller* than four independent
    // compiles.
    let sweep_nprocs: [i128; 4] = [2, 4, 8, 16];
    let sweep_params: [i128; 1] = [48];
    let mut session = Session::new();
    let mut sweep_identical = true;
    let mut sweep_messages: Vec<String> = Vec::new();
    let mut sweep_work = 0;
    for &nproc in &sweep_nprocs {
        let (swept, units) = work_units(|| session.compile(lu_input(nproc), Options::full()));
        sweep_work += units;
        let swept = swept.expect("sweep compiles");
        let scratch = compile(lu_input(nproc), Options::full()).expect("sweep scratch");
        sweep_identical &= format!("{:?} {:?}", swept.lwts, swept.comm)
            == format!("{:?} {:?}", scratch.lwts, scratch.comm);
        let plan = build_schedule(&swept, &sweep_params, false, LIMIT).expect("sweep plans");
        sweep_messages.push(plan.message_stats().0.to_string());
    }
    all_identical &= sweep_identical;
    let (sweep_hits, sweep_misses) = (session.stats().stage_hits, session.stats().stage_misses);
    let reused_pct = 100.0 * sweep_hits as f64 / (sweep_hits + sweep_misses).max(1) as f64;
    let _ = writeln!(
        log,
        "sweep: lu at {:?} procs: {sweep_hits} stage hit(s) / {sweep_misses} miss(es) \
         ({reused_pct:.0}% reused), identical: {sweep_identical}",
        sweep_nprocs
    );
    // What the sweep is for: no Last Write Tree is built twice.
    let lwt = session
        .stats()
        .per_stage
        .get("lwt")
        .copied()
        .unwrap_or_default();
    ensure!(
        lwt.hits >= (sweep_nprocs.len() as u64 - 1) * lwt.misses,
        "the sweep built a Last Write Tree twice ({} lwt hits vs {} misses over {} counts)",
        lwt.hits,
        lwt.misses,
        sweep_nprocs.len()
    );
    let sweep_json = format!(
        concat!(
            "{{\"workload\": \"lu\", \"params\": [{}], \"nprocs\": [{}], ",
            "\"stage_hits\": {}, \"stage_misses\": {}, \"messages\": [{}], ",
            "\"work_units\": {}, \"identical\": {}, \"per_stage\": {}}}"
        ),
        sweep_params.map(|p| p.to_string()).join(", "),
        sweep_nprocs.map(|p| p.to_string()).join(", "),
        sweep_hits,
        sweep_misses,
        sweep_messages.join(", "),
        sweep_work,
        sweep_identical,
        per_stage_json(session.stats()),
    );

    // Persistent store: the four workloads served through a session
    // writing through to a fresh on-disk store, then a second session
    // with COLD memory warm-starting from that store. Every gated field
    // is deterministic: the payload encodings are canonical (so entry
    // and byte counts replay exactly), lookups resolve in textual order
    // (so hit splits replay exactly), and the warm schedules
    // must be byte-identical to the cold ones — the store can change
    // speed, never output.
    let _ = std::fs::remove_dir_all(cache_dir);
    let mut cold = Session::new();
    cold.attach_store(Box::new(
        DiskStore::open(cache_dir, None).expect("open store"),
    ));
    let mut cold_schedules: Vec<String> = Vec::new();
    for w in &workloads() {
        let out = cold
            .serve(
                w.name,
                (w.input)(w.nproc),
                Options::full(),
                &w.params,
                LIMIT,
            )
            .expect("cold serves");
        cold_schedules.push(format!("{:?}", out.schedule));
    }
    let cold_stats = cold.stats().clone();
    let cold_store = cold.store_stats().expect("cold store attached");
    let mut warm = Session::new();
    warm.attach_store(Box::new(
        DiskStore::open(cache_dir, None).expect("reopen store"),
    ));
    let mut warm_schedules: Vec<String> = Vec::new();
    for w in &workloads() {
        let out = warm
            .serve(
                w.name,
                (w.input)(w.nproc),
                Options::full(),
                &w.params,
                LIMIT,
            )
            .expect("warm serves");
        warm_schedules.push(format!("{:?}", out.schedule));
    }
    let warm_stats = warm.stats().clone();
    let warm_store = warm.store_stats().expect("warm store attached");
    let store_identical = warm_schedules == cold_schedules;
    all_identical &= store_identical;
    let _ = writeln!(
        log,
        "store: cold {} entr(ies) / {} byte(s); warm {} disk hit(s), {} miss(es), \
         byte-identical schedules: {store_identical}",
        cold_store.entries, cold_store.bytes, warm_stats.stage_disk_hits, warm_stats.stage_misses
    );
    ensure!(
        2 * warm_stats.stage_disk_hits >= warm_stats.stage_hits + warm_stats.stage_misses,
        "warm start must serve at least half of its stage lookups from disk \
         ({} of {})",
        warm_stats.stage_disk_hits,
        warm_stats.stage_hits + warm_stats.stage_misses
    );
    ensure!(
        warm_store.corrupt == 0,
        "a clean cold/warm pass loaded corrupt store entries"
    );
    let store_json = format!(
        concat!(
            "{{\"cold\": {{\"stage_hits\": {}, \"stage_misses\": {}, ",
            "\"entries\": {}, \"bytes\": {}, \"bytes_written\": {}}},\n",
            "   \"warm\": {{\"stage_hits\": {}, \"stage_disk_hits\": {}, ",
            "\"stage_misses\": {}, \"bytes_read\": {}, \"per_stage\": {}}},\n",
            "   \"evictions\": {}, \"corrupt\": {}, \"identical\": {}}}"
        ),
        cold_stats.stage_hits,
        cold_stats.stage_misses,
        cold_store.entries,
        cold_store.bytes,
        cold_store.bytes_written,
        warm_stats.stage_hits,
        warm_stats.stage_disk_hits,
        warm_stats.stage_misses,
        warm_store.bytes_read,
        per_stage_disk_json(&warm_stats),
        warm_store.evictions,
        warm_store.corrupt,
        store_identical,
    );

    ensure!(all_identical, "cache warmth or a store changed an output");
    Ok(format!(
        concat!(
            "{{\n",
            "  \"bench\": \"pipeline\",\n",
            "  \"harness\": \"perfstats\",\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "  \"sweep\": {},\n",
            "  \"store\": {},\n",
            "  \"polyops\": {},\n",
            "  \"all_identical\": {}\n",
            "}}\n"
        ),
        body,
        sweep_json,
        store_json,
        polyops_json(),
        all_identical,
    ))
}

/// The battery: builds a fresh document (store section in `cache_dir`)
/// and compares it with `golden`, the parsed document at `path`. `Err`
/// lists every finding as `path: old -> new`.
pub fn check(
    path: &str,
    golden: &Json,
    cache_dir: &Path,
    log: &mut String,
) -> Result<String, String> {
    let fresh =
        json::parse(&document(cache_dir, log)?).map_err(|e| format!("fresh snapshot: {e}"))?;
    let findings = json::diff(golden, &fresh);
    ensure!(
        findings.is_empty(),
        "{} field(s) moved against {path}:\n  {}",
        findings.len(),
        findings.join("\n  ")
    );
    Ok(format!("{path} reproduced exactly"))
}
