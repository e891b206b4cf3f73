//! Work-ledger profiler: compiles the perfstats workloads with the
//! polyhedral ledger recording and writes, per workload, a work-unit-
//! weighted collapsed-stack file (render with `flamegraph.pl` / inferno /
//! speedscope) and an explain report extended with a "Hotspots" section
//! (top contexts by work, FM growth ratios, cache effectiveness).
//!
//! ```sh
//! cargo run --release -p dmc-bench --bin dmc-profile
//! cargo run --release -p dmc-bench --bin dmc-profile -- --workload stencil \
//!     --out-dir target/profile --check
//! cargo run --release -p dmc-bench --bin dmc-profile -- --json > profile.json
//! ```
//!
//! `--json` replaces the per-workload stdout summary with one
//! machine-readable document (name, exact work-unit total and per-context
//! charged work per workload) that `dmc_obs::json::parse` reads back.
//!
//! `--check` self-validates the ledger on each workload:
//!
//! * **totals** — record counts and summed per-record fields must equal
//!   the `PolyStats` counter deltas taken over the same capture, for every
//!   operation kind and cache counter;
//! * **tiling** — the per-context charged work sums exactly to the
//!   ledger's charged total (the snapshot's `work_contexts` tile its
//!   `work_units`);
//! * **attribution** — at least 90% of top-level charged work units carry
//!   a (statement, read, pass) or schedule context;
//! * **determinism** — a second capture must produce a byte-identical
//!   collapsed-stack file;
//! * **transparency** — the compiled schedule with the ledger on equals
//!   the one compiled with it off (recording must not steer the engine).

use std::path::PathBuf;

use dmc_bench::{usage_error, workloads, Workload};
use dmc_core::{build_schedule, compile, run, Options};
use dmc_machine::MachineConfig;
use dmc_obs as obs;
use dmc_obs::json::{self, Json};
use dmc_polyhedra::ledger::{self, CacheOutcome, Ledger};
use dmc_polyhedra::{stats, PolyStats};

const LIMIT: usize = 50_000_000;
const USAGE: &str = "usage: dmc-profile [--workload NAME|all] [--out-dir PATH] [--check] \
                     [--top N] [--diff SNAPSHOT] [--json]";

struct Captured {
    trace: obs::Trace,
    ledger: Ledger,
    /// `PolyStats` delta over exactly the ledgered region.
    delta: PolyStats,
    schedule: dmc_machine::Schedule,
}

/// Runs one workload's pipeline (compile → schedule → machine run) with
/// both the tracer and the work ledger on.
fn capture(w: &Workload) -> Captured {
    ledger::start();
    let before = stats::snapshot();
    obs::start_capture();
    let compiled = compile((w.input)(w.nproc), Options::full()).expect("compiles");
    let schedule = build_schedule(&compiled, &w.params, false, LIMIT).expect("schedules");
    let delta = stats::snapshot().since(&before);
    let ledger = ledger::finish();
    // The machine run is outside the ledgered region (it does no
    // polyhedral work) but inside the trace, so the report keeps its
    // machine view.
    let _ = run(
        &compiled,
        &w.params,
        &MachineConfig::ipsc860(),
        false,
        LIMIT,
    )
    .expect("simulates");
    Captured {
        trace: obs::finish_capture(),
        ledger,
        delta,
        schedule,
    }
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

/// Asserts every ledger total equals the matching `PolyStats` delta.
/// These are the *actual* (not charged) values of the same run, so they
/// must agree exactly — any slack means a record site is missing or
/// double-counting.
fn check_totals(name: &str, ledger: &Ledger, delta: &PolyStats) {
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
        assert_eq!(
            ledger_v, stats_v,
            "{name}: ledger {field} = {ledger_v}, PolyStats delta = {stats_v} \
             (every engine operation must be recorded exactly once)"
        );
    }
}

/// Prints the top-`n` contexts by charged work units, with each context's
/// share of the workload total.
fn print_top(name: &str, profile: &obs::WorkProfile, n: usize) {
    let totals = profile.context_totals();
    let total = profile.total_work();
    println!(
        "{name}: top {} contexts of {} ({} work units total)",
        n.min(totals.len()),
        totals.len(),
        total
    );
    println!("{:>10} {:>7}  context", "units", "share");
    for (ctx, units) in totals.iter().take(n) {
        let pct = if total == 0 {
            0.0
        } else {
            *units as f64 / total as f64 * 100.0
        };
        println!("{units:>10} {pct:>6.1}%  {ctx}");
    }
}

/// Per-context work_units deltas of the current profile against the
/// workload's `work_contexts` section in a `BENCH_pipeline.json` snapshot
/// (and the total against its exact-gated `work_units` field).
fn print_diff(name: &str, profile: &obs::WorkProfile, snapshot: &Json) {
    let entry = snapshot
        .get("workloads")
        .and_then(Json::as_arr)
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
                .cloned()
        });
    let Some(entry) = entry else {
        println!("{name}: not present in snapshot — nothing to diff");
        return;
    };
    let old_total = entry
        .get("work_units")
        .and_then(Json::as_num)
        .unwrap_or(0.0) as i128;
    let new_total = i128::from(profile.total_work());
    println!(
        "{name}: work_units {old_total} -> {new_total} ({:+})",
        new_total - old_total
    );
    let Some(Json::Obj(old_ctx)) = entry.get("work_contexts") else {
        println!("  (snapshot has no work_contexts section; totals only)");
        return;
    };
    // Union of old and new context paths, new totals first.
    let new_ctx = profile.context_totals();
    let mut rows: Vec<(String, i128, i128)> = Vec::new();
    for (ctx, units) in &new_ctx {
        let old = old_ctx
            .iter()
            .find(|(k, _)| k == ctx)
            .and_then(|(_, v)| v.as_num())
            .unwrap_or(0.0) as i128;
        rows.push((ctx.clone(), old, i128::from(*units)));
    }
    for (k, v) in old_ctx {
        if !new_ctx.iter().any(|(c, _)| c == k) {
            rows.push((k.clone(), v.as_num().unwrap_or(0.0) as i128, 0));
        }
    }
    rows.sort_by(|a, b| {
        let (da, db) = ((a.2 - a.1).abs(), (b.2 - b.1).abs());
        db.cmp(&da).then(a.0.cmp(&b.0))
    });
    println!("{:>10} {:>10} {:>8}  context", "old", "new", "delta");
    for (ctx, old, new) in rows {
        if old == new {
            continue;
        }
        println!("{old:>10} {new:>10} {:>+8}  {ctx}", new - old);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut which: Option<String> = None;
    let mut out_dir = PathBuf::from("target/dmc-profile");
    let mut check = false;
    let mut top: Option<usize> = None;
    let mut diff: Option<String> = None;
    let mut json_out = false;
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage_error(USAGE));
        match a.as_str() {
            "--workload" => which = Some(value()),
            "--out-dir" => out_dir = PathBuf::from(value()),
            "--check" => check = true,
            "--json" => json_out = true,
            "--top" => top = Some(value().parse().unwrap_or_else(|_| usage_error(USAGE))),
            "--diff" => diff = Some(value()),
            _ => usage_error(USAGE),
        }
    }
    let diff_doc: Option<Json> = diff.map(|path| {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read snapshot {path}: {e}"));
        json::parse(&text).unwrap_or_else(|e| panic!("parse snapshot {path}: {e}"))
    });

    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let selected: Vec<Workload> = workloads()
        .into_iter()
        .filter(|w| which.as_deref().is_none_or(|n| n == "all" || n == w.name))
        .collect();
    assert!(
        !selected.is_empty(),
        "no such workload (lu, stencil, figure2, xy, all)"
    );

    let mut json_rows: Vec<dmc_bench::ProfileRow> = Vec::new();
    for w in &selected {
        let cap = capture(w);
        let profile = profile_of(w.name, &cap.ledger);
        if json_out {
            json_rows.push((
                w.name.to_owned(),
                profile.total_work(),
                profile.context_totals(),
            ));
        }

        let collapsed = profile.collapsed_stack();
        let collapsed_path = out_dir.join(format!("profile_{}.collapsed", w.name));
        std::fs::write(&collapsed_path, &collapsed).expect("write collapsed stack");

        let report = obs::explain_report_with_profile(&cap.trace, w.name, &profile);
        let report_path = out_dir.join(format!("profile_{}.md", w.name));
        std::fs::write(&report_path, &report).expect("write hotspots report");

        if let Some(n) = top {
            print_top(w.name, &profile, n);
            let d = &cap.delta;
            println!(
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
        }
        if let Some(doc) = &diff_doc {
            print_diff(w.name, &profile, doc);
        }
        if !json_out {
            // A ratio far above the nests' depth means some nest loops
            // over misses (a level the kernel could not make tight).
            let d = &cap.delta;
            println!(
                "{:<10} scan: {} points from {} range evaluations ({:.2} per point)",
                w.name,
                d.scan_points,
                d.scan_range_evals,
                d.scan_range_evals as f64 / d.scan_points.max(1) as f64
            );
        }

        if check {
            check_totals(w.name, &cap.ledger, &cap.delta);
            // The snapshot's `work_contexts` tile its `work_units`.
            let ctx_sum: u64 = profile.context_totals().iter().map(|(_, u)| u).sum();
            assert_eq!(
                ctx_sum,
                cap.ledger.charged_work(),
                "{}: per-context work sums to {ctx_sum}, the ledger charged {}",
                w.name,
                cap.ledger.charged_work()
            );
            let attributed = profile.attributed_fraction();
            assert!(
                attributed >= 0.90,
                "{}: only {:.1}% of work units attributed to contexts (need >= 90%)",
                w.name,
                attributed * 100.0
            );
            assert!(
                report.contains("## Hotspots"),
                "{}: report lacks Hotspots",
                w.name
            );

            // Determinism: a second capture collapses to the same bytes.
            let again = profile_of(w.name, &capture(w).ledger).collapsed_stack();
            assert_eq!(
                collapsed, again,
                "{}: collapsed stack differs between captures",
                w.name
            );

            // Transparency: the ledger must observe, never steer — the
            // schedule compiled with it off is the one compiled with it on.
            let compiled = compile((w.input)(w.nproc), Options::full()).expect("compiles");
            let plain = build_schedule(&compiled, &w.params, false, LIMIT).expect("schedules");
            assert_eq!(
                plain, cap.schedule,
                "{}: enabling the ledger changed the compiled schedule",
                w.name
            );

            println!(
                "{:<10} ok: {} work units, {} ops, {:.1}% attributed; \
                 totals == PolyStats; recapture collapsed identical; output unchanged",
                w.name,
                profile.total_work(),
                cap.ledger.records().count(),
                attributed * 100.0
            );
        } else if !json_out {
            println!(
                "{:<10} {} work units -> {} + {}",
                w.name,
                profile.total_work(),
                collapsed_path.display(),
                report_path.display()
            );
        }
    }
    // `--json`: the whole run as one machine-readable document on stdout
    // (pipeable; the per-workload artifact files are still written).
    if json_out {
        print!("{}", dmc_bench::profile_json(&json_rows));
    }
}
