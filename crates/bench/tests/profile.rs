//! Work-ledger guarantees, end to end on all four paper workloads:
//!
//! * **agreement** — the ledger's per-record totals reconcile exactly with
//!   the `PolyStats` counter deltas taken over the same region, for every
//!   operation kind and every cache counter;
//! * **determinism** — the collapsed-stack profile is byte-identical
//!   between captures (charged work units replay the memoized cost on
//!   cache hits, so cache state never shows);
//! * **transparency** — enabling the ledger changes nothing the compiler
//!   produces: schedules and message statistics are identical with the
//!   ledger on and off.
//!
//! The ledger (like the capture and the engine knobs) is process-wide, so
//! every test in this file serializes on one mutex.

use std::sync::Mutex;

use dmc_bench::{figure2_input, lu_input, stencil_input, xy_input};
use dmc_core::{build_schedule, compile, message_stats, CompileInput, Options};
use dmc_obs as obs;
use dmc_polyhedra::ledger::{self, CacheOutcome, Ledger};
use dmc_polyhedra::stats;

const LIMIT: usize = 50_000_000;

static SERIAL: Mutex<()> = Mutex::new(());

/// Test-sized variants of the four perfstats workloads (the full sizes
/// belong to the release-mode `dmc-profile --check`).
fn workloads() -> Vec<(&'static str, CompileInput, Vec<i128>)> {
    vec![
        ("lu", lu_input(4), vec![16]),
        ("stencil", stencil_input(16, 4), vec![3, 63]),
        ("figure2", figure2_input(4), vec![3, 63]),
        ("xy", xy_input(4), vec![15]),
    ]
}

/// Compile + schedule with the ledger on; returns the ledger and the
/// `PolyStats` delta over exactly the same region.
fn ledgered(
    input: &CompileInput,
    params: &[i128],
    options: Options,
) -> (Ledger, dmc_polyhedra::PolyStats, dmc_machine::Schedule) {
    ledger::start();
    let before = stats::snapshot();
    let compiled = compile(input.clone(), options).expect("compiles");
    let schedule = build_schedule(&compiled, params, false, LIMIT).expect("schedules");
    let delta = stats::snapshot().since(&before);
    (ledger::finish(), delta, schedule)
}

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

/// Every ledger total reconciles exactly with the engine's own counters:
/// a mismatch means a record site is missing or double-counting.
#[test]
fn ledger_totals_match_polystats_on_all_workloads() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (name, input, params) in workloads() {
        let (ledger, delta, _) = ledgered(&input, &params, Options::full());
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
                "{name}: ledger {field} = {ledger_v}, PolyStats delta = {stats_v}"
            );
        }
        assert!(
            ledger.charged_work() > 0,
            "{name}: the pipeline must do some work"
        );
    }
}

/// Repeating a capture in the same process (warm global state, different
/// cache history) still collapses to the same bytes.
#[test]
fn collapsed_profile_is_cache_state_independent() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let input = stencil_input(16, 4);
    let (a, _, _) = ledgered(&input, &[3, 63], Options::full());
    let (b, _, _) = ledgered(&input, &[3, 63], Options::full());
    assert_eq!(
        profile_of("stencil", &a).collapsed_stack(),
        profile_of("stencil", &b).collapsed_stack(),
        "repeat capture must charge identical work despite warm caches"
    );
}

/// The ledger observes, never steers: compiled outputs with the ledger on
/// equal the outputs with it off.
#[test]
fn ledger_does_not_change_outputs() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (name, input, params) in workloads() {
        let off_compiled = compile(input.clone(), Options::full()).expect("compiles");
        let off_schedule = build_schedule(&off_compiled, &params, false, LIMIT).expect("schedules");
        let off_stats = message_stats(&off_compiled, &params, LIMIT).expect("stats");

        let (ledger, _, on_schedule) = ledgered(&input, &params, Options::full());
        assert!(!ledger::enabled(), "finish must disable the ledger");
        let on_compiled = compile(input.clone(), Options::full()).expect("compiles");
        let on_stats = message_stats(&on_compiled, &params, LIMIT).expect("stats");

        assert_eq!(
            off_schedule, on_schedule,
            "{name}: schedule differs with ledger on"
        );
        assert_eq!(
            off_stats, on_stats,
            "{name}: message stats differ with ledger on"
        );
        assert!(
            !ledger.segments.is_empty(),
            "{name}: the capture must have recorded work"
        );
    }
}

/// Attribution coverage on a real workload: the pipeline's context pushes
/// cover at least 90% of the charged work (the acceptance threshold the
/// release-mode `dmc-profile --check` also enforces).
#[test]
fn attribution_covers_ninety_percent_of_work() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (name, input, params) in workloads() {
        let (ledger, _, _) = ledgered(&input, &params, Options::full());
        let p = profile_of(name, &ledger);
        let frac = p.attributed_fraction();
        assert!(
            frac >= 0.90,
            "{name}: only {:.1}% of work units attributed (need >= 90%)",
            frac * 100.0
        );
    }
}

/// The `--json` document round-trips through the repo's own JSON parser
/// and reproduces the profile exactly: per-workload totals, context
/// counts and the descending context order.
#[test]
fn profile_json_round_trips_through_the_obs_parser() {
    use dmc_obs::json::Json;

    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rows: Vec<dmc_bench::ProfileRow> = Vec::new();
    let mut expected: Vec<dmc_bench::ProfileRow> = Vec::new();
    for (name, input, params) in workloads() {
        let (ledger, _, _) = ledgered(&input, &params, Options::full());
        let p = profile_of(name, &ledger);
        rows.push((name.to_owned(), p.total_work(), p.context_totals()));
        expected.push((name.to_owned(), p.total_work(), p.context_totals()));
    }

    let doc = dmc_bench::profile_json(&rows);
    let parsed = dmc_obs::json::parse(&doc).expect("document parses");
    let wls = parsed
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads array");
    assert_eq!(wls.len(), expected.len());
    for (w, (name, units, contexts)) in wls.iter().zip(&expected) {
        assert_eq!(w.get("name").and_then(Json::as_str), Some(name.as_str()));
        assert_eq!(
            w.get("work_units").and_then(Json::as_num),
            Some(*units as f64),
            "{name}: work_units survives the round trip"
        );
        let Some(Json::Obj(ctx)) = w.get("contexts") else {
            panic!("{name}: contexts must parse as an object");
        };
        assert_eq!(ctx.len(), contexts.len(), "{name}: all contexts present");
        for ((got_k, got_v), (want_k, want_v)) in ctx.iter().zip(contexts) {
            assert_eq!(got_k, want_k, "{name}: context order preserved");
            assert_eq!(got_v.as_num(), Some(*want_v as f64), "{name}: {want_k}");
        }
        assert!(*units > 0, "{name}: the pipeline must do some work");
    }
}
