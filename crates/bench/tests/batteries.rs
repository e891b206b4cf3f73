//! The batteries `dmc check` runs in release at full size, run here at
//! test sizes ([`dmc_bench::test_workloads`]):
//!
//! * **explain** — one capture per workload: a well-formed Chrome trace
//!   whose provenance names every scheduled message with the schedule's
//!   sender, receivers and words, the ledger's charged work ≡ the
//!   `work_units` delta, per-context work tiling the charged total,
//!   ≥ 90 % attribution, a byte-identical recapture, recording that never
//!   changes a schedule or a message count, and the critical-path
//!   invariants;
//! * **session** — a four-count sweep identical to the one-shot
//!   pipeline, reusing every Last Write Tree;
//! * the `dmc explain --json` document round-trips through the obs parser.
//!
//! A capture is the calling thread's, so the tests here run concurrently
//! and serialize on nothing.

use dmc_bench::{explain, session, test_workloads};
use dmc_obs::json::Json;
use dmc_polyhedra::ledger;

#[test]
fn explain_battery_passes_at_test_sizes() {
    for w in test_workloads() {
        let cap = explain::capture(&w).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            !ledger::enabled() && !dmc_obs::enabled(),
            "{}: a capture must switch the ledger and the recorder off",
            w.name
        );
        assert!(cap.ledger.charged_work() > 0, "{}: no work", w.name);
        explain::check(&w, &cap).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// A battery that cannot fail checks nothing: tampering with one view of
/// a capture fails it, naming the invariant.
#[test]
fn explain_battery_names_the_invariant_it_fails() {
    let w = &test_workloads()[1];
    let mut cap = explain::capture(w).unwrap_or_else(|e| panic!("{e}"));
    cap.delta.work_units += 1;
    let err = explain::check(w, &cap).expect_err("a work_units delta one off");
    assert!(err.contains("the work_units delta"), "{err}");
    cap.delta.work_units -= 1;
    cap.provenance.messages[0].words += 1;
    let err = explain::check(w, &cap).expect_err("a message attributed with one word too many");
    assert!(err.contains("is not scheduled message m0"), "{err}");
    cap.provenance.messages[0].words -= 1;
    cap.report = cap.report.replace("## Hotspots", "## Elsewhere");
    let err = explain::check(w, &cap).expect_err("a report without Hotspots");
    assert!(err.contains("Hotspots"), "{err}");
}

#[test]
fn session_battery_passes_at_test_sizes() {
    for w in test_workloads() {
        let mut sweep = session::sweep(&w, None).unwrap_or_else(|e| panic!("{e}"));
        session::check(&w, &mut sweep).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// The `--json` document round-trips through the repo's own JSON parser
/// and reproduces the profile exactly: per-workload totals, context
/// counts and the descending context order.
#[test]
fn profile_json_round_trips_through_the_obs_parser() {
    let rows: Vec<_> = test_workloads()
        .iter()
        .map(|w| {
            let cap = explain::capture(w).unwrap_or_else(|e| panic!("{e}"));
            (w.name, cap.profile)
        })
        .collect();

    let doc = explain::profile_json(&rows);
    let parsed = dmc_obs::json::parse(&doc).expect("document parses");
    let wls = parsed
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads array");
    assert_eq!(wls.len(), rows.len());
    for (w, (name, profile)) in wls.iter().zip(&rows) {
        let units = profile.total_work();
        let contexts = profile.context_totals();
        assert_eq!(w.get("name").and_then(Json::as_str), Some(*name));
        assert_eq!(
            w.get("work_units").and_then(Json::as_num),
            Some(units as f64),
            "{name}: work_units survives the round trip"
        );
        let Some(Json::Obj(ctx)) = w.get("contexts") else {
            panic!("{name}: contexts must parse as an object");
        };
        assert_eq!(ctx.len(), contexts.len(), "{name}: all contexts present");
        for ((got_k, got_v), (want_k, want_v)) in ctx.iter().zip(&contexts) {
            assert_eq!(got_k, want_k, "{name}: context order preserved");
            assert_eq!(got_v.as_num(), Some(*want_v as f64), "{name}: {want_k}");
        }
        assert!(units > 0, "{name}: the pipeline must do some work");
    }
}
