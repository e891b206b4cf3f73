//! The batteries `dmc check` runs in release at full size, run here at
//! test sizes ([`dmc_bench::test_workloads`]), and the session sweep the
//! snapshot's `sweep` section gates at full size:
//!
//! * **explain** — one capture per workload: a well-formed Chrome trace
//!   whose provenance names every scheduled message with the schedule's
//!   sender, receivers and words, the ledger's charged work ≡ the
//!   `work_units` delta, per-context work tiling the charged total,
//!   ≥ 90 % attribution, a byte-identical recapture, recording that never
//!   changes a schedule or a message count, and the critical-path
//!   invariants;
//! * **session** — a four-count sweep through one plain `Session`,
//!   identical to the one-shot pipeline, reusing every Last Write Tree.
//!
//! A capture is the calling thread's, so the tests here run concurrently
//! and serialize on nothing.

use dmc_bench::{explain, test_workloads};
use dmc_core::{compile, Compiled, Options, Session};
use dmc_polyhedra::ledger;

/// The processor counts of the session sweep.
const NPROCS: [i128; 4] = [2, 4, 8, 16];

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
    // A second plan in the capture: counting or simulating re-planned.
    let main = (cap.trace.lanes.iter())
        .position(|l| l.key == dmc_obs::main_lane())
        .expect("a main lane");
    let records = &mut cap.trace.lanes[main].records;
    let plan = records
        .iter()
        .position(|r| r.name == "schedule")
        .expect("a plan");
    records.insert(plan, records[plan].clone());
    let err = explain::check(w, &cap).expect_err("a capture that planned twice");
    assert!(err.contains("2 schedule span(s)"), "{err}");
    cap.trace.lanes[main].records.remove(plan);
    cap.provenance.messages[0].words += 1;
    let err = explain::check(w, &cap).expect_err("a message attributed with one word too many");
    assert!(err.contains("is not scheduled message m0"), "{err}");
    cap.provenance.messages[0].words -= 1;
    cap.report = cap.report.replace("## Hotspots", "## Elsewhere");
    let err = explain::check(w, &cap).expect_err("a report without Hotspots");
    assert!(err.contains("Hotspots"), "{err}");
}

/// A processor-count sweep through one plain [`Session`]: every compile
/// equals the one-shot pipeline's, the grid enters no `lwt` key so no
/// Last Write Tree is built twice, and compiling the last input again
/// re-runs nothing.
#[test]
fn session_sweep_reuses_trees_and_matches_one_shot() {
    let outputs = |c: &Compiled| format!("{:?} {:?}", c.lwts, c.comm);
    for w in test_workloads() {
        let name = w.name;
        let mut session = Session::new();
        for nproc in NPROCS {
            let swept = session
                .compile((w.input)(nproc), Options::full())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let one_shot = compile((w.input)(nproc), Options::full()).expect("compiles");
            assert_eq!(outputs(&swept), outputs(&one_shot), "{name} at {nproc}");
        }
        let lwt = session.stats().per_stage["lwt"];
        assert!(
            lwt.hits >= 3 * lwt.misses,
            "{name}: a Last Write Tree was built twice: {lwt:?}"
        );
        let misses = session.stats().stage_misses;
        let last = NPROCS[NPROCS.len() - 1];
        session
            .compile((w.input)(last), Options::full())
            .expect("recompiles");
        assert_eq!(
            session.stats().stage_misses,
            misses,
            "{name}: recompiling an identical input re-ran a stage"
        );
    }
}
