//! Tracing guarantees, end to end on real workloads:
//!
//! * **parity** — capturing a trace changes nothing the compiler produces:
//!   schedules, message statistics, and simulation results are identical
//!   with tracing on and off;
//! * **determinism** — the deterministic view of a capture is identical
//!   for every worker count (per-read records live in textually-keyed
//!   lanes, host-dependent records are excluded);
//! * **well-formedness** — the Chrome export of a real capture passes the
//!   validator (balanced name-matched begin/end pairs, monotonic
//!   timestamps per lane);
//! * **legality attempts** — how many `schedule.attempt`s each registry
//!   workload takes is pinned, and a retry names the ranks that deadlocked;
//! * **multicast verdicts** — how many final sets each registry workload
//!   multicasts is pinned, and every verdict equals the set-difference
//!   formula the subset test replaced.
//!
//! The capture (like the engine knobs) is process-wide, so every test in
//! this file serializes on one mutex.

use std::sync::Mutex;

use dmc_bench::{figure2_input, lu_input, stencil_input, workloads, xy_input};
use dmc_commgen::{is_multicast, CommSet};
use dmc_core::{build_schedule, compile, message_stats, run, CompileInput, Options};
use dmc_machine::MachineConfig;
use dmc_obs as obs;
use dmc_polyhedra::Feasibility;

const LIMIT: usize = 50_000_000;

static SERIAL: Mutex<()> = Mutex::new(());

/// Everything the pipeline produces: `(schedule, message stats, sim stats)`.
type PipelineOut = (
    dmc_machine::Schedule,
    (u64, u64, u64),
    dmc_machine::SimStats,
);

fn outputs(input: &CompileInput, params: &[i128], options: Options) -> PipelineOut {
    let compiled = compile(input.clone(), options).expect("compiles");
    let schedule = build_schedule(&compiled, params, false, LIMIT).expect("schedules");
    let stats = message_stats(&compiled, params, LIMIT).expect("stats");
    let sim = run(&compiled, params, &MachineConfig::ipsc860(), false, LIMIT)
        .expect("simulates")
        .stats;
    (schedule, stats, sim)
}

/// Runs the full pipeline under an active capture and returns the outputs
/// plus the merged trace.
fn traced_outputs(
    input: &CompileInput,
    params: &[i128],
    options: Options,
) -> (PipelineOut, obs::Trace) {
    obs::start_capture();
    let out = outputs(input, params, options);
    (out, obs::finish_capture())
}

/// Tracing is observation only: the compiled outputs with a capture active
/// are identical to the outputs without one.
#[test]
fn tracing_does_not_change_outputs() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (name, input, params) in [
        ("stencil", stencil_input(16, 4), vec![3i128, 63]),
        ("figure2", figure2_input(4), vec![3, 63]),
        ("xy", xy_input(4), vec![15]),
    ] {
        let off = outputs(&input, &params, Options::full());
        let (on, trace) = traced_outputs(&input, &params, Options::full());
        assert!(!obs::enabled(), "finish_capture must disable the recorder");
        assert_eq!(off.0, on.0, "{name}: schedule differs with tracing on");
        assert_eq!(off.1, on.1, "{name}: message stats differ with tracing on");
        assert_eq!(off.2, on.2, "{name}: simulation differs with tracing on");
        assert!(
            !trace.is_empty(),
            "{name}: the capture must have recorded the pipeline"
        );
    }
}

/// A real stencil capture exports to a valid Chrome trace that contains
/// the pipeline spans and one provenance event per scheduled message.
#[test]
fn stencil_chrome_trace_is_well_formed() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let input = stencil_input(16, 4);
    let ((schedule, _, _), trace) = traced_outputs(&input, &[3, 63], Options::full());

    let doc = obs::chrome_trace(&trace);
    let check = obs::validate_chrome(&doc).expect("valid Chrome trace");
    assert!(
        check.lanes >= 2,
        "main lane plus at least one read lane: {check:?}"
    );
    assert!(check.spans > 0 && check.events > 0, "{check:?}");

    // Every message of the final schedule is attributed by provenance:
    // the last schedule's last attempt carries exactly one prov.message
    // per MessageSpec (checked indirectly through the explain report,
    // which implements that selection).
    let report = obs::explain_report(&trace, "stencil");
    let attributed = report.lines().filter(|l| l.starts_with("- m")).count();
    assert_eq!(
        attributed,
        schedule.messages.len(),
        "explain report must attribute every surviving message:\n{report}"
    );
    // And each surviving line names the §6 passes the set survived.
    assert!(
        report.contains("survived"),
        "provenance steps missing:\n{report}"
    );
}

/// The machine run materializes one sim lane per simulated processor —
/// including idle ones — and they export as Chrome complete events on the
/// simulated-machine process, leaving the trace well-formed.
#[test]
fn sim_lanes_cover_every_processor() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let input = stencil_input(16, 4);
    let nproc = input.grid.len() as usize;
    let (_, trace) = traced_outputs(&input, &[3, 63], Options::full());

    let sim_lanes: Vec<_> = trace
        .lanes
        .iter()
        .filter(|l| l.key.first() == Some(&2))
        .collect();
    assert_eq!(
        sim_lanes.len(),
        nproc + 1,
        "one sim lane per simulated processor plus the critical-path lane"
    );
    for lane in &sim_lanes {
        if lane.key.as_slice() == [2, nproc as u64] {
            assert!(
                lane.records.iter().any(|r| r.name.starts_with("crit.")),
                "the critical-path lane carries crit.* records"
            );
            continue;
        }
        assert!(
            lane.records.iter().any(|r| r.name == "sim.proc"),
            "{}: every processor reports its breakdown",
            lane.label
        );
    }
    // The legality dry-runs inside build_schedule are suppressed: only the
    // machine run's send events appear, so each sim.send corresponds to a
    // scheduled message of the final run.
    let sends: usize = sim_lanes
        .iter()
        .map(|l| l.records.iter().filter(|r| r.name == "sim.send").count())
        .sum();
    let (schedule, _, _) = outputs(&input, &[3, 63], Options::full());
    assert_eq!(
        sends,
        schedule.messages.len(),
        "one sim.send per scheduled message"
    );

    let doc = obs::chrome_trace(&trace);
    let check = obs::validate_chrome(&doc).expect("valid Chrome trace with sim lanes");
    assert!(
        check.lanes >= 2 + nproc,
        "compiler lanes plus {nproc} sim lanes: {check:?}"
    );

    // The explain report joins the telemetry into a machine view.
    let report = obs::explain_report(&trace, "stencil");
    assert!(report.contains("## Machine view"), "{report}");
    let proc_rows = report
        .lines()
        .filter(|l| l.starts_with("- p") && l.contains(": compute "))
        .count();
    assert_eq!(
        proc_rows, nproc,
        "one machine-view row per processor:\n{report}"
    );
    assert!(report.contains("Top links by traffic:"), "{report}");
}

/// The records of one timing-mode `build_schedule` of `input`, captured
/// without the compile, the message statistics or the machine run.
fn schedule_records(input: CompileInput, params: &[i128], options: Options) -> Vec<obs::Record> {
    let compiled = compile(input, options).expect("compiles");
    obs::start_capture();
    build_schedule(&compiled, params, false, LIMIT).expect("schedules");
    let trace = obs::finish_capture();
    trace.lanes.into_iter().flat_map(|l| l.records).collect()
}

/// A legality retry carries the ranks the dry run found blocked: LU at
/// (N = 12, P = 4) deadlocks once at the paper's aggregation level.
#[test]
fn lu_retry_names_the_blocked_ranks() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let records = schedule_records(lu_input(4), &[12], Options::full());
    let retries: Vec<&obs::Record> = records
        .iter()
        .filter(|r| r.name == "schedule.retry")
        .collect();
    assert_eq!(retries.len(), 1, "{retries:?}");
    let blocked = retries[0].get("blocked").map(obs::Value::render);
    assert!(
        blocked.is_some_and(|b| !b.is_empty()),
        "the retry must list the blocked ranks: {retries:?}"
    );
}

/// The legality loop's attempt count per registry workload, in timing
/// mode: a change to where the planner aggregates shows here first.
#[test]
fn legality_attempts_per_workload_are_pinned() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let attempts = |input: CompileInput, params: &[i128], options: Options| {
        schedule_records(input, params, options)
            .iter()
            .filter(|r| r.phase == obs::Phase::Begin && r.name == "schedule.attempt")
            .count()
    };
    let got: Vec<(&str, usize, usize)> = workloads()
        .iter()
        .map(|w| {
            let full = attempts((w.input)(w.nproc), &w.params, Options::full());
            let naive = attempts((w.input)(w.nproc), &w.params, Options::naive());
            (w.name, full, naive)
        })
        .collect();
    assert_eq!(
        got,
        [
            ("lu", 2, 1),
            ("stencil", 2, 1),
            ("figure2", 1, 1),
            ("xy", 1, 1)
        ]
    );
}

/// §6.2.1 as `is_multicast` asked it before the subset test: a redundancy
/// pass on `A`, then every piece of `B \ A`, each checked for a point.
fn multicast_by_difference(cs: &CommSet) -> bool {
    let mut drop = cs.dims.r_iter.clone();
    drop.extend(&cs.dims.aux);
    let a = cs
        .poly
        .eliminate_dims(&drop)
        .unwrap()
        .remove_redundant()
        .unwrap();
    let payload: Vec<usize> = cs
        .dims
        .arr
        .iter()
        .chain(cs.dims.s_iter.iter().skip(cs.prefix_len))
        .copied()
        .collect();
    let b = a
        .eliminate_dims(&payload)
        .unwrap()
        .intersect(&a.eliminate_dims(&cs.dims.pr).unwrap());
    b.subtract(&a)
        .unwrap()
        .iter()
        .all(|piece| piece.integer_feasibility().unwrap() == Feasibility::Infeasible)
}

/// The multicast verdicts per registry workload under `Options::full()`:
/// `(name, final sets, sets that multicast)`, and each verdict equal to
/// the set-difference formula's on the same set.
#[test]
fn multicast_verdicts_per_workload_are_pinned() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let got: Vec<(&str, usize, usize)> = workloads()
        .iter()
        .map(|w| {
            let compiled = compile((w.input)(w.nproc), Options::full()).expect("compiles");
            let mut multicast = 0;
            for cs in &compiled.comm {
                let verdict = is_multicast(cs).expect("multicast test");
                assert_eq!(
                    verdict,
                    multicast_by_difference(cs),
                    "{}: {:?}",
                    w.name,
                    cs.poly
                );
                multicast += usize::from(verdict);
            }
            (w.name, compiled.comm.len(), multicast)
        })
        .collect();
    assert_eq!(
        got,
        [
            ("lu", 4, 4),
            ("stencil", 2, 2),
            ("figure2", 1, 1),
            ("xy", 2, 2)
        ]
    );
}
