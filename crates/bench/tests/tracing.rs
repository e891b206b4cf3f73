//! Tracing guarantees, end to end on real workloads:
//!
//! * **parity** — capturing a trace changes nothing the compiler produces:
//!   schedules, message statistics, and simulation results are identical
//!   with tracing on and off;
//! * **well-formedness** — the Chrome export of a real capture passes the
//!   validator (balanced name-matched begin/end pairs, monotonic
//!   timestamps per lane);
//! * **machine lanes** — the critical-path analysis draws each processor's
//!   actions in machine order, timed as its events; `simulate` draws none;
//! * **legality splits** — the split each registry set is planned at is
//!   pinned, and a `schedule.split` names the unsafe chunk that forced it;
//! * **multicast verdicts** — how many final sets each registry workload
//!   multicasts is pinned, and every verdict equals the set-difference
//!   formula the subset test replaced.
//!
//! A capture is the calling thread's, so the tests here run concurrently
//! and serialize on nothing.

use dmc_bench::{figure2_input, lu_input, stencil_input, workloads, xy_input};
use dmc_commgen::{is_multicast, CommSet};
use dmc_core::{build_schedule, compile, simulate, CompileInput, Options};
use dmc_machine::{critpath, Action, MachineConfig};
use dmc_obs as obs;
use dmc_polyhedra::Feasibility;

const LIMIT: usize = 50_000_000;

/// Everything the pipeline produces: `(schedule, message stats, sim stats)`.
type PipelineOut = (
    dmc_machine::Schedule,
    (u64, u64, u64),
    dmc_machine::SimStats,
);

fn outputs(input: &CompileInput, params: &[i128], options: Options) -> PipelineOut {
    let compiled = compile(input.clone(), options).expect("compiles");
    let schedule = build_schedule(&compiled, params, false, LIMIT).expect("schedules");
    let stats = schedule.message_stats();
    let sim = simulate(
        &compiled,
        params,
        &MachineConfig::ipsc860(),
        false,
        &schedule,
    )
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
    // the schedule's `prov.message` events name each `MessageSpec`,
    // by id in order, with its sender, receivers and words.
    let prov = obs::Provenance::parse(&trace);
    assert_eq!(prov.messages.len(), schedule.messages.len());
    for (id, (m, spec)) in prov.messages.iter().zip(&schedule.messages).enumerate() {
        assert_eq!(
            (m.msg, m.sender, &m.receivers, m.words),
            (id, spec.sender, &spec.receivers, spec.words),
            "provenance of m{id}"
        );
    }
    // And each surviving message names the §6 passes its set survived.
    assert!(
        prov.messages.iter().all(|m| m.chain().is_some()),
        "provenance steps missing: {prov:?}"
    );
}

/// The critical-path analysis draws one sim lane per simulated processor
/// — including idle ones — and its chain in one more; they export as
/// Chrome complete events on the simulated-machine process, leaving the
/// trace well-formed.
#[test]
fn sim_lanes_cover_every_processor() {
    let input = stencil_input(16, 4);
    let nproc = input.grid.len() as usize;
    obs::start_capture();
    let (schedule, _, _) = outputs(&input, &[3, 63], Options::full());
    critpath::analyze(&schedule, &MachineConfig::ipsc860()).expect("analyzes");
    let trace = obs::finish_capture();

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
                lane.records.iter().any(|r| r.name == "crit.span"),
                "the critical-path lane carries crit.span records"
            );
            continue;
        }
        assert!(
            lane.records.iter().any(|r| r.name == "sim.proc"),
            "{}: every processor reports its breakdown",
            lane.label
        );
    }

    let doc = obs::chrome_trace(&trace);
    let check = obs::validate_chrome(&doc).expect("valid Chrome trace with sim lanes");
    assert!(
        check.lanes >= 2 + nproc,
        "compiler lanes plus {nproc} sim lanes: {check:?}"
    );
}

/// A simulated time field of a sim-lane record, in seconds.
fn secs_field(r: &obs::Record, name: &str) -> f64 {
    match r.get(name) {
        Some(obs::Value::F64(t)) => *t,
        other => panic!("{}: {name} is {other:?}", r.name),
    }
}

/// On every registry workload, each processor's sim lane is its actions in
/// machine order, as the critical-path events time them: a `sim.compute`
/// per block naming its statement, a `sim.send` per send and a `sim.recv`
/// per receive naming the message, a `sim.recv.wait` exactly where the
/// receive waited (the waits adding up to the processor's receive-wait
/// blame), and one `sim.proc` at the processor's finish. A capture of
/// `simulate` alone, in either mode, holds no sim lane: the machine
/// records no timeline of its own.
#[test]
fn sim_lanes_are_each_processors_actions_in_machine_order() {
    let config = MachineConfig::ipsc860();
    let secs = |ns: u64| ns as f64 * 1e-9;
    for w in workloads() {
        let compiled = compile((w.input)(w.nproc), Options::full()).expect("compiles");
        let schedule = build_schedule(&compiled, &w.params, false, LIMIT).expect("schedules");
        obs::start_capture();
        let crit = critpath::analyze(&schedule, &config).expect("analyzes");
        let trace = obs::finish_capture();
        for (p, actions) in schedule.procs.iter().enumerate() {
            let name = format!("{} p{p}", w.name);
            let lane = (trace.lanes.iter())
                .find(|l| l.key == obs::sim_lane(p))
                .unwrap_or_else(|| panic!("{name}: no sim lane"));
            let events: Vec<&critpath::Event> = (crit.events.iter())
                .filter(|e| e.proc == p && e.kind != critpath::EventKind::Wire)
                .collect();
            assert_eq!(events.len(), actions.len(), "{name}: one event per action");
            let mut records = lane.records.iter();
            let mut next = |want: &str| {
                let r = records
                    .next()
                    .unwrap_or_else(|| panic!("{name}: no {want}"));
                assert_eq!(r.name, want, "{name}: {r:?}");
                assert_eq!(uint_field(r, "proc"), p, "{name}: {r:?}");
                r
            };
            let (mut free, mut waited) = (0, 0);
            for (action, e) in actions.iter().zip(events) {
                let r = match action {
                    Action::Block { stmt, .. } => {
                        let r = next("sim.compute");
                        assert_eq!(uint_field(r, "stmt"), *stmt, "{name}: {r:?}");
                        r
                    }
                    Action::Send { msg } => {
                        let r = next("sim.send");
                        assert_eq!(uint_field(r, "msg"), *msg, "{name}: {r:?}");
                        r
                    }
                    Action::Recv { msg } => {
                        if e.start_ns > free {
                            let r = next("sim.recv.wait");
                            assert_eq!(uint_field(r, "msg"), *msg, "{name}: {r:?}");
                            assert_eq!(
                                (secs_field(r, "t0"), secs_field(r, "t1")),
                                (secs(free), secs(e.start_ns)),
                                "{name}: {r:?}"
                            );
                            waited += e.start_ns - free;
                        }
                        let r = next("sim.recv");
                        assert_eq!(uint_field(r, "msg"), *msg, "{name}: {r:?}");
                        r
                    }
                };
                assert_eq!(
                    (secs_field(r, "t0"), secs_field(r, "t1")),
                    (secs(e.start_ns), secs(e.finish_ns)),
                    "{name}: {r:?}"
                );
                free = e.finish_ns;
            }
            let blame = &crit.per_proc[p];
            assert_eq!(waited, blame.recv_wait_ns, "{name}: waits");
            let r = next("sim.proc");
            let finish = crit.makespan_ns - blame.drain_ns;
            assert_eq!(secs_field(r, "t0"), secs(finish), "{name}: {r:?}");
            assert!(records.next().is_none(), "{name}: records past sim.proc");
        }

        for values in [false, true] {
            let schedule = build_schedule(&compiled, &w.params, values, LIMIT).expect("schedules");
            obs::start_capture();
            simulate(&compiled, &w.params, &config, values, &schedule).expect("simulates");
            let trace = obs::finish_capture();
            let sim_lanes = (trace.lanes.iter())
                .filter(|l| l.key.first() == Some(&2))
                .count();
            assert_eq!(
                sim_lanes, 0,
                "{}: simulate (values {values}) drew lanes",
                w.name
            );
        }
    }
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

/// A `schedule.split` field as an unsigned integer.
fn uint_field(r: &obs::Record, name: &str) -> usize {
    r.get(name)
        .map(obs::Value::render)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} in {r:?}"))
}

/// A `schedule.split` iteration field (`"[8, 15]"`) as its components.
fn iter_field(r: &obs::Record, name: &str) -> Vec<i128> {
    let text = r.get(name).map(obs::Value::render).unwrap_or_default();
    let inner = text.trim_start_matches('[').trim_end_matches(']');
    inner.split(", ").map(|x| x.parse().unwrap()).collect()
}

/// The legality split of every communication set of one timing-mode
/// `build_schedule`: the last split its `schedule.split` events name, or
/// the paper's level (0) without one.
fn set_splits(input: CompileInput, params: &[i128], options: Options) -> Vec<usize> {
    let sets = compile(input.clone(), options)
        .expect("compiles")
        .comm
        .len();
    let mut splits = vec![0; sets];
    for r in schedule_records(input, params, options) {
        if r.name == "schedule.split" {
            let set = uint_field(&r, "set");
            splits[set] = splits[set].max(uint_field(&r, "split"));
        }
    }
    splits
}

/// The split each registry set is planned at, in timing mode, under `full`
/// and `naive`: a change to where the planner aggregates shows here first.
/// Under `full` the level-1 sets leave the paper's level — LU's two and
/// the stencil's `X[i + 1]`, whose value crosses a `t` iteration — and
/// nothing else does; `naive` does not aggregate, so every chunk is safe.
#[test]
fn legality_splits_per_workload_are_pinned() {
    let got: Vec<(&str, Vec<usize>, Vec<usize>)> = workloads()
        .iter()
        .map(|w| {
            let full = set_splits((w.input)(w.nproc), &w.params, Options::full());
            let naive = set_splits((w.input)(w.nproc), &w.params, Options::naive());
            (w.name, full, naive)
        })
        .collect();
    let want: [(&str, &[usize], &[usize]); 4] = [
        ("lu", &[1, 0, 1, 0], &[0, 0, 0, 0]),
        ("stencil", &[0, 1], &[0, 0]),
        ("figure2", &[0], &[0]),
        ("xy", &[0, 0], &[0, 0, 0]),
    ];
    let want: Vec<(&str, Vec<usize>, Vec<usize>)> = want
        .iter()
        .map(|&(name, full, naive)| (name, full.to_vec(), naive.to_vec()))
        .collect();
    assert_eq!(got, want);
}

/// LU at (N = 12, P = 4) splits each of its two level-1 sets once, and
/// each `schedule.split` names a chunk that is sent no earlier than it is
/// first used — what the paper's level would have batched.
#[test]
fn lu_split_names_the_unsafe_chunk() {
    let compiled = compile(lu_input(4), Options::full()).expect("compiles");
    let records = schedule_records(lu_input(4), &[12], Options::full());
    let splits: Vec<&obs::Record> = records
        .iter()
        .filter(|r| r.name == "schedule.split")
        .collect();
    let mut sets: Vec<usize> = splits.iter().map(|r| uint_field(r, "set")).collect();
    sets.sort_unstable();
    let level1: Vec<usize> = (0..compiled.comm.len())
        .filter(|&k| compiled.comm[k].prefix_len == 0 && compiled.comm[k].write_stmt.is_some())
        .collect();
    assert_eq!(sets, level1, "{splits:?}");
    let stmts = compiled.input.program.statements();
    for r in splits {
        let cs = &compiled.comm[uint_field(r, "set")];
        assert_eq!(uint_field(r, "split"), 1, "{r:?}");
        assert_ne!(uint_field(r, "sender"), uint_field(r, "receiver"), "{r:?}");
        let writer = &stmts[cs.write_stmt.expect("a produced set")].position;
        let send = dmc_machine::stamp_of(writer, iter_field(r, "last_send"));
        let recv = dmc_machine::stamp_of(&stmts[cs.read_stmt].position, iter_field(r, "first_use"));
        assert!(send >= recv, "{r:?}: sent at {send:?}, used at {recv:?}");
    }
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
