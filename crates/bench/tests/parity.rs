//! Output-parity tests. The feasibility budget: a roomier budget may not
//! change a compiled schedule, a message count, or a simulation result —
//! only wall-clock time. The interpreter: its lowered `run` and its
//! tree-walking `run_traced` leave the same bits in every element.

use dmc_bench::figure2_input;
use dmc_core::{build_schedule, compile, message_stats, run, CompileInput, Options};
use dmc_machine::MachineConfig;

const LIMIT: usize = 50_000_000;

fn outputs(
    input: &CompileInput,
    params: &[i128],
    options: Options,
) -> (
    dmc_machine::Schedule,
    (u64, u64, u64),
    dmc_machine::SimStats,
) {
    let compiled = compile(input.clone(), options).expect("compiles");
    let schedule = build_schedule(&compiled, params, false, LIMIT).expect("schedules");
    let stats = message_stats(&compiled, params, LIMIT).expect("stats");
    let sim = run(&compiled, params, &MachineConfig::ipsc860(), false, LIMIT)
        .expect("simulates")
        .stats;
    (schedule, stats, sim)
}

/// The feasibility budget flows from [`Options`] into the engine, and an
/// exhausted budget yields a counted `Unknown` answer, never an error.
#[test]
fn feasibility_budget_is_configurable() {
    use dmc_polyhedra::stats;
    let input = figure2_input(4);
    let full = outputs(&input, &[3, 63], Options::full());

    // compile() pushes the Options budget onto its own thread for the
    // duration of the pipeline and pops it on exit; a roomier budget
    // changes no answer here.
    let big = Options {
        feasibility_budget: 123_456,
        ..Options::full()
    };
    let roomier = outputs(&input, &[3, 63], big);
    assert_eq!(
        stats::feasibility_budget(),
        stats::DEFAULT_FEASIBILITY_BUDGET,
        "compile must pop its budget on exit"
    );
    assert_eq!(
        full.0, roomier.0,
        "a larger budget must not change the schedule"
    );

    // An exhausted budget trips to Unknown and the counter records it.
    // (Querying directly — a whole compile under a tripped budget keeps
    // every unresolvable constraint and explodes combinatorially.)
    use dmc_polyhedra::{Constraint, DimKind, Feasibility, LinExpr, Polyhedron, Space};
    let tripped = Options {
        feasibility_budget: 0,
        ..Options::full()
    }
    .push_tuning_scoped();
    let before = stats::snapshot();
    let mut p = Polyhedron::universe(Space::from_dims([("x", DimKind::Index)]));
    p.add(Constraint::ge(LinExpr::from_coeffs(vec![1], 0)));
    p.add(Constraint::ge(LinExpr::from_coeffs(vec![-1], 3)));
    assert_eq!(p.integer_feasibility().unwrap(), Feasibility::Unknown);
    let delta = stats::snapshot().since(&before);
    assert!(
        delta.feasibility_unknown >= 1,
        "tripped budget must be counted"
    );
    drop(tripped);

    let again = outputs(&input, &[3, 63], Options::full());
    assert_eq!(full.0, again.0, "default budget must be restored");
}

/// On every workload of the registry, at its standard parameters, the
/// lowered interpreter and the tree walk agree bit for bit.
#[test]
fn interpreter_paths_agree_on_the_registry() {
    for w in dmc_bench::workloads() {
        let program = (w.input)(w.nproc).program;
        let env = program
            .params
            .iter()
            .cloned()
            .zip(w.params.iter().copied())
            .collect();
        let lowered = dmc_ir::interp::run(&program, &env).expect("runs");
        let (walked, trace) = dmc_ir::interp::run_traced(&program, &env).expect("runs");
        assert!(!trace.reads.is_empty(), "{}: nothing ran", w.name);
        for (name, a) in lowered.iter() {
            let b = walked.array(name).expect("same arrays");
            let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(a.extents(), b.extents(), "{} {name}", w.name);
            assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "{} {name}", w.name);
        }
    }
}
