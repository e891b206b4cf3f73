//! An exhausted feasibility budget, at the engine level: the query answers
//! `Unknown`, is counted once, traces nothing and is never memoized, and a
//! compile after it is the compile before it. A whole compile under a
//! starved budget keeps every unresolvable constraint and explodes
//! combinatorially, so the budget is starved on the engine's own query
//! ([`Polyhedron::integer_feasibility_with_budget`]).

use std::collections::{BTreeMap, HashMap};

use dmc_core::{build_schedule, compile, CompileInput, Options};
use dmc_decomp::{CompDecomp, ProcGrid};
use dmc_polyhedra::{cache, stats, Constraint, DimKind, Feasibility, LinExpr, Polyhedron, Space};

/// Figure 2's kernel, compiled and planned, rendered for comparison.
fn figure2() -> String {
    let program = dmc_ir::parse(
        "param T, N; array X[N + 1];
         for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
    )
    .expect("parses");
    let input = CompileInput {
        program,
        comps: BTreeMap::from([(0, CompDecomp::block_1d(0, "i", 16))]),
        initial: HashMap::new(),
        grid: ProcGrid::line(4),
    };
    let compiled = compile(input, Options::full()).expect("compiles");
    let schedule = build_schedule(&compiled, &[3, 63], false, 1_000_000).expect("schedules");
    format!("{:?} {:?} {schedule:?}", compiled.lwts, compiled.comm)
}

/// The box 0 <= x, y, z <= 5 with x + y + z = 7 and x <= y: feasible, and
/// nine constraints, enough to pass the memoization size gate.
fn sample() -> Polyhedron {
    let mut p = Polyhedron::universe(Space::from_dims([
        ("x", DimKind::Index),
        ("y", DimKind::Index),
        ("z", DimKind::Index),
    ]));
    for k in 0..3 {
        let mut c = vec![0i128; 3];
        c[k] = 1;
        p.add(Constraint::ge(LinExpr::from_coeffs(c.clone(), 0)));
        c[k] = -1;
        p.add(Constraint::ge(LinExpr::from_coeffs(c, 5)));
    }
    p.add(Constraint::eq(LinExpr::from_coeffs(vec![1, 1, 1], -7)));
    p.add(Constraint::ge(LinExpr::from_coeffs(vec![-1, 1, 0], 0)));
    p
}

#[test]
fn an_exhausted_budget_is_counted_once_and_never_cached() {
    let before = figure2();
    cache::clear_thread_caches();
    let p = sample();

    dmc_obs::start_capture();
    let s0 = stats::snapshot();
    let starved = p.integer_feasibility_with_budget(0).expect("no overflow");
    let d = stats::snapshot().since(&s0);
    let trace = dmc_obs::finish_capture();
    assert_eq!(starved, Feasibility::Unknown);
    assert_eq!(d.feasibility_unknown, 1, "counted exactly once");
    assert!(trace.is_empty(), "and traced nowhere: {trace:?}");

    // The Unknown was not stored: the engine's own budget misses the map
    // and decides the system.
    let s1 = stats::snapshot();
    let decided = p.integer_feasibility().expect("no overflow");
    let d = stats::snapshot().since(&s1);
    assert_eq!(decided, Feasibility::Feasible);
    assert_eq!((d.feas_cache_hits, d.feas_cache_misses), (0, 1));
    assert_eq!(d.feasibility_unknown, 0);

    assert_eq!(figure2(), before, "nothing of the starved query lingers");
}
