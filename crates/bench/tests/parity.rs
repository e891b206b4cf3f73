//! Output-parity tests. The feasibility budget: a roomier budget may not
//! change a compiled schedule, a message count, or a simulation result —
//! only wall-clock time. The interpreter: its lowered `run` and its
//! tree-walking `run_traced` leave the same bits in every element. The
//! planner's element table: the messages the `BTreeMap` of owned elements
//! gave, row for row.

use std::collections::{BTreeMap, HashMap, HashSet};

use dmc_bench::{figure2_input, lu_input, stencil_input, xy_input};
use dmc_commgen::{aggregate_messages, CommElem, CommSet};
use dmc_core::{build_schedule, compile, message_stats, run, CompileInput, Options};
use dmc_decomp::{CompDecomp, DataDecomp, DimMap, ProcGrid};
use dmc_ir::Aff;
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

/// `(sender, key, receiver, items)` of one reference message.
type RefMessage = (Vec<i128>, Vec<i128>, Vec<i128>, Vec<CommElem>);

/// The grouping `aggregate_messages` ran on before the element table:
/// owned elements into a `BTreeMap`, `sort`, `dedup`, and a `HashSet` for
/// §6.1.3's one transfer per physical receiver.
fn reference_messages(cs: &CommSet, params: &[i128], grid: Option<&ProcGrid>) -> Vec<RefMessage> {
    type GroupKey = (Vec<i128>, Vec<i128>, Vec<i128>);
    let mut groups: BTreeMap<GroupKey, Vec<CommElem>> = BTreeMap::new();
    for e in cs.enumerate(params, usize::MAX).unwrap().unwrap() {
        let (s, r) = match grid {
            Some(g) => (g.fold(&e.ps), g.fold(&e.pr)),
            None => (e.ps.clone(), e.pr.clone()),
        };
        if s != r {
            let mut key: Vec<i128> = e.s_iter.iter().take(cs.prefix_len).copied().collect();
            key.extend(e.r_iter.iter().take(cs.refetch_outer));
            groups.entry((s, key, r)).or_default().push(e);
        }
    }
    let finish = |((sender, key, receiver), mut items): (GroupKey, Vec<CommElem>)| {
        items.sort();
        items.dedup();
        if grid.is_some() {
            let mut seen = HashSet::new();
            items.retain(|e| seen.insert((e.s_iter.clone(), e.arr.clone())));
        }
        (sender, key, receiver, items)
    };
    groups.into_iter().map(finish).collect()
}

/// A transpose read on a 2-D grid, four virtual processors folded onto
/// two in each dimension.
fn transpose_2d_input() -> CompileInput {
    let program = dmc_ir::parse(
        "param N; array A[N + 1][N + 1]; array B[N + 1][N + 1];
         for i = 0 to N { for j = 0 to N { B[i][j] = A[j][i]; } }",
    )
    .unwrap();
    let blocks =
        |a: &str, b: &str| vec![DimMap::block(Aff::var(a), 4), DimMap::block(Aff::var(b), 4)];
    CompileInput {
        program,
        comps: BTreeMap::from([(0, CompDecomp::from_maps(0, blocks("i", "j")))]),
        initial: HashMap::from([(
            "A".to_string(),
            DataDecomp::from_maps("A", 2, blocks("a0", "a1")),
        )]),
        grid: ProcGrid::new(vec![2, 2]),
    }
}

/// `aggregate_messages` gives the reference's messages, in its order, row
/// for row — on the registry and on LU, stencil, transpose and X/Y under
/// cyclic, block, block-cyclic and 2-D decompositions, value- and
/// location-centric, with and without a grid — and `limit` counts scanned
/// elements: served at the count, refused one below.
#[test]
fn element_table_matches_the_grouping_it_replaced() {
    let mut cases: Vec<(CompileInput, Options, Vec<i128>)> = dmc_bench::workloads()
        .into_iter()
        .map(|w| ((w.input)(w.nproc), Options::full(), w.params))
        .collect();
    cases.extend([
        (lu_input(3), Options::naive(), vec![13]),
        (lu_input(4), Options::location_centric(), vec![12]),
        (xy_input(2), Options::location_centric(), vec![15]),
        (stencil_input(8, 3), Options::full(), vec![2, 63]),
        (transpose_2d_input(), Options::full(), vec![15]),
        (transpose_2d_input(), Options::location_centric(), vec![15]),
    ]);
    let (mut refetched, mut repeats, mut two_d) = (0, 0, 0);
    for (input, options, params) in cases {
        let compiled = compile(input, options).expect("compiles");
        assert!(!compiled.comm.is_empty());
        for cs in &compiled.comm {
            let count = cs.enumerate(&params, usize::MAX).unwrap().unwrap().len();
            for grid in [None, Some(&compiled.input.grid)] {
                let want = reference_messages(cs, &params, grid);
                let got = aggregate_messages(cs, &params, grid, count)
                    .expect("aggregates")
                    .expect("the limit is the element count");
                assert_eq!(got.len(), want.len(), "{} messages", cs.array);
                for (m, (sender, key, receiver, items)) in got.iter().zip(&want) {
                    assert_eq!((&m.sender, &m.key, &m.receiver), (sender, key, receiver));
                    let rows: Vec<CommElem> = (m.items.clone())
                        .map(|r| got.rows().row(r).to_elem())
                        .collect();
                    assert_eq!(&rows, items, "{sender:?} -> {receiver:?} at {key:?}");
                }
                if let Some(below) = count.checked_sub(1) {
                    let refused = aggregate_messages(cs, &params, grid, below).expect("aggregates");
                    assert!(refused.is_none(), "{below} of {count} elements");
                }
                let kept: usize = want.iter().map(|m| m.3.len()).sum();
                refetched += usize::from(cs.refetch_outer > 0 && kept > 0);
                repeats += usize::from(grid.is_some_and(|g| {
                    let apart = |e: &&CommElem| g.fold(&e.ps) != g.fold(&e.pr);
                    let all = cs.enumerate(&params, usize::MAX).unwrap().unwrap();
                    all.iter().filter(apart).count() > kept
                }));
                two_d += usize::from(grid.is_some_and(|g| g.ndim() == 2) && kept > 0);
            }
        }
    }
    assert!(refetched > 0, "no location-centric set was aggregated");
    assert!(repeats > 0, "no set exercised dedup or \u{a7}6.1.3");
    assert!(two_d > 0, "no 2-D grid was aggregated");
}
