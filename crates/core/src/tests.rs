//! End-to-end pipeline tests: compile → plan → simulate, with the merged
//! distributed result compared against the sequential interpreter.

use std::collections::{BTreeMap, HashMap};

use dmc_decomp::{owner_computes, CompDecomp, DataDecomp, ProcGrid};
use dmc_ir::interp::{self, Memory};
use dmc_ir::{parse, Program};
use dmc_machine::MachineConfig;
use dmc_polyhedra::PolyError;

use crate::{build_schedule, compile, run, CompileError, CompileInput, Options};

fn params_map(program: &Program, vals: &[i128]) -> HashMap<String, i128> {
    program
        .params
        .iter()
        .cloned()
        .zip(vals.iter().copied())
        .collect()
}

/// Compiles and runs in values mode; asserts the distributed result equals
/// the sequential oracle on every array element.
fn check_end_to_end(input: CompileInput, options: Options, vals: &[i128]) -> dmc_machine::SimStats {
    let program = input.program.clone();
    let compiled = compile(input, options).unwrap();
    let result = run(&compiled, vals, &MachineConfig::ipsc860(), true, 2_000_000).unwrap();
    let mem = result.memory.as_ref().expect("values mode returns memory");
    assert_equals_interp("", &program, vals, mem);
    result.stats
}

/// Asserts a distributed run's merged memory equals the sequential
/// oracle's on every array element.
pub(crate) fn assert_equals_interp(what: &str, program: &Program, vals: &[i128], mem: &Memory) {
    let seq = interp::run(program, &params_map(program, vals)).unwrap();
    for (name, store) in seq.iter() {
        let got = mem.array(name).unwrap();
        assert_eq!(got.extents(), store.extents(), "{what}: {name} extents");
        let a = got.as_slice();
        let b = store.as_slice();
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            let same = x == y || (x.is_nan() && y.is_nan()) || (x - y).abs() < 1e-12;
            assert!(
                same,
                "{what}: array {name} flat index {k}: distributed {x} vs sequential {y}"
            );
        }
    }
}

pub(crate) fn figure2_input(block: i128, nproc: i128) -> CompileInput {
    let program = parse(
        "param T, N; array X[N + 1];
         for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
    )
    .unwrap();
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::block_1d(0, "i", block));
    CompileInput {
        program,
        comps,
        initial: HashMap::new(),
        grid: ProcGrid::line(nproc),
    }
}

#[test]
fn figure2_end_to_end() {
    let stats = check_end_to_end(figure2_input(32, 4), Options::full(), &[3, 127]);
    // Pipeline shape: each of the 3 upstream processors sends one 3-word
    // message per outer iteration to its right neighbour: 3 senders x 4
    // outer iterations.
    assert_eq!(stats.messages, 3 * 4);
    assert_eq!(stats.words, 3 * 4 * 3);
}

#[test]
fn figure2_unaggregated_sends_more_messages() {
    let agg = check_end_to_end(figure2_input(32, 4), Options::full(), &[3, 127]);
    let mut naive = Options::full();
    naive.aggregate = false;
    let un = check_end_to_end(figure2_input(32, 4), naive, &[3, 127]);
    assert_eq!(un.words, agg.words, "same data either way");
    assert_eq!(
        un.messages,
        agg.messages * 3,
        "3 items per aggregated message"
    );
}

#[test]
fn figure2_with_initial_decomposition() {
    // Live-in values (X[0..2]) are owned per a block decomposition; the ⊥
    // communication (Theorem 4) must deliver them where needed.
    let mut input = figure2_input(2, 5);
    input
        .initial
        .insert("X".to_string(), DataDecomp::block_1d("X", 1, 0, 2));
    check_end_to_end(input, Options::full(), &[2, 9]);
}

pub(crate) fn lu_input(nproc: i128) -> CompileInput {
    let program = parse(
        "param N; array X[N + 1][N + 1];
         for i1 = 0 to N {
           for i2 = i1 + 1 to N {
             X[i2][i1] = X[i2][i1] / X[i1][i1];
             for i3 = i1 + 1 to N {
               X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
             }
           }
         }",
    )
    .unwrap();
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::cyclic_1d(0, "i2"));
    comps.insert(1, CompDecomp::cyclic_1d(1, "i2"));
    let mut initial = HashMap::new();
    initial.insert("X".to_string(), DataDecomp::cyclic_1d("X", 2, 0));
    CompileInput {
        program,
        comps,
        initial,
        grid: ProcGrid::line(nproc),
    }
}

#[test]
fn lu_end_to_end_figure13() {
    // The paper's §7 example: cyclic LU on a linear grid. Values mode
    // proves the generated communication correct.
    check_end_to_end(lu_input(4), Options::full(), &[10]);
}

#[test]
fn lu_multicast_reduces_messages() {
    let compiled_mc = compile(lu_input(4), Options::full()).unwrap();
    let mut no_mc = Options::full();
    no_mc.multicast = false;
    let compiled_no = compile(lu_input(4), no_mc).unwrap();
    let traffic = |c: &crate::Compiled| {
        build_schedule(c, &[12], false, 1_000_000)
            .unwrap()
            .message_stats()
    };
    let ((m_mc, t_mc, _), (m_no, t_no, _)) = (traffic(&compiled_mc), traffic(&compiled_no));
    assert!(
        m_mc < m_no,
        "multicast should reduce logical messages: {m_mc} vs {m_no}"
    );
    assert_eq!(t_mc, t_no, "same point-to-point deliveries");
}

#[test]
fn stencil_end_to_end() {
    let program = parse(
        "param T, N; array X[N + 1];
         for t = 0 to T {
           for i = 1 to N - 1 {
             X[i] = 0.25 * (X[i] + X[i - 1] + X[i + 1]);
           }
         }",
    )
    .unwrap();
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::block_1d(0, "i", 8));
    let input = CompileInput {
        program,
        comps,
        initial: HashMap::new(),
        grid: ProcGrid::line(4),
    };
    check_end_to_end(input, Options::full(), &[3, 31]);
}

#[test]
fn pipeline_sum_relaxed_owner_computes() {
    // §2.2.1: X[i][0] accumulates its row under a column-blocked
    // computation decomposition — the doacross form the owner-computes
    // rule cannot express. The value-centric pipeline handles it.
    let program = parse(
        "param N; array X[N + 1][N + 1];
         for i = 0 to N {
           for j = 1 to N {
             X[i][0] = X[i][0] + X[i][j];
           }
         }",
    )
    .unwrap();
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::block_1d(0, "j", 4));
    let input = CompileInput {
        program,
        comps,
        initial: HashMap::new(),
        grid: ProcGrid::line(3),
    };
    check_end_to_end(input, Options::full(), &[8]);
}

#[test]
fn naive_options_still_correct() {
    // With every optimization off the plan is bigger but must stay correct.
    let full = check_end_to_end(figure2_input(16, 4), Options::full(), &[2, 63]);
    let naive = check_end_to_end(figure2_input(16, 4), Options::naive(), &[2, 63]);
    assert!(naive.messages >= full.messages);
}

/// `src` with every statement on a block decomposition of its `i` loop
/// (block `b`) over a line of `nproc` processors.
fn blocked_on_i(src: &str, b: i128, nproc: i128) -> CompileInput {
    let program = parse(src).unwrap();
    let comps = (0..program.statements().len())
        .map(|s| (s, CompDecomp::block_1d(s, "i", b)))
        .collect();
    CompileInput {
        program,
        comps,
        initial: HashMap::new(),
        grid: ProcGrid::line(nproc),
    }
}

// Last Write Trees across loop nests: a later nest's own carried write is
// newer than an earlier nest's (P1), sibling inner loops compare only
// over the loops they share (P2), and so do nests of different depth (P3,
// which used to panic in `compile`).

#[test]
fn values_match_when_a_later_nest_rewrites_what_it_reads() {
    let src = "param N; array A[N + 3];
               for i = 0 to N { A[i] = 1.0; }
               for i = 0 to N { A[i + 2] = A[i] + 1.0; }";
    for options in [Options::full(), Options::naive()] {
        check_end_to_end(blocked_on_i(src, 2, 2), options, &[8]);
    }
}

#[test]
fn values_match_with_writers_in_sibling_inner_loops() {
    let src = "param N; array A[N + 2];
               for t = 1 to 2 {
                 for i = 0 to N { A[i] = A[i] + 1.0; }
                 for i = 0 to N { A[i + 1] = A[i] * 0.5; }
               }";
    for (nproc, b) in [(2, 2), (2, 3), (4, 1)] {
        for options in [Options::full(), Options::naive()] {
            check_end_to_end(blocked_on_i(src, b, nproc), options, &[8]);
        }
    }
}

#[test]
fn values_match_with_writers_in_nests_of_different_depth() {
    let src = "param N; array A[N + 1]; array B[N + 1];
               for i = 0 to N { A[i] = 1.0; }
               for i = 0 to N { for j = 0 to N { A[i] = A[i] + 1.0; } }
               for i = 0 to N { B[i] = A[i]; }";
    for options in [Options::full(), Options::naive()] {
        check_end_to_end(blocked_on_i(src, 2, 2), options, &[8]);
    }
}

/// The planner scans in `i64` whose range `ScanNest::compile` proves: a
/// loop at `N .. N + 3` plans at N = 2^40, where values mode equals the
/// interpreter, and at N = 2^62 is the typed refusal `Overflow` in both
/// modes, not a panic (the `i128` scan planned it; the limit moved to
/// ±2^62).
#[test]
fn loop_values_past_the_scan_range_are_refused() {
    let src = "param N; array A[5];
               for i = N to N + 3 { A[i - N + 1] = A[i - N] + 1.0; }";
    let input = || blocked_on_i(src, 1, 4);
    let inside = 1i128 << 40;
    check_end_to_end(input(), Options::full(), &[inside]);
    let compiled = compile(input(), Options::full()).unwrap();
    let schedule = build_schedule(&compiled, &[inside], false, 2_000_000).unwrap();
    let (_, _, words) = schedule.message_stats();
    assert_eq!(
        words, 3,
        "each write after the first is read on the next processor"
    );
    for values in [false, true] {
        match build_schedule(&compiled, &[1 << 62], values, 2_000_000) {
            Err(CompileError::Poly(PolyError::Overflow)) => {}
            other => panic!("expected the typed refusal, got {other:?}"),
        }
    }
}

/// §2.2.2's X/Y example, block size 4, with or without initial block
/// data decompositions.
pub(crate) fn xy_input(nproc: i128, with_initial: bool) -> CompileInput {
    let program = parse(
        "param N; array X[N + 2]; array Y[N + 2];
         for i = 0 to N {
           X[i] = 1.5;
           for j = 1 to N {
             Y[j] = Y[j] + X[j - 1];
           }
         }",
    )
    .unwrap();
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::block_1d(0, "i", 4));
    comps.insert(1, CompDecomp::block_1d(1, "j", 4));
    let mut initial = HashMap::new();
    if with_initial {
        initial.insert("X".to_string(), DataDecomp::block_1d("X", 1, 0, 4));
        initial.insert("Y".to_string(), DataDecomp::block_1d("Y", 1, 0, 4));
    }
    CompileInput {
        program,
        comps,
        initial,
        grid: ProcGrid::line(nproc),
    }
}

#[test]
fn location_centric_counts_more_traffic() {
    // The location-centric baseline re-fetches the same location every
    // outer iteration; the value-centric plan moves each value once.
    let vc = compile(xy_input(4, true), Options::full()).unwrap();
    let lc = compile(xy_input(4, true), Options::location_centric()).unwrap();
    let words = |c: &crate::Compiled| {
        build_schedule(c, &[11], false, 1_000_000)
            .unwrap()
            .message_stats()
            .2
    };
    let (w_vc, w_lc) = (words(&vc), words(&lc));
    assert!(
        w_vc < w_lc,
        "value-centric must move less data: {w_vc} vs {w_lc} words"
    );
}

// Values-mode runs that did not match the sequential interpreter until
// `compute_blocks` stopped batching a statement's innermost-loop range
// across the other statements that loop encloses (the first has one
// processor and no messages: `X[i] = 1.5` ran for its whole `i` range ahead
// of the `j` loop it interleaves with). EXPERIMENTS.md P21 has the history.

#[test]
fn known_mismatch_xy_single_processor() {
    check_end_to_end(xy_input(1, false), Options::full(), &[7]);
}

#[test]
fn known_mismatch_xy_naive_two_processors() {
    check_end_to_end(xy_input(2, false), Options::naive(), &[7]);
}

#[test]
fn known_mismatch_xy_initial_decomp_four_processors() {
    check_end_to_end(xy_input(4, true), Options::full(), &[15]);
}

/// The location-centric plan ships every fetched location ahead of the
/// loop nest, stamped live-in: a values-mode schedule of it is refused
/// where that would be wrong (the fetched array is written), served where
/// it is right, and timing mode never asks.
#[test]
fn known_mismatch_lu_location_centric() {
    let compiled = compile(lu_input(4), Options::location_centric()).unwrap();
    for attempt in [
        build_schedule(&compiled, &[12], true, 2_000_000).map(drop),
        run(&compiled, &[12], &MachineConfig::ipsc860(), true, 2_000_000).map(drop),
    ] {
        match attempt {
            Err(crate::CompileError::LocationCentricValues(array)) => assert_eq!(array, "X"),
            other => panic!("expected the typed refusal, got {other:?}"),
        }
    }
    build_schedule(&compiled, &[12], false, 2_000_000).expect("timing mode is untouched");

    // The preset alone is not refused: a transpose only reads what it
    // fetches, and its location-centric run equals the interpreter.
    let program = parse(
        "param N; array A[N + 1][N + 1]; array B[N + 1][N + 1];
         for i = 0 to N { for j = 0 to N { B[i][j] = A[j][i]; } }",
    )
    .unwrap();
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::block_1d(0, "i", 4));
    let mut initial = HashMap::new();
    initial.insert("A".to_string(), DataDecomp::block_1d("A", 2, 0, 4));
    let input = CompileInput {
        program,
        comps,
        initial,
        grid: ProcGrid::line(3),
    };
    let stats = check_end_to_end(input, Options::location_centric(), &[10]);
    assert!(stats.messages > 0, "the transpose communicates");
}

#[test]
fn schedule_is_deterministic() {
    let compiled = compile(figure2_input(32, 4), Options::full()).unwrap();
    let s1 = build_schedule(&compiled, &[3, 127], true, 1_000_000).unwrap();
    let s2 = build_schedule(&compiled, &[3, 127], true, 1_000_000).unwrap();
    assert_eq!(s1.messages.len(), s2.messages.len());
    for (a, b) in s1.procs.iter().zip(&s2.procs) {
        assert_eq!(a, b);
    }
}

#[test]
fn missing_comp_is_reported() {
    let mut input = figure2_input(32, 4);
    input.comps.clear();
    assert!(matches!(
        compile(input, Options::full()),
        Err(crate::CompileError::MissingComp(0))
    ));
}

/// A grid of the wrong rank is a typed error at `compile`, through the
/// one-shot call and through a session, not a panic while planning.
#[test]
fn grid_rank_mismatch_is_reported() {
    let mut input = lu_input(4);
    input.grid = ProcGrid::new(vec![2, 2]);
    for attempt in [
        compile(input.clone(), Options::full()).map(drop),
        crate::Session::new()
            .serve("lu", input.clone(), Options::full(), &[12], 2_000_000)
            .map(drop),
    ] {
        match attempt {
            Err(crate::CompileError::GridRank { grid, of, rank }) => {
                assert_eq!((grid, of.as_str(), rank), (2, "statement 0", 1));
            }
            other => panic!("expected the typed refusal, got {other:?}"),
        }
    }
    // An initial data decomposition is checked too.
    let mut input = lu_input(4);
    let wide = vec![
        dmc_decomp::DimMap::cyclic(dmc_ir::Aff::var("a0")),
        dmc_decomp::DimMap::cyclic(dmc_ir::Aff::var("a1")),
    ];
    let home = DataDecomp::from_maps("X", 2, wide);
    input.initial.insert("X".to_string(), home);
    let err = compile(input, Options::full()).unwrap_err();
    assert_eq!(
        err.to_string(),
        "the grid has 1 dimension(s) but the decomposition of array X has 2"
    );
}

/// A computation decomposition over a loop variable that does not enclose
/// its statement is a typed error at `compile`, through the one-shot call
/// and through a session, not a panic while building communication sets.
#[test]
fn comp_over_a_foreign_loop_variable_is_reported() {
    let program = dmc_ir::parse(
        "param N; array X[N + 1];
         for j = 1 to N { X[j] = X[j - 1]; }",
    )
    .expect("parses");
    let input = CompileInput {
        program,
        comps: BTreeMap::from([(0, CompDecomp::block_1d(0, "i", 4))]),
        initial: HashMap::new(),
        grid: ProcGrid::line(4),
    };
    for attempt in [
        compile(input.clone(), Options::full()).map(drop),
        crate::Session::new()
            .serve("shift", input.clone(), Options::full(), &[12], 2_000_000)
            .map(drop),
    ] {
        let err = attempt.expect_err("a typed refusal");
        assert!(
            matches!(&err, CompileError::CompVar { stmt: 0, var } if var == "i"),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "the computation decomposition of statement 0 names \"i\", \
             which is neither a loop enclosing it nor a parameter"
        );
    }
}

/// A computation decomposition may name the program's parameters as well
/// as its statement's loops: owner-computes on the write `X[N - i]` maps
/// iteration `i` by `N - i`, and that compiles and computes the program.
#[test]
fn comp_over_a_parameter_compiles() {
    let program = parse(
        "param N; array X[N + 1]; array Y[N + 1];
         for i = 0 to N { X[N - i] = Y[i] + 1.5; }",
    )
    .unwrap();
    let home = DataDecomp::block_1d("X", 1, 0, 4);
    let comp = owner_computes(&home, &program.statements()[0]).unwrap();
    assert!(comp.maps[0].expr.vars().contains(&"N"), "{comp:?}");
    let mut initial = HashMap::new();
    initial.insert("X".to_string(), home);
    initial.insert("Y".to_string(), DataDecomp::block_1d("Y", 1, 0, 4));
    let input = CompileInput {
        program,
        comps: BTreeMap::from([(0, comp)]),
        initial,
        grid: ProcGrid::line(3),
    };
    check_end_to_end(input, Options::full(), &[11]);
}

/// Planning with too few or too many parameter values is a typed refusal,
/// in both modes and through a session, not a panic while scanning.
#[test]
fn wrong_parameter_count_is_reported() {
    let compiled = compile(lu_input(4), Options::full()).unwrap();
    for params in [&[][..], &[8, 9]] {
        let got = params.len();
        for values in [false, true] {
            match build_schedule(&compiled, params, values, 2_000_000) {
                Err(CompileError::ParamCount { want: 1, got: g }) if g == got => {}
                other => panic!("expected the typed refusal, got {other:?}"),
            }
        }
        let served =
            crate::Session::new().serve("lu", lu_input(4), Options::full(), params, 2_000_000);
        match served {
            Err(e @ CompileError::ParamCount { .. }) => assert_eq!(
                e.to_string(),
                format!("the program has 1 parameter(s) but {got} value(s) were given")
            ),
            other => panic!("expected the typed refusal, got {other:?}"),
        }
    }
}

/// Whether a values-mode run of `input` at `vals` differs from the
/// sequential interpreter on some element, by the tolerance
/// [`assert_equals_interp`] allows.
fn differs_from_interp(input: CompileInput, options: Options, vals: &[i128]) -> bool {
    let program = input.program.clone();
    let compiled = compile(input, options).unwrap();
    let result = run(&compiled, vals, &MachineConfig::ipsc860(), true, 2_000_000).unwrap();
    let mem = result.memory.expect("values mode returns memory");
    let seq = interp::run(&program, &params_map(&program, vals)).unwrap();
    let differs = seq.iter().any(|(name, store)| {
        let got = mem.array(name).unwrap().as_slice();
        got.iter()
            .zip(store.as_slice())
            .any(|(x, y)| !(x == y || (x.is_nan() && y.is_nan()) || (x - y).abs() < 1e-12))
    });
    differs
}

/// ROADMAP item 1's family: one `t`-carried set whose chunk folds several
/// `t`-versions of a boundary element. Aggregation legality proves
/// deadlock freedom, not values: under `full` a chunk may be sent after
/// its first use and carry the newest version for every item. The
/// 84-point grid pins which configurations compute a wrong value today
/// (none under `naive`), and P4 itself pins the wrong element.
#[test]
fn known_mismatch_p4_family() {
    let grid = [(1, 2), (2, 2), (3, 2), (4, 2), (2, 4), (1, 4), (3, 3)];
    let mut wrong = Vec::new();
    for off in ["i + 1", "i + 2", "i - 1"] {
        let src = format!(
            "param N; array A[N + 3];
             for t = 1 to 3 {{ for i = 1 to N {{ A[i] = A[{off}] + 1.0; }} }}"
        );
        for (b, nproc) in grid {
            for n in [4, 6, 9, 12] {
                let input = || blocked_on_i(&src, b, nproc);
                assert!(
                    !differs_from_interp(input(), Options::naive(), &[n]),
                    "naive, {off}, b = {b}, P = {nproc}, N = {n}"
                );
                if differs_from_interp(input(), Options::full(), &[n]) {
                    wrong.push((off, b, nproc, n));
                }
            }
        }
    }
    let today = [
        ("i + 1", 3, 2, 4),
        ("i + 1", 3, 2, 6),
        ("i + 1", 4, 2, 6),
        ("i + 1", 4, 2, 9),
        ("i + 1", 2, 4, 6),
        ("i + 1", 2, 4, 9),
        ("i + 1", 3, 3, 4),
        ("i + 1", 3, 3, 6),
        ("i + 1", 3, 3, 9),
        ("i + 2", 4, 2, 9),
    ];
    assert_eq!(wrong, today, "(offset, b, P, N) wrong under full");
    let p4 = "param N; array A[N + 2];
              for t = 1 to 3 { for i = 0 to N { A[i] = A[i + 1] + 1.0; } }";
    let input = blocked_on_i(p4, 4, 2);
    let program = input.program.clone();
    let compiled = compile(input, Options::full()).unwrap();
    let result = run(&compiled, &[6], &MachineConfig::ipsc860(), true, 2_000_000).unwrap();
    let got = result
        .memory
        .unwrap()
        .array("A")
        .unwrap()
        .get(&[2])
        .unwrap();
    let seq = interp::run(&program, &params_map(&program, &[6])).unwrap();
    let want = seq.array("A").unwrap().get(&[2]).unwrap();
    assert_eq!(
        (format!("{got:.4}"), format!("{want:.4}")),
        ("5.2032".to_owned(), "4.2029".to_owned())
    );
}
