//! Integration tests binding the paper's figures to the public API —
//! the per-experiment index of DESIGN.md (E1–E9).

use std::collections::{BTreeMap, HashMap};

use dmc_core::{build_schedule, compile, run, CompileInput, Options};
use dmc_dataflow::{build_lwt, build_lwt_hull, DepLevel};
use dmc_decomp::{owner_computes, CompDecomp, DataDecomp, ProcGrid};
use dmc_machine::MachineConfig;
use dmc_polyhedra::{scan_bounds, Constraint, DimKind, LinExpr, Polyhedron, Space};

const FIG2_SRC: &str = "param T, N; array X[N + 1];
for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }";

const LU_SRC: &str = "param N; array X[N + 1][N + 1];
for i1 = 0 to N {
  for i2 = i1 + 1 to N {
    X[i2][i1] = X[i2][i1] / X[i1][i1];
    for i3 = i1 + 1 to N {
      X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
    }
  }
}";

/// E1 — Figure 3: the LWT of Figure 2's read has exactly the two contexts
/// the paper draws: M1 (⊥, `i <= 5`) and M2 (`[t, i-3]`, level 2).
#[test]
fn fig3_lwt() {
    let p = dmc_ir::parse(FIG2_SRC).unwrap();
    let lwt = build_lwt(&p, 0, 0).unwrap();
    assert_eq!(lwt.leaves.len(), 2);
    assert_eq!(lwt.bottom_leaves().count(), 1);
    let src = lwt.source_leaves().next().unwrap().source.as_ref().unwrap();
    assert_eq!(src.level, DepLevel::Carried(2));
    // M1 covers exactly i_r in 3..=5; M2 the rest.
    for i in 3..=20i128 {
        let producer = lwt.producer_at(&[1, i], &[2, 20]).unwrap();
        if i <= 5 {
            assert_eq!(producer, None, "i={i} reads live-in X[{}]", i - 3);
        } else {
            assert_eq!(producer, Some((0, vec![1, i - 3])), "i={i}");
        }
    }
}

/// E2 — Figure 5: the communication sets for context M2 under the block-32
/// decomposition; the `p_s > p_r` disjunct is empty, the other carries
/// three boundary elements per (t, receiver).
#[test]
fn fig5_comm_sets() {
    let p = dmc_ir::parse(FIG2_SRC).unwrap();
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::block_1d(0, "i", 32));
    let input = CompileInput {
        program: p,
        comps,
        initial: HashMap::new(),
        grid: ProcGrid::line(4),
    };
    let compiled = compile(input, Options::full()).unwrap();
    assert_eq!(compiled.comm.len(), 1, "only the ps < pr piece is feasible");
    let elems = compiled.comm[0]
        .enumerate(&[0, 127], 10_000)
        .unwrap()
        .unwrap();
    // One outer iteration, receivers p=1..3, three elements each.
    assert_eq!(elems.len(), 9);
    for e in &elems {
        assert_eq!(e.ps[0], e.pr[0] - 1);
        assert_eq!(e.arr[0], e.r_iter[1] - 3);
    }
}

/// E3 — Figure 6: scanning one polyhedron in (i, j) and (j, i) orders
/// enumerates the same set, in the respective lexicographic orders.
#[test]
fn fig6_projection() {
    let space = Space::from_dims([("i", DimKind::Index), ("j", DimKind::Index)]);
    let mut poly = Polyhedron::universe(space);
    let ge = |c: Vec<i128>, k: i128| Constraint::ge(LinExpr::from_coeffs(c, k));
    poly.add(ge(vec![1, 0], -1)); // i >= 1
    poly.add(ge(vec![-1, 0], 6)); // i <= 6
    poly.add(ge(vec![0, 1], -1)); // j >= 1
    poly.add(ge(vec![1, -1], 0)); // j <= i
    poly.add(ge(vec![1, -2], 12)); // 2j <= i + 12
    let ij = scan_bounds(&poly, &[0, 1]).unwrap();
    let ji = scan_bounds(&poly, &[1, 0]).unwrap();
    let a = ij.enumerate(&[0, 0], 1_000).unwrap();
    let b = ji.enumerate(&[0, 0], 1_000).unwrap();
    assert_eq!(a.len(), b.len());
    // (i, j) order is lexicographic in i then j.
    assert!(a
        .windows(2)
        .all(|w| (w[0][0], w[0][1]) < (w[1][0], w[1][1])));
    // (j, i) order is lexicographic in j then i.
    assert!(b
        .windows(2)
        .all(|w| (w[0][1], w[0][0]) < (w[1][1], w[1][0])));
    let mut a2 = a.clone();
    a2.sort();
    let mut b2 = b.clone();
    b2.sort();
    assert_eq!(a2, b2);
}

/// E4 — Figure 7: generated computation and communication code. The
/// structural assertions live in `dmc-codegen`; here we check the
/// round-trip through the public API and the guard behaviour.
#[test]
fn fig7_codegen() {
    let p = dmc_ir::parse(FIG2_SRC).unwrap();
    let stmts = p.statements();
    let comp = CompDecomp::block_1d(0, "i", 32);
    let code = dmc_codegen::computation_code(&p, &stmts[0], &comp).unwrap();
    let text = dmc_codegen::render(&code);
    assert!(text.contains("for t = 0 to T {"), "{text}");
    assert!(text.contains("MAX(") && text.contains("MIN("), "{text}");
}

/// E5 — Figures 8/9: one LWT for the uniformly generated group
/// `X[i], X[i-1], X[i-2], X[i-3]`.
#[test]
fn fig9_group_lwt() {
    let p = dmc_ir::parse(
        "param T, N; array X[N + 1];
         for t = 0 to T { for i = 3 to N { X[i] = f(X[i], X[i - 1], X[i - 2], X[i - 3]); } }",
    )
    .unwrap();
    let lwt = build_lwt_hull(&p, 0, &[0, 1, 2, 3]).unwrap();
    assert!(lwt.read_dims.contains(&"$u0".to_string()));
    // The hull covers all four offsets: u in [-3, 0] around X[i + u].
    assert_eq!(
        lwt.producer_at(&[2, 8, 0], &[4, 12]),
        Ok(Some((0, vec![1, 8])))
    );
    assert_eq!(
        lwt.producer_at(&[2, 8, -1], &[4, 12]),
        Ok(Some((0, vec![2, 7])))
    );
}

/// E6 — Figure 10: aggregation turns 3 one-word messages per (t, receiver)
/// into one 3-word message, with identical pack and unpack orders.
#[test]
fn fig10_aggregation() {
    let p = dmc_ir::parse(FIG2_SRC).unwrap();
    let mk = || {
        let mut comps = BTreeMap::new();
        comps.insert(0, CompDecomp::block_1d(0, "i", 32));
        CompileInput {
            program: p.clone(),
            comps,
            initial: HashMap::new(),
            grid: ProcGrid::line(4),
        }
    };
    let agg = compile(mk(), Options::full()).unwrap();
    let mut no = Options::full();
    no.aggregate = false;
    let unagg = compile(mk(), no).unwrap();
    let traffic = |c| {
        build_schedule(c, &[3, 127], false, 100_000)
            .unwrap()
            .message_stats()
    };
    let ((m_agg, _, w_agg), (m_un, _, w_un)) = (traffic(&agg), traffic(&unagg));
    assert_eq!(w_agg, w_un, "aggregation moves the same data");
    assert_eq!(m_un, 3 * m_agg, "3 items per aggregated message");
}

/// E7 — Figures 11–13: the full LU pipeline is correct end to end.
#[test]
fn fig13_lu_spmd() {
    let program = dmc_ir::parse(LU_SRC).unwrap();
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::cyclic_1d(0, "i2"));
    comps.insert(1, CompDecomp::cyclic_1d(1, "i2"));
    let mut initial = HashMap::new();
    initial.insert("X".to_string(), DataDecomp::cyclic_1d("X", 2, 0));
    let input = CompileInput {
        program: program.clone(),
        comps,
        initial,
        grid: ProcGrid::line(4),
    };
    let compiled = compile(input, Options::full()).unwrap();
    let r = run(
        &compiled,
        &[16],
        &MachineConfig::ipsc860(),
        true,
        10_000_000,
    )
    .unwrap();
    let mut env = HashMap::new();
    env.insert("N".to_string(), 16i128);
    let seq = dmc_ir::interp::run(&program, &env).unwrap();
    let a = r.memory.unwrap();
    let got = a.array("X").unwrap().as_slice().to_vec();
    let want = seq.array("X").unwrap().as_slice();
    assert!(got
        .iter()
        .zip(want)
        .all(|(x, y)| x == y || (x.is_nan() && y.is_nan())));
}

/// E8 — Figure 14 (shape only at test scale): LU on more processors is
/// faster, and the speedup at P=8 is substantial for a compute-heavy size.
#[test]
fn fig14_speedup_shape() {
    let mk = |p: i128| {
        let program = dmc_ir::parse(LU_SRC).unwrap();
        let mut comps = BTreeMap::new();
        comps.insert(0, CompDecomp::cyclic_1d(0, "i2"));
        comps.insert(1, CompDecomp::cyclic_1d(1, "i2"));
        let mut initial = HashMap::new();
        initial.insert("X".to_string(), DataDecomp::cyclic_1d("X", 2, 0));
        CompileInput {
            program,
            comps,
            initial,
            grid: ProcGrid::line(p),
        }
    };
    // Slow processor (scaled model) so N=64 behaves like a large problem.
    let mut cfg = MachineConfig::ipsc860();
    cfg.flop_time *= 32.0;
    let mut times = Vec::new();
    for p in [1i128, 2, 4, 8] {
        let compiled = compile(mk(p), Options::full()).unwrap();
        let r = run(&compiled, &[64], &cfg, false, 50_000_000).unwrap();
        times.push(r.stats.time);
    }
    assert!(
        times.windows(2).all(|w| w[1] < w[0]),
        "monotone speedup: {times:?}"
    );
    let s8 = times[0] / times[3];
    assert!(
        s8 > 4.0,
        "speedup at P=8 should be substantial, got {s8:.2}"
    );
}

/// E9 — §2.2 comparisons: on the X/Y example the value-centric plan moves
/// a constant number of words while the location-centric baseline re-fetches
/// every outer iteration.
#[test]
fn sec22_comparisons() {
    let program = dmc_ir::parse(
        "param N; array X[N + 2]; array Y[N + 2];
         for i = 0 to N {
           X[i] = 1.5;
           for j = 1 to N {
             Y[j] = Y[j] + X[j - 1];
           }
         }",
    )
    .unwrap();
    let mk = || {
        let mut comps = BTreeMap::new();
        comps.insert(0, CompDecomp::block_1d(0, "i", 4));
        comps.insert(1, CompDecomp::block_1d(1, "j", 4));
        let mut initial = HashMap::new();
        initial.insert("X".to_string(), DataDecomp::block_1d("X", 1, 0, 4));
        initial.insert("Y".to_string(), DataDecomp::block_1d("Y", 1, 0, 4));
        CompileInput {
            program: program.clone(),
            comps,
            initial,
            grid: ProcGrid::line(4),
        }
    };
    let n = 11i128;
    let vc = compile(mk(), Options::full()).unwrap();
    let lc = compile(mk(), Options::location_centric()).unwrap();
    let words = |c| {
        build_schedule(c, &[n], false, 1_000_000)
            .unwrap()
            .message_stats()
            .2
    };
    let (w_vc, w_lc) = (words(&vc), words(&lc));
    // Value-centric: each crossing value moves O(1) times; location-centric
    // re-fetches it every outer iteration (O(N)).
    assert!(w_vc * 2 <= w_lc, "vc {w_vc} vs lc {w_lc}");

    // The value-centric plan moves the right values, not just fewer words:
    // its distributed run leaves X and Y as the sequential program does.
    let dist = run(&vc, &[n], &MachineConfig::ipsc860(), true, 1_000_000).unwrap();
    let dist = dist.memory.expect("values mode returns memory");
    let env: HashMap<String, i128> = [("N".to_string(), n)].into_iter().collect();
    let seq = dmc_ir::interp::run(&program, &env).unwrap();
    for name in ["X", "Y"] {
        let (got, want) = (dist.array(name).unwrap(), seq.array(name).unwrap());
        assert_eq!(got.as_slice(), want.as_slice(), "{name}");
    }
    // The location-centric plan is a traffic count: asked for values, it
    // says so instead of shipping X's initial contents.
    assert!(matches!(
        run(&lc, &[n], &MachineConfig::ipsc860(), true, 1_000_000),
        Err(dmc_core::CompileError::LocationCentricValues(a)) if a == "X"
    ));

    // §2.2.1: the owner-computes rule rejects replicated written data.
    let stmts = program.statements();
    let overlapped = DataDecomp::from_maps(
        "X",
        1,
        vec![dmc_decomp::DimMap::block(dmc_ir::Aff::var("a0"), 4).with_overlap(1, 1)],
    );
    assert!(owner_computes(&overlapped, &stmts[0]).is_err());
}

/// §2.2.3 — the sparse access pattern A[1000 i + j]: exactness means the
/// communication volume equals exactly the touched elements (no
/// factor-of-20 regular-section blowup).
#[test]
fn sec223_no_regular_section_blowup() {
    let program = dmc_ir::parse(
        "param N; array A[1000 * N + 101]; array B[N + 1][101];
         for i0 = 1 to N { for j0 = i0 to 100 { A[1000 * i0 + j0] = 1.0; } }
         for i = 1 to N { for j = i to 100 { B[i][j] = A[1000 * i + j]; } }",
    )
    .unwrap();
    let mut comps = BTreeMap::new();
    // Writers by i0 blocks; readers by j blocks — forces communication.
    comps.insert(0, CompDecomp::block_1d(0, "i0", 2));
    comps.insert(1, CompDecomp::block_1d(1, "j", 32));
    let input = CompileInput {
        program,
        comps,
        initial: HashMap::new(),
        grid: ProcGrid::line(4),
    };
    let compiled = compile(input, Options::full()).unwrap();
    let schedule = build_schedule(&compiled, &[4], false, 1_000_000).unwrap();
    let (_, _, words) = schedule.message_stats();
    // Touched elements that cross processors: at most the number of written
    // elements (sum over i0 of 101 - i0), never the 1000-wide row span.
    let touched: u64 = (1..=4u64).map(|i| 101 - i).sum();
    assert!(
        words <= touched,
        "words {words} must not blow up past {touched}"
    );
    assert!(words > 0);
}
