//! The planner on the compiled scan kernel: communication sets folded
//! onto physical receivers scan tight, and a dimension nothing bounds
//! fails with a typed error instead of spinning.

use std::collections::{BTreeMap, HashMap};

use dmc_core::{build_schedule, compile, CompileError, CompileInput, Options};
use dmc_decomp::{CompDecomp, DataDecomp, ProcGrid};
use dmc_polyhedra::{stats, Polyhedron};

/// Figure 11's LU kernel with the paper's cyclic decomposition.
fn lu_input(nproc: i128) -> CompileInput {
    let program = dmc_ir::parse(
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
    .expect("LU parses");
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

/// `fold_receivers` appends `pr == P·$pq + $pf` with `$pf` scanned before
/// `$pq`; the dense recursion looped `$pf` over all P values per element
/// and found `$pq` empty for P − 1 of them (23 range evaluations per
/// emitted point on LU at P = 16). The kernel solves the stride, so a
/// point costs at most one evaluation per level plus the shared outer
/// levels' few.
#[test]
fn folded_sets_scan_at_most_depth_plus_two_ranges_per_point() {
    let compiled = compile(lu_input(16), Options::full()).expect("compiles");
    let mut folded = 0;
    for cs in &compiled.comm {
        if !cs.steps.contains(&"fold_receivers") {
            continue;
        }
        let d = &cs.dims;
        let depth = [&d.s_iter, &d.ps, &d.pr, &d.r_iter, &d.arr, &d.aux]
            .iter()
            .map(|g| g.len() as u64)
            .sum::<u64>();
        let before = stats::snapshot();
        let elems = cs.enumerate(&[48], 1_000_000).unwrap().expect("in limit");
        let scan = stats::snapshot().since(&before);
        assert_eq!(scan.scan_points, elems.len() as u64);
        if elems.is_empty() {
            continue;
        }
        folded += 1;
        assert!(
            scan.scan_range_evals <= (depth + 2) * scan.scan_points,
            "{} range evaluations for {} points at depth {depth}",
            scan.scan_range_evals,
            scan.scan_points
        );
    }
    assert!(folded > 0, "LU on 16 processors folds its receivers");
}

/// A receiver dimension nothing constrains: `pipeline::walk` guarded with
/// an overflowing `hi - lo`, `ScanNest::rec` with nothing at all
/// (`for v in i128::MIN..=hi`). Both enumerations now report it.
#[test]
fn unconstrained_processor_dimension_is_unbounded_not_a_spin() {
    let mut compiled = compile(lu_input(4), Options::full()).expect("compiles");
    let cs = &mut compiled.comm[0];
    let pr = cs.dims.pr[0];
    let mut free = Polyhedron::universe(cs.poly.space().clone());
    for c in cs.poly.constraints().iter().filter(|c| c.coeff(pr) == 0) {
        free.add(c.clone());
    }
    cs.poly = free;
    for values in [false, true] {
        match build_schedule(&compiled, &[8], values, 1_000_000) {
            Err(CompileError::Unbounded(why)) => assert!(why.contains("unbounded"), "{why}"),
            other => panic!("expected CompileError::Unbounded, got {other:?}"),
        }
    }
}
