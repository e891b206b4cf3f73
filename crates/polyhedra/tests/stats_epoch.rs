//! Epoch-based memo-cache invalidation: a feasibility-budget change that
//! takes effect on a thread invalidates that thread's warm cache.

use dmc_polyhedra::stats::{self, Tuning};
use dmc_polyhedra::{cache, Constraint, DimKind, LinExpr, Polyhedron, Space};

/// A small feasible system — the box 0 <= x, y, z <= 5 plus x + y + z = 7
/// and x <= y: nine constraints, enough to pass the memoization size gate.
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
    assert!(p.constraints().len() >= 8, "must be admitted to the caches");
    p
}

/// `(hits, misses)` the feasibility cache counted for one more query.
fn query(p: &Polyhedron) -> (u64, u64) {
    let before = stats::snapshot();
    p.integer_feasibility().expect("feasibility");
    let d = stats::snapshot().since(&before);
    (d.feas_cache_hits, d.feas_cache_misses)
}

/// A warm cache answers a repeated query out of memory; pushing a
/// different budget makes the same query miss again, popping it makes it
/// miss once more, and pushing the already-effective budget is free.
#[test]
fn budget_change_invalidates_warm_cache() {
    const HIT: (u64, u64) = (1, 0);
    const MISS: (u64, u64) = (0, 1);
    cache::clear_thread_caches();
    let p = sample();
    assert_eq!(query(&p), MISS, "cold query must miss");
    assert_eq!(query(&p), HIT, "repeated query must hit");

    let same = stats::push_thread_tuning(Tuning::default());
    assert_eq!(query(&p), HIT, "pushing the effective budget is free");
    drop(same);
    assert_eq!(query(&p), HIT, "and so is popping it");

    let other = stats::push_thread_tuning(Tuning {
        feasibility_budget: stats::DEFAULT_FEASIBILITY_BUDGET + 1,
    });
    assert_eq!(query(&p), MISS, "a budget change must invalidate");
    assert_eq!(query(&p), HIT, "then the new epoch warms up");
    drop(other);
    assert_eq!(query(&p), MISS, "the pop changes the budget back");
    assert_eq!(query(&p), HIT);
}
