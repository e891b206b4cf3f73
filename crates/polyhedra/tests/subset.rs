//! `Polyhedron::is_subset_of`: its edge cases, and what it costs — one
//! feasibility probe per row of the complement of each row of `other` that
//! `self` does not already hold.
//!
//! The `PolyStats` counters are per thread, so the deltas a test reads are
//! exactly its own.

use dmc_polyhedra::{stats, Constraint, DimKind, LinExpr, Polyhedron, Space};

fn space() -> Space {
    Space::from_dims([("x", DimKind::Index), ("y", DimKind::Index)])
}

fn ge(coeffs: [i128; 2], c: i128) -> Constraint {
    Constraint::ge(LinExpr::from_coeffs(coeffs.to_vec(), c))
}

fn eq(coeffs: [i128; 2], c: i128) -> Constraint {
    Constraint::eq(LinExpr::from_coeffs(coeffs.to_vec(), c))
}

fn poly(rows: &[Constraint]) -> Polyhedron {
    let mut p = Polyhedron::universe(space());
    p.add_all(rows.iter().cloned());
    p
}

/// The box `0 <= x, y <= 5`.
fn square() -> Vec<Constraint> {
    vec![ge([1, 0], 0), ge([-1, 0], 5), ge([0, 1], 0), ge([0, -1], 5)]
}

/// `is_subset_of`'s answer and the feasibility calls it made.
fn subset_with_calls(sub: &Polyhedron, sup: &Polyhedron) -> (bool, u64) {
    let before = stats::snapshot();
    let got = sub.is_subset_of(sup).expect("subset test");
    (got, stats::snapshot().since(&before).feasibility_calls)
}

#[test]
fn an_empty_self_is_a_subset_of_anything() {
    let empty = Polyhedron::empty(space());
    let point = poly(&[eq([1, 0], -1), eq([0, 1], -2)]);
    assert_eq!(subset_with_calls(&empty, &point), (true, 0));
    assert_eq!(
        subset_with_calls(&empty, &Polyhedron::empty(space())),
        (true, 0)
    );
    // Empty without a contradiction on record: 3 <= 2x <= 3 holds no
    // integer point, so no probe finds one.
    let gap = poly(&[ge([2, 0], -3), ge([-2, 0], 3)]);
    assert!(!gap.is_obviously_empty());
    assert!(gap.is_subset_of(&point).unwrap());
}

#[test]
fn an_empty_other_contains_only_infeasible_systems() {
    let empty = Polyhedron::empty(space());
    assert!(!poly(&square()).is_subset_of(&empty).unwrap());
    assert!(!Polyhedron::universe(space()).is_subset_of(&empty).unwrap());
    let gap = poly(&[ge([2, 0], -3), ge([-2, 0], 3)]);
    assert!(gap.is_subset_of(&empty).unwrap());
}

#[test]
fn a_row_already_in_self_costs_no_feasibility_call() {
    let mut rows = square();
    rows.push(ge([1, 1], -2)); // x + y >= 2
    let sub = poly(&rows);
    // Every row of `sup` is a row of `sub`.
    let sup = poly(&[rows[4].clone(), rows[0].clone(), rows[3].clone()]);
    assert_eq!(subset_with_calls(&sub, &sup), (true, 0));
    assert_eq!(subset_with_calls(&sub, &sub), (true, 0));
    // One row that is not: one probe, x + y <= 0, infeasible under `sub`.
    let implied = poly(&[rows[0].clone(), ge([1, 1], -1)]);
    assert_eq!(subset_with_calls(&sub, &implied), (true, 1));
    // The other way round the shared row x >= 0 is skipped, and the first
    // probe, x >= 6, holds (6, 0) and answers.
    assert_eq!(subset_with_calls(&implied, &sub), (false, 1));
}

#[test]
fn an_equality_row_costs_two_probes() {
    // x = 3 as two inequalities inside the box: neither x >= 4 nor x <= 2
    // has a point, so both probes run and the answer is `true`.
    let mut rows = square();
    rows.extend([ge([1, 0], -3), ge([-1, 0], 3)]);
    let pinned = poly(&rows);
    assert_eq!(
        subset_with_calls(&pinned, &poly(&[eq([1, 0], -3)])),
        (true, 2)
    );
    // x = 4 instead: the first probe, x >= 5, is empty; the second, x <= 3,
    // holds x = 3, so it answers `false` after two.
    assert_eq!(
        subset_with_calls(&pinned, &poly(&[eq([1, 0], -4)])),
        (false, 2)
    );
    // x = 2: the first probe, x >= 3, already holds x = 3.
    assert_eq!(
        subset_with_calls(&pinned, &poly(&[eq([1, 0], -2)])),
        (false, 1)
    );
}
