//! Single affine constraints: `e >= 0` or `e == 0`.

use std::fmt;

use crate::num;
use crate::{LinExpr, PolyError, Space};

/// The comparison form of a [`Constraint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// `expr == 0`.
    Eq,
    /// `expr >= 0`.
    Ge,
}

/// Result of normalizing a constraint.
// The payload variant is ~240 bytes because `LinExpr` carries its inline
// coefficient buffer by value. That is the point: `Normalized` is a
// short-lived by-value return that is destructured immediately, and
// boxing the constraint here would reintroduce exactly the per-row heap
// allocation the inline representation removes.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Normalized {
    /// The constraint is trivially satisfied (e.g. `3 >= 0`).
    Tautology,
    /// The constraint can never be satisfied by integers (e.g. `-1 >= 0`, or
    /// `2x + 1 == 0` whose gcd test fails).
    Contradiction,
    /// A nontrivial constraint, with coefficients divided by their gcd and
    /// (for `>=`) the constant tightened by floor division.
    Constraint(Constraint),
}

/// An affine constraint over a [`Space`].
///
/// # Examples
///
/// ```
/// use dmc_polyhedra::{Constraint, LinExpr, Space, DimKind};
///
/// let s = Space::from_dims([("i", DimKind::Index)]);
/// // i - 3 >= 0
/// let c = Constraint::ge(LinExpr::from_coeffs(vec![1], -3));
/// assert!(c.satisfied_by(&[5]).unwrap());
/// assert!(!c.satisfied_by(&[2]).unwrap());
/// assert_eq!(c.display(&s).to_string(), "i - 3 >= 0");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Constraint {
    expr: LinExpr,
    kind: ConstraintKind,
}

impl Constraint {
    /// Builds the constraint `expr >= 0`.
    pub fn ge(expr: LinExpr) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::Ge,
        }
    }

    /// Builds the constraint `expr == 0`.
    pub fn eq(expr: LinExpr) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::Eq,
        }
    }

    /// Builds `lhs == rhs` as `lhs - rhs == 0`.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    pub fn eq_pair(lhs: &LinExpr, rhs: &LinExpr) -> Result<Self, PolyError> {
        Ok(Constraint::eq(lhs.sub(rhs)?))
    }

    /// The constraint's affine expression.
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// The comparison kind.
    pub fn kind(&self) -> ConstraintKind {
        self.kind
    }

    /// Whether this is an equality constraint.
    pub fn is_eq(&self) -> bool {
        self.kind == ConstraintKind::Eq
    }

    /// Coefficient of dimension `dim` (shortcut for `expr().coeff(dim)`).
    pub fn coeff(&self, dim: usize) -> i128 {
        self.expr.coeff(dim)
    }

    /// Whether the constraint references dimension `dim`.
    pub fn involves(&self, dim: usize) -> bool {
        self.expr.coeff(dim) != 0
    }

    /// Evaluates the constraint at a point.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    pub fn satisfied_by(&self, point: &[i128]) -> Result<bool, PolyError> {
        let v = self.expr.eval(point)?;
        Ok(match self.kind {
            ConstraintKind::Eq => v == 0,
            ConstraintKind::Ge => v >= 0,
        })
    }

    /// Normalizes the constraint: divides by the gcd of the coefficients,
    /// tightening the constant for inequalities (`2x - 3 >= 0` becomes
    /// `x - 2 >= 0`), and applying the gcd divisibility test for equalities.
    pub fn normalize(&self) -> Normalized {
        let g = self.expr.content();
        if g == 0 {
            // Constant constraint.
            let c = self.expr.constant_term();
            let ok = match self.kind {
                ConstraintKind::Eq => c == 0,
                ConstraintKind::Ge => c >= 0,
            };
            return if ok {
                Normalized::Tautology
            } else {
                Normalized::Contradiction
            };
        }
        if g == 1 {
            return Normalized::Constraint(self.clone());
        }
        let mut coeffs: Vec<i128> = self.expr.coeffs().iter().map(|&c| c / g).collect();
        let c0 = self.expr.constant_term();
        match self.kind {
            ConstraintKind::Eq => {
                if c0 % g != 0 {
                    // gcd(a) does not divide the constant: no integer solutions.
                    return Normalized::Contradiction;
                }
                Normalized::Constraint(Constraint::eq(LinExpr::from_coeffs(
                    std::mem::take(&mut coeffs),
                    c0 / g,
                )))
            }
            ConstraintKind::Ge => Normalized::Constraint(Constraint::ge(LinExpr::from_coeffs(
                std::mem::take(&mut coeffs),
                num::div_floor(c0, g),
            ))),
        }
    }

    /// The integer negation of an inequality: `¬(e >= 0)` is `-e - 1 >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if called on an equality (the negation of an equality is a
    /// disjunction; see [`Polyhedron::subtract`](crate::Polyhedron::subtract)).
    pub fn negate_ge(&self) -> Constraint {
        assert!(
            !self.is_eq(),
            "cannot negate an equality into one constraint"
        );
        let mut e = self.expr.scaled(-1);
        e.set_constant(e.constant_term() - 1);
        Constraint::ge(e)
    }

    /// Substitutes dimension `dim` with an expression not referencing `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    pub fn substitute(&self, dim: usize, replacement: &LinExpr) -> Result<Constraint, PolyError> {
        Ok(Constraint {
            expr: self.expr.substitute(dim, replacement)?,
            kind: self.kind,
        })
    }

    /// Renders the constraint with dimension names from `space`.
    pub fn display<'a>(&'a self, space: &'a Space) -> DisplayConstraint<'a> {
        DisplayConstraint { con: self, space }
    }
}

/// Helper returned by [`Constraint::display`].
#[derive(Debug)]
pub struct DisplayConstraint<'a> {
    con: &'a Constraint,
    space: &'a Space,
}

impl fmt::Display for DisplayConstraint<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.con.kind {
            ConstraintKind::Eq => "==",
            ConstraintKind::Ge => ">=",
        };
        write!(f, "{} {} 0", self.con.expr.display(self.space), op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_tightens_inequalities() {
        // 2x - 3 >= 0  =>  x - 2 >= 0  (x >= 1.5 means x >= 2)
        let c = Constraint::ge(LinExpr::from_coeffs(vec![2], -3));
        match c.normalize() {
            Normalized::Constraint(n) => {
                assert_eq!(n.expr(), &LinExpr::from_coeffs(vec![1], -2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn normalize_gcd_test_on_equalities() {
        // 2x + 1 == 0 has no integer solution.
        let c = Constraint::eq(LinExpr::from_coeffs(vec![2], 1));
        assert_eq!(c.normalize(), Normalized::Contradiction);
        // 2x + 4 == 0  =>  x + 2 == 0.
        let c = Constraint::eq(LinExpr::from_coeffs(vec![2], 4));
        match c.normalize() {
            Normalized::Constraint(n) => {
                assert!(n.is_eq());
                assert_eq!(n.expr(), &LinExpr::from_coeffs(vec![1], 2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn normalize_constant_constraints() {
        assert_eq!(
            Constraint::ge(LinExpr::constant(1, 0)).normalize(),
            Normalized::Tautology
        );
        assert_eq!(
            Constraint::ge(LinExpr::constant(1, -1)).normalize(),
            Normalized::Contradiction
        );
        assert_eq!(
            Constraint::eq(LinExpr::constant(1, 0)).normalize(),
            Normalized::Tautology
        );
        assert_eq!(
            Constraint::eq(LinExpr::constant(1, 2)).normalize(),
            Normalized::Contradiction
        );
    }

    #[test]
    fn negation_is_strict_complement() {
        // x - 3 >= 0; negation: -x + 2 >= 0 i.e. x <= 2.
        let c = Constraint::ge(LinExpr::from_coeffs(vec![1], -3));
        let n = c.negate_ge();
        for x in -5..10 {
            let a = c.satisfied_by(&[x]).unwrap();
            let b = n.satisfied_by(&[x]).unwrap();
            assert!(a != b, "exactly one must hold at x={x}");
        }
    }

    #[test]
    fn eq_pair_is_lhs_minus_rhs() {
        let lhs = LinExpr::from_coeffs(vec![1, 0], 0);
        let rhs = LinExpr::from_coeffs(vec![0, 1], -3);
        let c = Constraint::eq_pair(&lhs, &rhs).unwrap();
        // i == j - 3  =>  i - j + 3 == 0
        assert_eq!(c.expr(), &LinExpr::from_coeffs(vec![1, -1], 3));
        assert!(c.is_eq());
    }
}
