//! Symbolic affine expressions over named variables (loop indices and
//! symbolic constants), independent of any polyhedral [`Space`].
//!
//! The IR keeps bounds and subscripts in this named form; analyses lower
//! them into positional [`LinExpr`]s once the relevant space is fixed.

use std::collections::BTreeMap;
use std::fmt;

use dmc_polyhedra::{LinExpr, Space};

/// An affine expression `constant + Σ coeff(v) · v` over named variables.
///
/// # Examples
///
/// ```
/// use dmc_ir::Aff;
///
/// let e = Aff::var("i") + Aff::constant(3) - Aff::var("j") * 2;
/// assert_eq!(e.to_string(), "i - 2j + 3");
/// assert_eq!(e.coeff("j"), -2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Aff {
    terms: BTreeMap<String, i128>,
    constant: i128,
}

impl Aff {
    /// The constant expression `c`.
    pub fn constant(c: i128) -> Self {
        Aff {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// The variable expression `v`.
    pub fn var(v: impl Into<String>) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(v.into(), 1);
        Aff { terms, constant: 0 }
    }

    /// The expression `constant + Σ terms`, taken as given: every
    /// coefficient in `terms` must be nonzero, as every `Aff` holds them.
    pub(crate) fn from_terms(terms: BTreeMap<String, i128>, constant: i128) -> Self {
        Aff { terms, constant }
    }

    /// The zero expression.
    pub fn zero() -> Self {
        Aff::constant(0)
    }

    /// Coefficient of variable `v` (zero when absent).
    pub fn coeff(&self, v: &str) -> i128 {
        self.terms.get(v).copied().unwrap_or(0)
    }

    /// The constant term.
    pub fn constant_term(&self) -> i128 {
        self.constant
    }

    /// Iterator over `(variable, coefficient)` pairs with nonzero
    /// coefficients, in variable-name order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, i128)> {
        self.terms.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The set of variables mentioned, in name order.
    pub fn vars(&self) -> Vec<&str> {
        self.terms.keys().map(String::as_str).collect()
    }

    /// Whether the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Renames variable `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` already appears in the expression.
    pub fn rename(&self, from: &str, to: &str) -> Aff {
        let mut out = self.clone();
        if let Some(c) = out.terms.remove(from) {
            assert!(
                !out.terms.contains_key(to),
                "rename target {to:?} already present"
            );
            out.terms.insert(to.to_owned(), c);
        }
        out
    }

    /// Substitutes variable `v` by another affine expression.
    pub fn substitute(&self, v: &str, by: &Aff) -> Aff {
        let c = self.coeff(v);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.terms.remove(v);
        out + by.clone() * c
    }

    /// Evaluates the expression with the given variable bindings.
    ///
    /// # Panics
    ///
    /// Panics if a variable is unbound.
    pub fn eval(&self, env: &dyn Fn(&str) -> i128) -> i128 {
        let mut acc = self.constant;
        for (v, c) in &self.terms {
            acc += c * env(v);
        }
        acc
    }

    /// `self + rhs`, or `None` when a coefficient or the constant leaves
    /// `i128`.
    pub(crate) fn checked_add(self, rhs: &Aff) -> Option<Aff> {
        self.checked_merge(rhs, i128::checked_add)
    }

    /// `self - rhs`, or `None` when a coefficient or the constant leaves
    /// `i128`.
    pub(crate) fn checked_sub(self, rhs: &Aff) -> Option<Aff> {
        self.checked_merge(rhs, i128::checked_sub)
    }

    fn checked_merge(mut self, rhs: &Aff, op: fn(i128, i128) -> Option<i128>) -> Option<Aff> {
        for (v, &c) in &rhs.terms {
            let e = self.terms.entry(v.clone()).or_insert(0);
            *e = op(*e, c)?;
        }
        self.terms.retain(|_, c| *c != 0);
        self.constant = op(self.constant, rhs.constant)?;
        Some(self)
    }

    /// `k · self`, or `None` when a coefficient or the constant leaves
    /// `i128`.
    pub(crate) fn checked_mul(mut self, k: i128) -> Option<Aff> {
        if k == 0 {
            return Some(Aff::zero());
        }
        for c in self.terms.values_mut() {
            *c = c.checked_mul(k)?;
        }
        self.constant = self.constant.checked_mul(k)?;
        Some(self)
    }

    /// Lowers the expression into a positional [`LinExpr`] over `space`.
    ///
    /// # Panics
    ///
    /// Panics if a variable is missing from the space.
    pub fn to_linexpr(&self, space: &Space) -> LinExpr {
        let mut e = LinExpr::zero(space.len());
        e.set_constant(self.constant);
        for (v, c) in &self.terms {
            let d = space
                .index_of(v)
                .unwrap_or_else(|| panic!("variable {v:?} not in space {space}"));
            e.set_coeff(d, *c);
        }
        e
    }

    /// Lowers into `space` with a rename table applied first: occurrences of
    /// `renames[k].0` map to the space dimension named `renames[k].1`.
    ///
    /// # Panics
    ///
    /// Panics if a variable (after renaming) is missing from the space.
    pub fn to_linexpr_renamed(&self, space: &Space, renames: &[(&str, &str)]) -> LinExpr {
        let mut e = LinExpr::zero(space.len());
        e.set_constant(self.constant);
        for (v, c) in &self.terms {
            let name = renames
                .iter()
                .find(|(from, _)| from == v)
                .map(|(_, to)| *to)
                .unwrap_or(v.as_str());
            let d = space
                .index_of(name)
                .unwrap_or_else(|| panic!("variable {name:?} not in space {space}"));
            e.set_coeff(d, e.coeff(d) + *c);
        }
        e
    }
}

impl std::ops::Add for Aff {
    type Output = Aff;
    fn add(self, rhs: Aff) -> Aff {
        let mut out = self;
        for (v, c) in rhs.terms {
            let e = out.terms.entry(v).or_insert(0);
            *e += c;
            if *e == 0 {
                // keep the map clean
            }
        }
        out.terms.retain(|_, c| *c != 0);
        out.constant += rhs.constant;
        out
    }
}

impl std::ops::Sub for Aff {
    type Output = Aff;
    fn sub(self, rhs: Aff) -> Aff {
        self + rhs * -1
    }
}

impl std::ops::Mul<i128> for Aff {
    type Output = Aff;
    fn mul(self, k: i128) -> Aff {
        let mut out = self;
        if k == 0 {
            return Aff::zero();
        }
        for c in out.terms.values_mut() {
            *c *= k;
        }
        out.constant *= k;
        out
    }
}

impl std::ops::Neg for Aff {
    type Output = Aff;
    fn neg(self) -> Aff {
        self * -1
    }
}

impl From<i128> for Aff {
    fn from(c: i128) -> Self {
        Aff::constant(c)
    }
}

impl fmt::Display for Aff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (v, c) in &self.terms {
            if *c == 0 {
                continue;
            }
            if !wrote {
                match *c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    c => write!(f, "{c}{v}")?,
                }
            } else if *c > 0 {
                if *c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}{v}")?;
                }
            } else if *c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}{v}", -c)?;
            }
            wrote = true;
        }
        if !wrote {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_polyhedra::DimKind;

    #[test]
    #[allow(clippy::erasing_op)] // multiplying by zero IS the case under test
    fn arithmetic_and_cleanup() {
        let e = Aff::var("i") + Aff::var("j") - Aff::var("j");
        assert_eq!(e.coeff("j"), 0);
        assert_eq!(e.vars(), vec!["i"]);
        let z = Aff::var("i") * 0;
        assert!(z.is_constant());
    }

    #[test]
    fn eval_and_substitute() {
        let e = Aff::var("i") * 2 + Aff::constant(1);
        assert_eq!(e.eval(&|v| if v == "i" { 5 } else { 0 }), 11);
        let s = e.substitute("i", &(Aff::var("k") - Aff::constant(3)));
        assert_eq!(s, Aff::var("k") * 2 + Aff::constant(-5));
    }

    #[test]
    fn lower_to_space() {
        let sp = Space::from_dims([("i", DimKind::Index), ("N", DimKind::Param)]);
        let e = Aff::var("i") - Aff::var("N") + Aff::constant(1);
        let le = e.to_linexpr(&sp);
        assert_eq!(le, LinExpr::from_coeffs(vec![1, -1], 1));
    }

    #[test]
    fn lower_with_renames() {
        let sp = Space::from_dims([("iw", DimKind::Index), ("N", DimKind::Param)]);
        let e = Aff::var("i") + Aff::var("N");
        let le = e.to_linexpr_renamed(&sp, &[("i", "iw")]);
        assert_eq!(le, LinExpr::from_coeffs(vec![1, 1], 0));
    }

    #[test]
    #[should_panic(expected = "not in space")]
    fn lowering_unbound_var_panics() {
        let sp = Space::from_dims([("i", DimKind::Index)]);
        Aff::var("z").to_linexpr(&sp);
    }

    #[test]
    fn display() {
        assert_eq!((Aff::var("i") - Aff::constant(3)).to_string(), "i - 3");
        assert_eq!(Aff::zero().to_string(), "0");
        assert_eq!((Aff::var("a") * -1).to_string(), "-a");
    }
}
