//! Affine (linear + constant) expressions over a [`Space`].
//!
//! The coefficient row is stored inline for the spaces this compiler
//! actually works in (the paper's systems are 2–6 dimensions; with
//! processor, parameter and auxiliary dimensions they stay comfortably
//! under [`INLINE_DIMS`]) and spills to a heap `Vec` only above that
//! width. The hot loops of Fourier–Motzkin elimination therefore combine
//! rows without touching the allocator; the `stats` counters
//! (`allocs`, `inline_spills`) make the split observable.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::ledger;
use crate::num;
use crate::{PolyError, Space};

/// Coefficient rows at most this wide live inline in the expression
/// (no heap allocation); wider rows spill to a `Vec`.
pub const INLINE_DIMS: usize = 12;

/// The coefficient storage: a fixed inline buffer for narrow rows, a heap
/// vector past [`INLINE_DIMS`]. The representation is canonical — a row of
/// length `<= INLINE_DIMS` is always `Inline` — so equality and hashing
/// over the logical slice agree with structural equality.
#[derive(Debug)]
enum Repr {
    Inline { len: u8, buf: [i128; INLINE_DIMS] },
    Heap(Vec<i128>),
}

impl Repr {
    fn zeros(n: usize) -> Repr {
        if n <= INLINE_DIMS {
            Repr::Inline {
                len: n as u8,
                buf: [0; INLINE_DIMS],
            }
        } else {
            ledger::count(|s| s.allocs += 1);
            Repr::Heap(vec![0; n])
        }
    }

    fn as_slice(&self) -> &[i128] {
        match self {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [i128] {
        match self {
            Repr::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl Clone for Repr {
    fn clone(&self) -> Repr {
        match self {
            Repr::Inline { len, buf } => Repr::Inline {
                len: *len,
                buf: *buf,
            },
            Repr::Heap(v) => {
                ledger::count(|s| s.allocs += 1);
                Repr::Heap(v.clone())
            }
        }
    }
}

/// An affine expression `c0 + Σ coeffs[k] * dim_k` over a space with a fixed
/// number of dimensions.
///
/// The expression does not own its space; operations on expressions from
/// different spaces are caught by length assertions.
///
/// # Examples
///
/// ```
/// use dmc_polyhedra::{LinExpr, Space, DimKind};
///
/// let s = Space::from_dims([("i", DimKind::Index), ("N", DimKind::Param)]);
/// // 2*i - N + 3
/// let e = LinExpr::from_coeffs(vec![2, -1], 3);
/// assert_eq!(e.eval(&[5, 4]).unwrap(), 2 * 5 - 4 + 3);
/// assert_eq!(e.display(&s).to_string(), "2i - N + 3");
/// ```
#[derive(Clone, Debug)]
pub struct LinExpr {
    repr: Repr,
    constant: i128,
}

/// Equality is over the logical coefficient slice plus the constant; the
/// canonical representation makes this agree with structural equality.
impl PartialEq for LinExpr {
    fn eq(&self, other: &Self) -> bool {
        self.constant == other.constant && self.coeffs() == other.coeffs()
    }
}
impl Eq for LinExpr {}

/// Hashes exactly what `Eq` compares: the coefficient slice (length, then
/// elements — the standard slice hash) and the constant.
impl Hash for LinExpr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.coeffs().hash(state);
        self.constant.hash(state);
    }
}

impl LinExpr {
    /// The zero expression over `n` dimensions.
    pub fn zero(n: usize) -> Self {
        LinExpr {
            repr: Repr::zeros(n),
            constant: 0,
        }
    }

    /// A constant expression over `n` dimensions.
    pub fn constant(n: usize, c: i128) -> Self {
        LinExpr {
            repr: Repr::zeros(n),
            constant: c,
        }
    }

    /// The expression `1 * dim` over `n` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= n`.
    pub fn var(n: usize, dim: usize) -> Self {
        let mut e = LinExpr::zero(n);
        e.set_coeff(dim, 1);
        e
    }

    /// Builds an expression from explicit coefficients and a constant.
    /// Narrow rows are copied into the inline buffer (the argument vector
    /// is dropped); wide rows keep the vector.
    pub fn from_coeffs(coeffs: Vec<i128>, constant: i128) -> Self {
        let repr = if coeffs.len() <= INLINE_DIMS {
            let mut buf = [0; INLINE_DIMS];
            buf[..coeffs.len()].copy_from_slice(&coeffs);
            Repr::Inline {
                len: coeffs.len() as u8,
                buf,
            }
        } else {
            Repr::Heap(coeffs)
        };
        LinExpr { repr, constant }
    }

    /// Builds an expression from a coefficient slice without allocating
    /// for narrow rows.
    pub fn from_slice(coeffs: &[i128], constant: i128) -> Self {
        let mut e = LinExpr::zero(coeffs.len());
        e.repr.as_mut_slice().copy_from_slice(coeffs);
        e.constant = constant;
        e
    }

    /// Number of dimensions this expression ranges over.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Heap(v) => v.len(),
        }
    }

    /// Whether the expression has zero dimensions (it may still be a nonzero
    /// constant).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The coefficient of dimension `dim`.
    pub fn coeff(&self, dim: usize) -> i128 {
        self.coeffs()[dim]
    }

    /// Sets the coefficient of dimension `dim`.
    pub fn set_coeff(&mut self, dim: usize, v: i128) {
        self.repr.as_mut_slice()[dim] = v;
    }

    /// The constant term.
    pub fn constant_term(&self) -> i128 {
        self.constant
    }

    /// Sets the constant term.
    pub fn set_constant(&mut self, c: i128) {
        self.constant = c;
    }

    /// All coefficients, in dimension order.
    pub fn coeffs(&self) -> &[i128] {
        self.repr.as_slice()
    }

    /// True if every coefficient is zero (a constant expression).
    pub fn is_constant(&self) -> bool {
        self.coeffs().iter().all(|&c| c == 0)
    }

    /// Sum of two expressions over the same space.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on coefficient overflow.
    ///
    /// # Panics
    ///
    /// Panics if the expressions have different lengths.
    pub fn add(&self, other: &LinExpr) -> Result<LinExpr, PolyError> {
        assert_eq!(self.len(), other.len(), "space mismatch");
        let mut out = LinExpr::zero(self.len());
        let dst = out.repr.as_mut_slice();
        for (d, (a, b)) in self.coeffs().iter().zip(other.coeffs()).enumerate() {
            dst[d] = num::add(*a, *b)?;
        }
        out.constant = num::add(self.constant, other.constant)?;
        Ok(out)
    }

    /// Difference of two expressions over the same space.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on coefficient overflow.
    pub fn sub(&self, other: &LinExpr) -> Result<LinExpr, PolyError> {
        self.combine(1, other, -1)
    }

    /// The expression multiplied by scalar `k`.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on coefficient overflow.
    pub fn scale(&self, k: i128) -> Result<LinExpr, PolyError> {
        let mut out = LinExpr::zero(self.len());
        let dst = out.repr.as_mut_slice();
        for (d, &a) in self.coeffs().iter().enumerate() {
            dst[d] = num::mul(a, k)?;
        }
        out.constant = num::mul(self.constant, k)?;
        Ok(out)
    }

    /// The fused row combination `a·self + b·other` in one pass — the
    /// Fourier–Motzkin inner loop (`c·lower + b·upper`) without the two
    /// intermediate expressions `scale` + `add` would build.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on coefficient overflow.
    ///
    /// # Panics
    ///
    /// Panics if the expressions have different lengths.
    pub fn combine(&self, a: i128, other: &LinExpr, b: i128) -> Result<LinExpr, PolyError> {
        assert_eq!(self.len(), other.len(), "space mismatch");
        let mut out = LinExpr::zero(self.len());
        let dst = out.repr.as_mut_slice();
        for (d, (x, y)) in self.coeffs().iter().zip(other.coeffs()).enumerate() {
            dst[d] = num::add(num::mul(*x, a)?, num::mul(*y, b)?)?;
        }
        out.constant = num::add(num::mul(self.constant, a)?, num::mul(other.constant, b)?)?;
        Ok(out)
    }

    /// Infallible scaling — panics on overflow. Convenience for tests and
    /// small literal computations.
    ///
    /// # Panics
    ///
    /// Panics on coefficient overflow.
    pub fn scaled(&self, k: i128) -> LinExpr {
        self.scale(k).expect("coefficient overflow")
    }

    /// Evaluates the expression at the given point.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.len()`.
    pub fn eval(&self, point: &[i128]) -> Result<i128, PolyError> {
        assert_eq!(point.len(), self.len(), "point dimension mismatch");
        let mut acc = self.constant;
        for (c, x) in self.coeffs().iter().zip(point) {
            acc = num::add(acc, num::mul(*c, *x)?)?;
        }
        Ok(acc)
    }

    /// Substitutes dimension `dim` with `replacement` (whose coefficient on
    /// `dim` must be zero), i.e. computes `self[dim := replacement]`.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on overflow.
    ///
    /// # Panics
    ///
    /// Panics if `replacement` itself references `dim` or the lengths differ.
    pub fn substitute(&self, dim: usize, replacement: &LinExpr) -> Result<LinExpr, PolyError> {
        assert_eq!(self.len(), replacement.len(), "space mismatch");
        assert_eq!(
            replacement.coeff(dim),
            0,
            "replacement references substituted dim"
        );
        let k = self.coeff(dim);
        if k == 0 {
            return Ok(self.clone());
        }
        let mut out = self.combine(1, replacement, k)?;
        out.set_coeff(dim, 0);
        Ok(out)
    }

    /// Extends the expression with `extra` zero-coefficient dimensions at the
    /// end. Counts an `inline_spills` when the widened row no longer fits
    /// the inline buffer.
    pub fn extend(&self, extra: usize) -> LinExpr {
        let n = self.len() + extra;
        if matches!(self.repr, Repr::Inline { .. }) && n > INLINE_DIMS {
            ledger::count(|s| s.inline_spills += 1);
        }
        let mut out = LinExpr::zero(n);
        out.repr.as_mut_slice()[..self.len()].copy_from_slice(self.coeffs());
        out.constant = self.constant;
        out
    }

    /// Reorders/embeds the expression into a new space. `map[k]` gives the
    /// position in the new space of old dimension `k`.
    ///
    /// # Panics
    ///
    /// Panics if `map` is shorter than the expression or maps out of bounds.
    pub fn remap(&self, new_len: usize, map: &[usize]) -> LinExpr {
        assert!(map.len() >= self.len(), "remap table too short");
        if matches!(self.repr, Repr::Inline { .. }) && new_len > INLINE_DIMS {
            ledger::count(|s| s.inline_spills += 1);
        }
        let mut out = LinExpr::zero(new_len);
        let dst = out.repr.as_mut_slice();
        for (k, &c) in self.coeffs().iter().enumerate() {
            if c != 0 {
                dst[map[k]] = c;
            }
        }
        out.constant = self.constant;
        out
    }

    /// Gcd of all coefficients (not the constant); 0 for constant expressions.
    pub fn content(&self) -> i128 {
        self.coeffs().iter().fold(0, |g, &c| num::gcd(g, c))
    }

    /// Renders the expression with dimension names from `space`.
    pub fn display<'a>(&'a self, space: &'a Space) -> DisplayLinExpr<'a> {
        DisplayLinExpr { expr: self, space }
    }
}

/// Helper returned by [`LinExpr::display`].
#[derive(Debug)]
pub struct DisplayLinExpr<'a> {
    expr: &'a LinExpr,
    space: &'a Space,
}

impl fmt::Display for DisplayLinExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (k, &c) in self.expr.coeffs().iter().enumerate() {
            if c == 0 {
                continue;
            }
            let name = self.space.dim(k).name();
            if !wrote {
                if c == 1 {
                    write!(f, "{name}")?;
                } else if c == -1 {
                    write!(f, "-{name}")?;
                } else {
                    write!(f, "{c}{name}")?;
                }
            } else if c > 0 {
                if c == 1 {
                    write!(f, " + {name}")?;
                } else {
                    write!(f, " + {c}{name}")?;
                }
            } else if c == -1 {
                write!(f, " - {name}")?;
            } else {
                write!(f, " - {}{name}", -c)?;
            }
            wrote = true;
        }
        let c0 = self.expr.constant;
        if !wrote {
            write!(f, "{c0}")?;
        } else if c0 > 0 {
            write!(f, " + {c0}")?;
        } else if c0 < 0 {
            write!(f, " - {}", -c0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DimKind;

    fn space2() -> Space {
        Space::from_dims([("i", DimKind::Index), ("j", DimKind::Index)])
    }

    #[test]
    fn construction_and_eval() {
        let e = LinExpr::from_coeffs(vec![2, -3], 5);
        assert_eq!(e.eval(&[1, 1]).unwrap(), 4);
        assert_eq!(e.eval(&[0, 0]).unwrap(), 5);
        assert!(!e.is_constant());
        assert!(LinExpr::constant(2, 7).is_constant());
    }

    #[test]
    fn arithmetic() {
        let a = LinExpr::from_coeffs(vec![1, 2], 3);
        let b = LinExpr::from_coeffs(vec![4, -2], 1);
        assert_eq!(a.add(&b).unwrap(), LinExpr::from_coeffs(vec![5, 0], 4));
        assert_eq!(a.sub(&b).unwrap(), LinExpr::from_coeffs(vec![-3, 4], 2));
        assert_eq!(a.scale(-2).unwrap(), LinExpr::from_coeffs(vec![-2, -4], -6));
        assert_eq!(
            a.combine(3, &b, -1).unwrap(),
            LinExpr::from_coeffs(vec![-1, 8], 8)
        );
    }

    #[test]
    fn substitution() {
        // e = 2i + j + 1; substitute i := j - 3  =>  2j - 6 + j + 1 = 3j - 5
        let e = LinExpr::from_coeffs(vec![2, 1], 1);
        let r = LinExpr::from_coeffs(vec![0, 1], -3);
        let out = e.substitute(0, &r).unwrap();
        assert_eq!(out, LinExpr::from_coeffs(vec![0, 3], -5));
    }

    #[test]
    #[should_panic(expected = "replacement references")]
    fn substitution_self_reference_panics() {
        let e = LinExpr::var(2, 0);
        let r = LinExpr::var(2, 0);
        let _ = e.substitute(0, &r);
    }

    #[test]
    fn remap_and_extend() {
        let e = LinExpr::from_coeffs(vec![1, 2], 7);
        let big = e.remap(4, &[3, 0]);
        assert_eq!(big, LinExpr::from_coeffs(vec![2, 0, 0, 1], 7));
        assert_eq!(e.extend(2), LinExpr::from_coeffs(vec![1, 2, 0, 0], 7));
    }

    #[test]
    fn display_formatting() {
        let s = space2();
        assert_eq!(
            LinExpr::from_coeffs(vec![1, -1], 0).display(&s).to_string(),
            "i - j"
        );
        assert_eq!(
            LinExpr::from_coeffs(vec![-2, 0], 3).display(&s).to_string(),
            "-2i + 3"
        );
        assert_eq!(LinExpr::constant(2, 0).display(&s).to_string(), "0");
        assert_eq!(LinExpr::constant(2, -4).display(&s).to_string(), "-4");
    }

    #[test]
    fn content_gcd() {
        assert_eq!(LinExpr::from_coeffs(vec![4, -6], 3).content(), 2);
        assert_eq!(LinExpr::constant(2, 3).content(), 0);
    }

    /// The same arithmetic must agree bit-for-bit across the inline and
    /// spilled representations (the only difference is where the row
    /// lives); `from_slice` round-trips both.
    #[test]
    fn inline_and_heap_agree() {
        let narrow: Vec<i128> = (0..INLINE_DIMS as i128).collect();
        let wide: Vec<i128> = (0..INLINE_DIMS as i128 + 5).collect();
        for base in [narrow, wide] {
            let e = LinExpr::from_coeffs(base.clone(), 9);
            assert_eq!(e.len(), base.len());
            assert_eq!(e.coeffs(), &base[..]);
            assert_eq!(LinExpr::from_slice(&base, 9), e);
            let doubled = e.add(&e).unwrap();
            assert_eq!(doubled, e.scale(2).unwrap());
            assert_eq!(e.combine(2, &e, -1).unwrap(), e);
            let pt: Vec<i128> = base.iter().map(|&c| c % 3 - 1).collect();
            assert_eq!(doubled.eval(&pt).unwrap(), 2 * e.eval(&pt).unwrap(),);
        }
    }

    /// Growing an inline row past the buffer spills to the heap (counted)
    /// and keeps values; shrinking a spilled row back under the threshold
    /// re-canonicalizes to inline so equality/hash stay representation-free.
    #[test]
    fn spill_and_shrink_roundtrip() {
        let before = crate::stats::snapshot();
        let e = LinExpr::from_coeffs((0..INLINE_DIMS as i128).collect(), 1);
        let wide = e.extend(3);
        assert_eq!(wide.len(), INLINE_DIMS + 3);
        assert_eq!(wide.coeff(INLINE_DIMS - 1), INLINE_DIMS as i128 - 1);
        assert_eq!(wide.coeff(INLINE_DIMS + 2), 0);
        let d = crate::stats::snapshot().since(&before);
        assert!(
            d.inline_spills >= 1,
            "extend past the buffer must count a spill"
        );
        assert!(d.allocs >= 1, "the spilled row lives on the heap");

        let back = LinExpr::from_slice(&wide.coeffs()[..INLINE_DIMS], wide.constant_term());
        assert_eq!(back, e, "slice equality is representation-agnostic");
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |x: &LinExpr| {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&back), h(&e));
    }

    /// Overflow edges behave identically inline and spilled: checked
    /// arithmetic errors out rather than wrapping.
    #[test]
    fn overflow_edges_inline_and_spilled() {
        for n in [2usize, INLINE_DIMS + 2] {
            let mut a = LinExpr::zero(n);
            a.set_coeff(0, i128::MAX);
            assert!(a.add(&a).is_err(), "n={n}: add overflow");
            assert!(a.scale(2).is_err(), "n={n}: scale overflow");
            assert!(a.combine(2, &a, 0).is_err(), "n={n}: combine overflow");
            assert!(a.eval(&vec![2; n]).is_err(), "n={n}: eval overflow");
            let ok = a.combine(1, &a, 0).unwrap();
            assert_eq!(ok.coeff(0), i128::MAX, "n={n}: lossless path");
        }
    }
}
