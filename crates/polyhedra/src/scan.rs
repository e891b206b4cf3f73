//! Scanning a polyhedron with a loop nest (paper §5.2, after Ancourt &
//! Irigoin).
//!
//! Given a system of linear inequalities and a variable order, this module
//! derives, for each variable, the integer lower and upper bounds of the loop
//! that enumerates all solutions in lexicographic order. Bounds for the
//! `k`-th variable only reference earlier variables and un-scanned
//! dimensions (parameters), obtained by projecting the deeper variables away
//! with Fourier–Motzkin elimination.
//!
//! [`ScanNest::compile`] turns a nest into the [`ScanKernel`] the planner
//! runs point by point, in `i64` arithmetic whose range it proves first.

#![warn(clippy::cast_possible_truncation)]

use std::ops::ControlFlow;

use crate::cache::{self, Query};
use crate::codec::{CodecError, Dec, Enc};
use crate::{ledger, num};
use crate::{LinExpr, PolyError, Polyhedron, Space};

/// One bound of a scanned loop: `ceil(expr / divisor)` for lower bounds,
/// `floor(expr / divisor)` for upper bounds. `divisor >= 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bound {
    /// Affine numerator over the polyhedron's space (zero coefficients on
    /// the scanned variable and on deeper variables).
    pub expr: LinExpr,
    /// Positive divisor.
    pub divisor: i128,
}

/// Bounds of one scanned variable.
#[derive(Clone, Debug)]
pub struct VarBounds {
    /// The dimension being scanned.
    pub dim: usize,
    /// Lower bounds; the loop starts at the max of their ceilings.
    pub lowers: Vec<Bound>,
    /// Upper bounds; the loop ends at the min of their floors.
    pub uppers: Vec<Bound>,
    /// When the variable is pinned by an equality `dim == expr` (unit
    /// coefficient), the paper's §5.2 extension replaces the loop by an
    /// assignment; this field carries that expression.
    pub exact: Option<LinExpr>,
}

/// The scan structure of a polyhedron for a fixed variable order: one
/// [`VarBounds`] per scanned variable, outermost first.
#[derive(Clone, Debug)]
pub struct ScanNest {
    /// Per-variable bounds, in `order` (outermost first).
    pub vars: Vec<VarBounds>,
    /// Constraints not involving any scanned dimension: the guard the loop
    /// nest must be wrapped in (conditions on parameters/processor ids).
    pub guard: Polyhedron,
}

impl ScanNest {
    /// Writes the nest as its memo value: per level the dimension, the
    /// lower and upper bounds (row, divisor) and the optional exact value,
    /// then the guard's rows.
    fn encode(&self, e: &mut Enc) {
        e.usize(self.vars.len());
        for vb in &self.vars {
            e.usize(vb.dim);
            for side in [&vb.lowers, &vb.uppers] {
                e.usize(side.len());
                for b in side {
                    e.row(&b.expr, false);
                    e.i128(b.divisor);
                }
            }
            e.bool(vb.exact.is_some());
            if let Some(x) = &vb.exact {
                e.row(x, false);
            }
        }
        e.rows(self.guard.constraints(), self.guard.is_obviously_empty());
    }

    /// Reads back what [`ScanNest::encode`] wrote, over `space`.
    fn decode(d: &mut Dec<'_>, space: &Space) -> Result<ScanNest, CodecError> {
        let dims = space.len();
        let bounds = |d: &mut Dec<'_>| -> Result<Vec<Bound>, CodecError> {
            (0..d.usize()?)
                .map(|_| {
                    Ok(Bound {
                        expr: d.row(dims)?.0,
                        divisor: d.i128()?,
                    })
                })
                .collect()
        };
        let vars = (0..d.usize()?)
            .map(|_| {
                Ok(VarBounds {
                    dim: d.usize()?,
                    lowers: bounds(d)?,
                    uppers: bounds(d)?,
                    exact: if d.bool()? {
                        Some(d.row(dims)?.0)
                    } else {
                        None
                    },
                })
            })
            .collect::<Result<_, CodecError>>()?;
        let (cons, contradiction) = d.rows(dims)?;
        Ok(ScanNest {
            vars,
            guard: Polyhedron::from_parts(space.clone(), cons, contradiction),
        })
    }

    /// Enumerates all solutions with concrete values for the un-scanned
    /// dimensions given in `fixed` (entries at scanned positions are
    /// ignored/overwritten), at most `limit` of them. Results are full
    /// points in the original space, in lexicographic scan order.
    ///
    /// Collects [`ScanKernel::for_each`] into a vector, for tests, figures
    /// and examples; the planner visits points in place.
    ///
    /// # Errors
    ///
    /// As [`ScanKernel::for_each`].
    pub fn enumerate(&self, fixed: &[i128], limit: usize) -> Result<Vec<Vec<i128>>, PolyError> {
        let mut out = Vec::new();
        self.compile(fixed)?.for_each(self.vars.len(), |point| {
            if out.len() < limit {
                out.push(point.iter().map(|&v| i128::from(v)).collect());
            }
            Ok::<_, PolyError>(if out.len() < limit {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            })
        })?;
        Ok(out)
    }

    /// The recursive enumerator [`ScanKernel`] replaced, kept as the
    /// differential oracle of its tests: one loop per level straight from
    /// the [`VarBounds`], misses and all, every bound a full-width checked
    /// evaluation. Same points, same order as [`ScanNest::enumerate`].
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Unbounded`] when a level that is reached has no
    /// lower or no upper bound, and [`PolyError::Overflow`] on overflow.
    #[doc(hidden)]
    pub fn enumerate_dense(&self, fixed: &[i128]) -> Result<Vec<Vec<i128>>, PolyError> {
        let mut out = Vec::new();
        if self.guard.contains(fixed)? {
            self.dense_rec(0, &mut fixed.to_vec(), &mut out)?;
        }
        Ok(out)
    }

    fn dense_rec(
        &self,
        depth: usize,
        point: &mut [i128],
        out: &mut Vec<Vec<i128>>,
    ) -> Result<(), PolyError> {
        let Some(vb) = self.vars.get(depth) else {
            out.push(point.to_vec());
            return Ok(());
        };
        let (lo, hi) = match &vb.exact {
            Some(e) => {
                let v = e.eval(point)?;
                (v, v)
            }
            None => {
                let mut lo = None;
                for b in &vb.lowers {
                    let v = num::div_ceil(b.expr.eval(point)?, b.divisor);
                    lo = Some(lo.map_or(v, |l: i128| l.max(v)));
                }
                let mut hi = None;
                for b in &vb.uppers {
                    let v = num::div_floor(b.expr.eval(point)?, b.divisor);
                    hi = Some(hi.map_or(v, |h: i128| h.min(v)));
                }
                lo.zip(hi).ok_or(PolyError::Unbounded(vb.dim))?
            }
        };
        for v in lo..=hi {
            point[vb.dim] = v;
            self.dense_rec(depth + 1, point, out)?;
        }
        Ok(())
    }

    /// Compiles the nest for concrete values `fixed` of the un-scanned
    /// dimensions: every bound becomes a sparse list of `(dimension,
    /// coefficient)` terms over the outer scanned dimensions with the fixed
    /// part folded into its constant, the guard is decided once, and a
    /// level pinned by a non-unit equality `d·x == e` hands the congruence
    /// `e ≡ 0 (mod d)` to the innermost outer level `e` mentions, which
    /// steps by the solved stride instead of looping over misses, and is
    /// itself assigned `x = e / d` (§5.2's degenerate loop, generalized to
    /// strides).
    ///
    /// The kernel computes in plain `i64`. Before narrowing the nest to it,
    /// `compile` proves by signed interval arithmetic, outwards from
    /// `fixed`, that every value the kernel can compute — each bound
    /// numerator and its partial sums, each stride product, and each loop
    /// value plus one step — lies strictly inside ±2^62. A level without a lower or
    /// an upper bound ends the proof: reaching it is
    /// [`PolyError::Unbounded`], so nothing deeper is ever computed.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when the proof fails or a value does
    /// not fit in `i64`.
    pub fn compile(&self, fixed: &[i128]) -> Result<ScanKernel, PolyError> {
        let mut level_of: Vec<Option<usize>> = vec![None; fixed.len()];
        let mut levels: Vec<Level> = Vec::with_capacity(self.vars.len());
        for (k, vb) in self.vars.iter().enumerate() {
            let sparse = |e: &LinExpr| -> Result<Affine, PolyError> {
                let (mut terms, mut constant) = (Vec::new(), e.constant_term());
                for (d, &c) in e.coeffs().iter().enumerate().filter(|(_, &c)| c != 0) {
                    match level_of[d] {
                        Some(_) => terms.push((d, narrow(c)?)),
                        None => constant = num::add(constant, num::mul(c, fixed[d])?)?,
                    }
                }
                let constant = narrow(constant)?;
                Ok(Affine { terms, constant })
            };
            // Bounds that share a divisor share one division: rounding is
            // monotone, so the tightest quotient is the quotient of the
            // tightest numerator.
            let side = |bs: &[Bound]| -> Result<Vec<(i64, Vec<Affine>)>, PolyError> {
                let mut by_divisor: Vec<(i64, Vec<Affine>)> = Vec::new();
                for b in bs {
                    let (e, divisor) = (sparse(&b.expr)?, narrow(b.divisor)?);
                    match by_divisor.iter_mut().find(|(d, _)| *d == divisor) {
                        Some((_, es)) => es.push(e),
                        None => by_divisor.push((divisor, vec![e])),
                    }
                }
                Ok(by_divisor)
            };
            let mut level = Level {
                dim: vb.dim,
                exact: vb.exact.as_ref().map(&sparse).transpose()?.map(|e| (e, 1)),
                lowers: side(&vb.lowers)?,
                uppers: side(&vb.uppers)?,
                stride: None,
            };
            // A bound that is both a ceiling lower and a floor upper bound
            // is a non-unit equality `divisor·x == expr`.
            for b in &vb.lowers {
                if b.divisor == 1 || !vb.uppers.contains(b) {
                    continue;
                }
                let mut rest = sparse(&b.expr)?;
                let deepest = rest.terms.iter().filter_map(|&(d, _)| level_of[d]).max();
                let Some(at) = deepest.filter(|&at| levels[at].stride.is_none()) else {
                    continue;
                };
                // With the congruence on an outer level, `expr / divisor`
                // is an integer wherever this level is reached, and the
                // outer point lies in the rational projection, so that
                // quotient meets every bound: one evaluation and one exact
                // division, as a unit equality is one evaluation.
                if level.exact.is_none() {
                    level.exact = Some((rest.clone(), narrow(b.divisor)?));
                }
                let pos = rest
                    .terms
                    .iter()
                    .position(|&(d, _)| d == levels[at].dim)
                    .expect("the deepest term's dimension");
                let coeff = i128::from(rest.terms.remove(pos).1);
                let g = num::gcd(coeff, b.divisor);
                let modulus = b.divisor / g;
                levels[at].stride = Some(Stride {
                    rest,
                    gcd: narrow(g)?,
                    modulus: narrow(modulus)?,
                    inverse: narrow(num::mod_inverse(coeff / g, modulus))?,
                });
            }
            levels.push(level);
            level_of[vb.dim] = Some(k);
        }
        prove(&levels, fixed.len())?;
        let start = fixed
            .iter()
            .zip(&level_of)
            .map(|(&v, level)| if level.is_some() { Ok(0) } else { narrow(v) })
            .collect::<Result<_, _>>()?;
        Ok(ScanKernel {
            levels,
            start,
            guard: self.guard.contains(fixed)?,
        })
    }
}

/// The widest range one level may span before it counts as unbounded.
const MAX_LEVEL_SPAN: i64 = 4_000_000;

/// The magnitude no value a compiled kernel computes reaches: the sum or
/// difference of two such values, plus one, still fits in `i64`.
const RANGE: i128 = 1 << 62;

/// `constant + Σ coeff·point[dim]` over outer scanned dimensions.
#[derive(Clone, Debug)]
struct Affine {
    terms: Vec<(usize, i64)>,
    constant: i64,
}

impl Affine {
    fn eval(&self, point: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(d, c) in &self.terms {
            acc += c * point[d];
        }
        acc
    }
}

/// The congruence `coeff·x + rest ≡ 0 (mod gcd·modulus)` a deeper non-unit
/// equality imposes on this level's variable `x`, pre-solved: it holds iff
/// `gcd | rest` and `x ≡ −(rest/gcd)·inverse (mod modulus)`.
#[derive(Clone, Debug)]
struct Stride {
    rest: Affine,
    gcd: i64,
    modulus: i64,
    inverse: i64,
}

#[derive(Clone, Debug)]
struct Level {
    dim: usize,
    /// `x == expr / divisor` exactly: a unit equality (divisor 1), or a
    /// non-unit one whose congruence an outer level's stride enforces.
    exact: Option<(Affine, i64)>,
    /// The bounds of each side, by divisor.
    lowers: Vec<(i64, Vec<Affine>)>,
    uppers: Vec<(i64, Vec<Affine>)>,
    stride: Option<Stride>,
}

/// `⌊a / d⌋` for `d >= 1`.
fn div_floor(a: i64, d: i64) -> i64 {
    if d == 1 {
        a
    } else {
        a.div_euclid(d)
    }
}

/// `⌈a / d⌉` for `d >= 1`.
fn div_ceil(a: i64, d: i64) -> i64 {
    if d == 1 {
        a
    } else {
        -(-a).div_euclid(d)
    }
}

impl Level {
    /// Whether the level takes exactly one value wherever it is reached: an
    /// exact equality, and no congruence from a deeper level to filter it.
    fn pinned(&self) -> bool {
        self.exact.is_some() && self.stride.is_none()
    }

    /// Whether what the kernel evaluates for this level — its exact value
    /// or its bounds, and its stride's rest — reads any of `dims`.
    fn reads(&self, dims: &[usize]) -> bool {
        let mut exprs: Vec<&Affine> = match &self.exact {
            Some((e, _)) => vec![e],
            None => self
                .lowers
                .iter()
                .chain(&self.uppers)
                .flat_map(|(_, es)| es)
                .collect(),
        };
        exprs.extend(self.stride.as_ref().map(|s| &s.rest));
        exprs
            .iter()
            .any(|e| e.terms.iter().any(|(d, _)| dims.contains(d)))
    }

    /// The value of an exact level at a point fixing the outer levels.
    fn exact_value(&self, point: &[i64]) -> Option<i64> {
        let (e, divisor) = self.exact.as_ref()?;
        let v = e.eval(point);
        debug_assert_eq!(v.rem_euclid(*divisor), 0, "the outer stride makes it exact");
        Some(div_floor(v, *divisor))
    }

    /// The level's `(lower, upper)` range at a point fixing the outer
    /// levels, before any stride.
    fn bounds(&self, point: &[i64]) -> Result<(i64, i64), PolyError> {
        if let Some(v) = self.exact_value(point) {
            return Ok((v, v));
        }
        if self.lowers.is_empty() || self.uppers.is_empty() {
            return Err(PolyError::Unbounded(self.dim));
        }
        let mut lo = i64::MIN;
        for (d, es) in &self.lowers {
            let tightest = es.iter().fold(i64::MIN, |t, e| t.max(e.eval(point)));
            lo = lo.max(div_ceil(tightest, *d));
        }
        let mut hi = i64::MAX;
        for (d, es) in &self.uppers {
            let tightest = es.iter().fold(i64::MAX, |t, e| t.min(e.eval(point)));
            hi = hi.min(div_floor(tightest, *d));
        }
        Ok((lo, hi))
    }

    /// The values to iterate as `(first, last, step)`, or `None` when the
    /// level is empty at this point.
    fn steps(&self, point: &[i64]) -> Result<Option<(i64, i64, i64)>, PolyError> {
        let (mut lo, hi) = self.bounds(point)?;
        let mut step = 1;
        if let Some(s) = &self.stride {
            let mut rest = s.rest.eval(point);
            if s.gcd != 1 {
                if rest % s.gcd != 0 {
                    return Ok(None);
                }
                rest /= s.gcd;
            }
            // The first x >= lo with x ≡ want (mod modulus).
            let want = (s.modulus - rest.rem_euclid(s.modulus)) * s.inverse;
            lo += (want - lo.rem_euclid(s.modulus)).rem_euclid(s.modulus);
            step = s.modulus;
        }
        if lo > hi {
            return Ok(None);
        }
        if hi - lo > MAX_LEVEL_SPAN {
            return Err(PolyError::Unbounded(self.dim));
        }
        Ok(Some((lo, hi, step)))
    }
}

/// A signed interval `[lo, hi]`.
type Span = (i128, i128);

/// `span`, if it lies strictly within ±[`RANGE`].
fn within(span: Span) -> Result<Span, PolyError> {
    if -RANGE < span.0 && span.1 < RANGE {
        Ok(span)
    } else {
        Err(PolyError::Overflow)
    }
}

impl Affine {
    /// The values [`Affine::eval`] returns where each outer dimension `d`
    /// lies in `of[d]`, every term and partial sum on the way checked
    /// against ±[`RANGE`].
    fn span(&self, of: &[Span]) -> Result<Span, PolyError> {
        let mut acc = within((self.constant.into(), self.constant.into()))?;
        for &(d, c) in &self.terms {
            let (a, b) = (i128::from(c) * of[d].0, i128::from(c) * of[d].1);
            let term = within((a.min(b), a.max(b)))?;
            acc = within((acc.0 + term.0, acc.1 + term.1))?;
        }
        Ok(acc)
    }
}

/// The span of one side's bound: each numerator's span, the tightest of a
/// divisor's numerators (rounded up for lower bounds, down for upper), and
/// the tightest over divisors.
fn side_span(side: &[(i64, Vec<Affine>)], of: &[Span], lower: bool) -> Result<Span, PolyError> {
    let tighter = |a: Span, b: Span| {
        if lower {
            (a.0.max(b.0), a.1.max(b.1))
        } else {
            (a.0.min(b.0), a.1.min(b.1))
        }
    };
    let loosest = if lower { i128::MIN } else { i128::MAX };
    let mut out = (loosest, loosest);
    for (d, es) in side {
        let mut t = (loosest, loosest);
        for e in es {
            t = tighter(t, e.span(of)?);
        }
        let d = i128::from(*d);
        let q = if lower {
            (num::div_ceil(t.0, d), num::div_ceil(t.1, d))
        } else {
            (num::div_floor(t.0, d), num::div_floor(t.1, d))
        };
        out = tighter(out, q);
    }
    Ok(out)
}

/// Proves that a kernel over `levels`, in a space of `dims` dimensions,
/// computes no value outside ±[`RANGE`]: per level, outermost first, the
/// spans of its bounds over the spans of the outer levels, then its own.
fn prove(levels: &[Level], dims: usize) -> Result<(), PolyError> {
    let mut of: Vec<Span> = vec![(0, 0); dims];
    for level in levels {
        let (lo, hi) = if let Some((e, d)) = &level.exact {
            let ((a, b), d) = (e.span(&of)?, i128::from(*d));
            let v = (num::div_floor(a, d), num::div_floor(b, d));
            (v, v)
        } else if level.lowers.is_empty() || level.uppers.is_empty() {
            // Reaching this level is `Unbounded`: nothing deeper runs.
            return Ok(());
        } else {
            (
                side_span(&level.lowers, &of, true)?,
                side_span(&level.uppers, &of, false)?,
            )
        };
        // A stride's first value lies less than its modulus above the
        // lower bound, and the last step goes one step past the upper.
        let (mut first, mut step) = (lo.1, 1);
        if let Some(s) = &level.stride {
            s.rest.span(&of)?;
            let m = i128::from(s.modulus);
            within((0, m * i128::from(s.inverse)))?;
            (first, step) = (lo.1 + m - 1, m);
        }
        within((lo.0, first.max(hi.1 + step)))?;
        if lo.0 > hi.1 {
            // The level never takes a value: nothing deeper runs.
            return Ok(());
        }
        of[level.dim] = (lo.0, hi.1);
    }
    Ok(())
}

/// `x` as `i64`.
fn narrow(x: i128) -> Result<i64, PolyError> {
    i64::try_from(x).map_err(|_| PolyError::Overflow)
}

/// One enumeration's counts, added to the engine statistics once, on
/// whichever path the enumeration ends.
#[derive(Default)]
struct Tally {
    points: u64,
    range_evals: u64,
}

impl Drop for Tally {
    fn drop(&mut self) {
        ledger::count(|s| {
            s.scan_points += self.points;
            s.scan_range_evals += self.range_evals;
        });
    }
}

/// One run of a counted level ([`ScanKernel::for_each_run`]): `len` points
/// that differ only in the counted level, which goes from `first` to `last`
/// by `step` (1 when `len` is 1), and in the pinned levels that read it,
/// each affine in it. `first` and `last` are the run's two end points.
#[derive(Clone, Copy, Debug)]
pub struct ScanRun<'a> {
    /// The point at the run's first value.
    pub first: &'a [i64],
    /// The point at the run's last value.
    pub last: &'a [i64],
    /// The counted level's step.
    pub step: i64,
    /// The points the run stands for.
    pub len: u64,
}

/// A [`ScanNest`] compiled for fixed parameter values
/// ([`ScanNest::compile`]): the one enumerator behind the planner's
/// communication-set and compute-block scans, in `i64` arithmetic whose
/// range `compile` proved.
#[derive(Clone, Debug)]
pub struct ScanKernel {
    levels: Vec<Level>,
    start: Vec<i64>,
    guard: bool,
}

impl ScanKernel {
    /// Calls `visit` with every solution of the outermost `depth` levels,
    /// in lexicographic scan order, as a full point in the original space
    /// (entries of deeper scanned dimensions are unspecified). `visit`
    /// returns [`ControlFlow::Break`] to stop early.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Unbounded`] when a level that is reached has no
    /// lower or no upper bound or spans more than four million values, and
    /// whatever `visit` returns.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the number of levels.
    pub fn for_each<E: From<PolyError>>(
        &self,
        depth: usize,
        mut visit: impl FnMut(&[i64]) -> Result<ControlFlow<()>, E>,
    ) -> Result<(), E> {
        self.walk(depth, None, |point, tally, _| {
            tally.points += 1;
            visit(point)
        })
    }

    /// The loop behind [`ScanKernel::for_each`] and
    /// [`ScanKernel::for_each_run`]: calls `leaf` at every point of the
    /// outermost `depth` levels with the enumeration's tally, and with the
    /// last value and the step of the `counted` level, which is entered
    /// once per point of the levels outside it and then left: it stays at
    /// its first value.
    fn walk<E: From<PolyError>>(
        &self,
        depth: usize,
        counted: Option<usize>,
        mut leaf: impl FnMut(&[i64], &mut Tally, (i64, i64)) -> Result<ControlFlow<()>, E>,
    ) -> Result<(), E> {
        let levels = &self.levels[..depth];
        if !self.guard {
            return Ok(());
        }
        let mut tally = Tally::default();
        let mut point = self.start.clone();
        // A level pinned by an exact equality is §5.2's assignment: it runs
        // straight-line under the looping level above it (or, ahead of the
        // first one, once), not as a one-trip loop of the state machine.
        let assign = |run: &[Level], point: &mut [i64], tally: &mut Tally| {
            for level in run {
                tally.range_evals += 1;
                point[level.dim] = level.exact_value(point).expect("a pinned level");
            }
        };
        let looping: Vec<usize> = (0..depth).filter(|&k| !levels[k].pinned()).collect();
        let run_end = |j: usize| looping.get(j).copied().unwrap_or(depth);
        assign(&levels[..run_end(0)], &mut point, &mut tally);
        if looping.is_empty() {
            return leaf(&point, &mut tally, (0, 1)).map(drop);
        }
        // Per looping level: the last value and the step of the running
        // loop; the counted level's, its first value, so it never steps.
        let mut loops = vec![(0i64, 1i64); looping.len()];
        let mut run = (0, 1);
        let (mut j, mut entering) = (0, true);
        loop {
            let k = looping[j];
            let dim = levels[k].dim;
            let next = if entering {
                tally.range_evals += 1;
                levels[k].steps(&point)?.map(|(lo, hi, step)| {
                    loops[j] = (hi, step);
                    if counted == Some(k) {
                        run = (lo + (hi - lo) / step * step, step);
                        loops[j].0 = lo;
                    }
                    lo
                })
            } else {
                let (hi, step) = loops[j];
                Some(point[dim] + step).filter(|&v| v <= hi)
            };
            let Some(v) = next else {
                if j == 0 {
                    return Ok(());
                }
                (j, entering) = (j - 1, false);
                continue;
            };
            point[dim] = v;
            assign(&levels[k + 1..run_end(j + 1)], &mut point, &mut tally);
            entering = j + 1 < looping.len();
            if entering {
                j += 1;
            } else if leaf(&point, &mut tally, run)?.is_break() {
                return Ok(());
            }
        }
    }

    /// How many outer levels [`ScanKernel::for_each`] must run to visit
    /// every solution: each level past them is pinned, one value wherever
    /// it is reached, so a visitor that reads none of their dimensions
    /// sees the same solutions, once each, at this depth.
    pub fn looping_depth(&self) -> usize {
        self.levels
            .iter()
            .rposition(|l| !l.pinned())
            .map_or(0, |k| k + 1)
    }

    /// The dimensions whose values move along a run of level `level`
    /// ([`ScanKernel::for_each_run`]) when the kernel runs `depth` levels:
    /// the level's own, then those of the pinned levels that read it,
    /// directly or through one another, in scan order. `None` when the
    /// level cannot be counted: it is pinned, it is not among the first
    /// `depth`, a deeper looping level reads it (through its bounds, its
    /// exact value or a stride's rest, directly or through pinned levels),
    /// or a pinned level that reads it is not a unit equality. So the
    /// moving values of a counted level are affine in its own, with integer
    /// coefficients.
    pub fn run_dims(&self, depth: usize, level: usize) -> Option<Vec<usize>> {
        let levels = self.levels.get(..depth)?;
        let counted = levels.get(level).filter(|l| !l.pinned())?;
        let mut moving = vec![counted.dim];
        for l in &levels[level + 1..] {
            if l.reads(&moving) {
                match l.exact {
                    Some((_, 1)) if l.pinned() => moving.push(l.dim),
                    _ => return None,
                }
            }
        }
        Some(moving)
    }

    /// Calls `visit` with every solution of the outermost `depth` levels,
    /// as [`ScanKernel::for_each`] does, except that level `level` is
    /// counted instead of iterated: each point of the deeper levels comes
    /// once, as a [`ScanRun`] over the counted level's values. The deeper
    /// looping levels do not read the counted one, so the points are
    /// those of `for_each`, each run standing for `len` of them; they come
    /// in scan order with the counted level moved innermost. Returns
    /// `Ok(false)`, visiting nothing, when [`ScanKernel::run_dims`] refuses
    /// the level.
    ///
    /// # Errors
    ///
    /// As [`ScanKernel::for_each`].
    pub fn for_each_run<E: From<PolyError>>(
        &self,
        depth: usize,
        level: usize,
        mut visit: impl FnMut(ScanRun<'_>) -> Result<ControlFlow<()>, E>,
    ) -> Result<bool, E> {
        let Some(moving) = self.run_dims(depth, level) else {
            return Ok(false);
        };
        // The moving pinned levels are unit equalities: one evaluation each.
        let pinned: Vec<(usize, &Affine)> = self.levels[level + 1..depth]
            .iter()
            .filter(|l| moving[1..].contains(&l.dim))
            .filter_map(|l| Some((l.dim, &l.exact.as_ref()?.0)))
            .collect();
        let (dim, mut last) = (moving[0], Vec::new());
        self.walk(depth, Some(level), |first, tally, (end, step)| {
            last.clear();
            last.extend_from_slice(first);
            last[dim] = end;
            for &(d, e) in &pinned {
                tally.range_evals += 1;
                last[d] = e.eval(&last);
            }
            // The range proof bounds both ends, so this cannot overflow.
            let len = ((end - first[dim]) / step + 1) as u64;
            tally.points += len;
            let step = if len == 1 { 1 } else { step };
            visit(ScanRun {
                first,
                last: &last,
                step,
                len,
            })
        })?;
        Ok(true)
    }

    /// The `(lower, upper)` range of the innermost level at a point
    /// [`ScanKernel::for_each`] visited one level short of it, `None` when
    /// empty — for consumers that take the innermost loop as one block
    /// instead of visiting it.
    ///
    /// # Errors
    ///
    /// As [`ScanKernel::for_each`], without the span limit.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has no levels.
    pub fn inner_range(&self, point: &[i64]) -> Result<Option<(i64, i64)>, PolyError> {
        let inner = self.levels.last().expect("a scanned level");
        Ok(Some(inner.bounds(point)?).filter(|(lo, hi)| lo <= hi))
    }
}

/// Derives scanning bounds for `poly` in the given variable `order`
/// (outermost first). Dimensions not in `order` are treated as symbolic
/// (parameters): they may appear in bounds and end up in the guard.
///
/// Mirrors §5.2 of the paper: bounds for the innermost variable come from
/// the constraints that mention it; the variable is then projected away and
/// the process repeats outwards. Superfluous constraints are pruned with the
/// negation test after each projection so the emitted `max`/`min` lists stay
/// small.
///
/// The whole nest is memoized per thread, keyed on the system's rows in
/// construction order and `order` (see [`crate::cache`]): a repeated scan
/// is one lookup, and returns exactly what the computation would.
///
/// # Errors
///
/// Returns [`PolyError::Overflow`] on overflow.
pub fn scan_bounds(poly: &Polyhedron, order: &[usize]) -> Result<ScanNest, PolyError> {
    cache::memoized(
        Query::Scan,
        poly.system(),
        order,
        || scan_bounds_uncached(poly, order),
        ScanNest::encode,
        |d| ScanNest::decode(d, poly.space()),
    )
}

/// The computation [`scan_bounds`] memoizes, for the tests that hold its
/// answers to it.
#[doc(hidden)]
pub fn scan_bounds_uncached(poly: &Polyhedron, order: &[usize]) -> Result<ScanNest, PolyError> {
    let mut cur = poly.remove_redundant()?;
    cur = promote_tight_inequalities(&cur, order)?;
    let mut vars_rev: Vec<VarBounds> = Vec::with_capacity(order.len());
    for (k, &dim) in order.iter().enumerate().rev() {
        // Deeper dims were already eliminated; sanity-check in debug builds.
        debug_assert!(
            cur.constraints()
                .iter()
                .all(|c| order[k + 1..].iter().all(|&d| c.coeff(d) == 0)),
            "deeper dimension leaked into bounds"
        );
        let mut lowers = Vec::new();
        let mut uppers = Vec::new();
        let mut exact: Option<LinExpr> = None;
        for c in cur.constraints() {
            let a = c.coeff(dim);
            if a == 0 {
                continue;
            }
            let mut rest = c.expr().clone();
            rest.set_coeff(dim, 0);
            if c.is_eq() {
                // a*dim + rest == 0  =>  dim == -rest/a.
                if a.abs() == 1 {
                    exact = Some(rest.scale(-a.signum())?);
                } else {
                    // Both a ceiling lower bound and a floor upper bound; the
                    // loop body only runs when the division is exact.
                    let e = rest.scale(-a.signum())?;
                    lowers.push(Bound {
                        expr: e.clone(),
                        divisor: a.abs(),
                    });
                    uppers.push(Bound {
                        expr: e,
                        divisor: a.abs(),
                    });
                }
            } else if a > 0 {
                // a*dim >= -rest  =>  dim >= ceil(-rest / a).
                lowers.push(Bound {
                    expr: rest.scale(-1)?,
                    divisor: a,
                });
            } else {
                // (-a)*dim <= rest  =>  dim <= floor(rest / -a).
                uppers.push(Bound {
                    expr: rest,
                    divisor: -a,
                });
            }
        }
        vars_rev.push(VarBounds {
            dim,
            lowers,
            uppers,
            exact,
        });
        cur = cur.eliminate_dim(dim)?.remove_redundant()?;
    }
    vars_rev.reverse();
    Ok(ScanNest {
        vars: vars_rev,
        guard: cur,
    })
}

/// Promotes inequalities that hold with equality everywhere in the
/// polyhedron (the probe `poly ∧ (e − 1 >= 0)` is integer-infeasible) into
/// equality constraints. This lets degenerate dimensions — e.g. a cyclic
/// `p <= i <= p` pair, or a communication set's `p_s <= p_r − 1` that is
/// forced tight by the block bounds — surface as §5.2 assignments instead
/// of single-trip loops.
fn promote_tight_inequalities(poly: &Polyhedron, order: &[usize]) -> Result<Polyhedron, PolyError> {
    let mut out = Polyhedron::universe(poly.space().clone());
    if poly.is_obviously_empty() {
        return Ok(poly.clone());
    }
    for c in poly.constraints() {
        let promote = !c.is_eq() && order.iter().any(|&d| c.coeff(d) != 0) && {
            let mut strict = c.expr().clone();
            strict.set_constant(strict.constant_term() - 1);
            let probe = poly.with_row(poly.constraints().len(), crate::Constraint::ge(strict));
            probe.integer_feasibility()? == crate::Feasibility::Infeasible
        };
        if promote {
            out.add(crate::Constraint::eq(c.expr().clone()));
        } else {
            out.add(c.clone());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constraint, DimKind, LinExpr, Space};

    fn sp(names: &[&str]) -> Space {
        Space::from_dims(names.iter().map(|&n| (n, DimKind::Index)))
    }

    fn ge(coeffs: Vec<i128>, c: i128) -> Constraint {
        Constraint::ge(LinExpr::from_coeffs(coeffs, c))
    }

    /// Kernel ≡ oracle: same points, same order; a `limit` keeps a prefix.
    fn assert_kernel_matches_dense(p: &Polyhedron, order: &[usize], fixed: &[i128]) -> usize {
        let nest = scan_bounds(p, order).unwrap();
        let want = nest.enumerate_dense(fixed).unwrap();
        assert_eq!(nest.enumerate(fixed, usize::MAX).unwrap(), want);
        for limit in [0, 1, want.len() / 2, want.len()] {
            let got = nest.enumerate(fixed, limit).unwrap();
            assert_eq!(got, want[..limit.min(want.len())], "limit {limit}");
        }
        want.len()
    }

    /// `pr == ext·q + f`, `0 <= f < ext`, `0 <= pr <= top` — the shape
    /// `fold_receivers` appends — over `(pr, f, q)`.
    fn folded(ext: i128, top: i128) -> Polyhedron {
        let mut p = Polyhedron::universe(sp(&["pr", "f", "q"]));
        p.add(ge(vec![1, 0, 0], 0));
        p.add(ge(vec![-1, 0, 0], top));
        p.add(ge(vec![0, 1, 0], 0));
        p.add(ge(vec![0, -1, 0], ext - 1));
        p.add(Constraint::eq(LinExpr::from_coeffs(vec![1, -1, -ext], 0)));
        p
    }

    /// The 2-D polyhedron of Figure 6 in the paper:
    /// `1 <= i <= 6`, `1 <= j`, `j <= i`, `2j <= i + 12` — scanned in
    /// `(i, j)` and `(j, i)` orders.
    fn figure6() -> Polyhedron {
        let mut p = Polyhedron::universe(sp(&["i", "j"]));
        p.add(ge(vec![1, 0], -1)); // i >= 1
        p.add(ge(vec![-1, 0], 6)); // i <= 6
        p.add(ge(vec![0, 1], -1)); // j >= 1
        p.add(ge(vec![1, -1], 0)); // j <= i
        p.add(ge(vec![1, -2], 12)); // 2j <= i + 12
        p
    }

    #[test]
    fn figure6_scan_both_orders_agree() {
        let p = figure6();
        let ij = scan_bounds(&p, &[0, 1]).unwrap();
        let ji = scan_bounds(&p, &[1, 0]).unwrap();
        let mut a = ij.enumerate(&[0, 0], 10_000).unwrap();
        let mut b = ji.enumerate(&[0, 0], 10_000).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Cross-check against brute force membership.
        for i in -2..10i128 {
            for j in -2..10i128 {
                let inside = p.contains(&[i, j]).unwrap();
                assert_eq!(a.binary_search(&vec![i, j]).is_ok(), inside, "({i},{j})");
            }
        }
    }

    #[test]
    fn scan_exactness_one_to_one() {
        // Every enumerated iteration is a solution and vice versa, i.e. no
        // duplicates (paper: "one-to-one correspondence").
        let p = figure6();
        let nest = scan_bounds(&p, &[0, 1]).unwrap();
        let pts = nest.enumerate(&[0, 0], 10_000).unwrap();
        let mut seen = pts.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), pts.len(), "scan produced duplicates");
    }

    #[test]
    fn scan_with_parameter_guard() {
        // 0 <= i <= N with N a parameter: guard must say N >= 0.
        let mut space = Space::new();
        space.add_dim("i", DimKind::Index);
        space.add_dim("N", DimKind::Param);
        let mut p = Polyhedron::universe(space);
        p.add(ge(vec![1, 0], 0));
        p.add(ge(vec![-1, 1], 0));
        let nest = scan_bounds(&p, &[0]).unwrap();
        assert!(nest.guard.contains(&[0, 5]).unwrap());
        assert!(!nest.guard.contains(&[0, -1]).unwrap());
        let pts = nest.enumerate(&[0, 3], 100).unwrap();
        assert_eq!(pts.len(), 4);
    }

    #[test]
    fn scan_degenerate_equality_dim() {
        // j == i - 3, 3 <= i <= 5: j should be an exact assignment.
        let mut p = Polyhedron::universe(sp(&["i", "j"]));
        p.add(ge(vec![1, 0], -3));
        p.add(ge(vec![-1, 0], 5));
        p.add(Constraint::eq(LinExpr::from_coeffs(vec![1, -1], -3)));
        let nest = scan_bounds(&p, &[0, 1]).unwrap();
        assert!(nest.vars[1].exact.is_some());
        let pts = nest.enumerate(&[0, 0], 100).unwrap();
        assert_eq!(pts, vec![vec![3, 0], vec![4, 1], vec![5, 2]]);
    }

    #[test]
    fn scan_stride_via_non_unit_equality() {
        // i == 2k for hidden k in [0,3]: i in {0,2,4,6}. Scan (k, i).
        let mut p = Polyhedron::universe(sp(&["k", "i"]));
        p.add(ge(vec![1, 0], 0));
        p.add(ge(vec![-1, 0], 3));
        p.add(Constraint::eq(LinExpr::from_coeffs(vec![2, -1], 0))); // i == 2k
        let nest = scan_bounds(&p, &[0, 1]).unwrap();
        let pts = nest.enumerate(&[0, 0], 100).unwrap();
        let is: Vec<i128> = pts.iter().map(|p| p[1]).collect();
        assert_eq!(is, vec![0, 2, 4, 6]);
    }

    #[test]
    fn empty_polyhedron_scans_to_nothing() {
        let mut p = Polyhedron::universe(sp(&["i"]));
        p.add(ge(vec![1], 0));
        p.add(ge(vec![-1], -1)); // i <= -1: empty
        let nest = scan_bounds(&p, &[0]).unwrap();
        let pts = nest.enumerate(&[0], 100).unwrap();
        assert!(pts.is_empty());
    }

    #[test]
    fn kernel_matches_dense_recursion() {
        // Figure 6, both orders.
        assert_eq!(
            assert_kernel_matches_dense(&figure6(), &[0, 1], &[0, 0]),
            21
        );
        assert_eq!(
            assert_kernel_matches_dense(&figure6(), &[1, 0], &[0, 0]),
            21
        );
        // Non-unit equality i == 2k: pinned dim last, then first (the
        // stride moves to the loop that would otherwise miss).
        let mut p = Polyhedron::universe(sp(&["k", "i"]));
        p.add(ge(vec![1, 0], 0));
        p.add(ge(vec![-1, 0], 3));
        p.add(Constraint::eq(LinExpr::from_coeffs(vec![2, -1], 0)));
        assert_eq!(assert_kernel_matches_dense(&p, &[0, 1], &[0, 0]), 4);
        assert_eq!(assert_kernel_matches_dense(&p, &[1, 0], &[0, 0]), 4);
        // A stride whose coefficient shares a factor with the modulus:
        // 6k == 4i + 3j over (j, i, k) needs j even, then i ≡ 0 (mod 3).
        let mut p = Polyhedron::universe(sp(&["j", "i", "k"]));
        for d in 0..2 {
            let mut unit = vec![0, 0, 0];
            unit[d] = 1;
            p.add(ge(unit.clone(), 6));
            unit[d] = -1;
            p.add(ge(unit, 6));
        }
        p.add(Constraint::eq(LinExpr::from_coeffs(vec![3, 4, -6], 0)));
        assert_eq!(assert_kernel_matches_dense(&p, &[0, 1, 2], &[0; 3]), 35);
        let kernel = scan_bounds(&p, &[0, 1, 2]).unwrap().compile(&[0; 3]);
        let stride = kernel.unwrap().levels[1].stride.clone().expect("strided");
        assert_eq!((stride.gcd, stride.modulus), (2, 3));
        // The fold_receivers shape in every order.
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            assert_eq!(
                assert_kernel_matches_dense(&folded(4, 13), &order, &[0; 3]),
                14
            );
        }
        // Single point, empty, and guard-false (N = -1 in 0 <= i <= N).
        let mut p = Polyhedron::universe(sp(&["i", "j"]));
        p.add(Constraint::eq(LinExpr::from_coeffs(vec![1, 0], -3)));
        p.add(Constraint::eq(LinExpr::from_coeffs(vec![1, -1], 1)));
        assert_eq!(assert_kernel_matches_dense(&p, &[0, 1], &[0, 0]), 1);
        p.add(ge(vec![0, 1], -9));
        assert_eq!(assert_kernel_matches_dense(&p, &[0, 1], &[0, 0]), 0);
        let mut p = Polyhedron::universe(sp(&["i", "N"]));
        p.add(ge(vec![1, 0], 0));
        p.add(ge(vec![-1, 1], 0));
        assert_eq!(assert_kernel_matches_dense(&p, &[0], &[0, 3]), 4);
        assert_eq!(assert_kernel_matches_dense(&p, &[0], &[0, -1]), 0);
    }

    #[test]
    fn strided_level_costs_an_assignment_not_a_loop() {
        // Scanning f before q, the dense recursion evaluates q's range for
        // all 16 values of f per pr and finds it empty for 15 of them. The
        // kernel solves f ≡ pr (mod 16): one range evaluation per level.
        let nest = scan_bounds(&folded(16, 63), &[0, 1, 2]).unwrap();
        let kernel = nest.compile(&[0; 3]).unwrap();
        let (mut points, mut evals) = (0u64, 0u64);
        let mut point = vec![0i64; 3];
        let (lo, hi, step) = kernel.levels[0].steps(&point).unwrap().unwrap();
        assert_eq!((lo, hi, step), (0, 63, 1));
        for pr in lo..=hi {
            point[0] = pr;
            evals += 1;
            let (f, f_hi, step) = kernel.levels[1].steps(&point).unwrap().unwrap();
            assert_eq!((f, step), (pr % 16, 16));
            assert!(f + step > f_hi, "one trip");
            point[1] = f;
            evals += 1;
            let (q, q_hi, _) = kernel.levels[2].steps(&point).unwrap().unwrap();
            assert_eq!((q, q_hi), (pr / 16, pr / 16));
            points += 1;
        }
        assert_eq!((points, evals), (64, 128));
        // With the congruence on f, q is pinned: q = (pr − f) / 16, one
        // exact division in place of its bounds.
        let q = &kernel.levels[2];
        assert!(matches!(q.exact, Some((_, 16))) && q.pinned(), "{q:?}");
        let all = nest.enumerate(&[0; 3], 1000).unwrap();
        assert_eq!(all, nest.enumerate_dense(&[0; 3]).unwrap());
        // Nothing loops past f: a visitor that does not read q stops there
        // and sees the same points.
        assert_eq!(kernel.looping_depth(), 2);
        let mut outer = Vec::new();
        kernel
            .for_each(2, |p| {
                outer.push(p[..2].iter().map(|&v| i128::from(v)).collect::<Vec<_>>());
                Ok::<_, PolyError>(ControlFlow::Continue(()))
            })
            .unwrap();
        assert_eq!(
            outer,
            all.iter().map(|p| p[..2].to_vec()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_level_no_deeper_loop_reads_is_counted() {
        // 0 <= s <= 5, 0 <= p <= 2, a == s + 3, scanned (s, p, a): p does
        // not read s, and a moves along it by a unit equality.
        let mut p = Polyhedron::universe(sp(&["s", "p", "a"]));
        p.add(ge(vec![1, 0, 0], 0));
        p.add(ge(vec![-1, 0, 0], 5));
        p.add(ge(vec![0, 1, 0], 0));
        p.add(ge(vec![0, -1, 0], 2));
        p.add(Constraint::eq(LinExpr::from_coeffs(vec![1, 0, -1], 3)));
        let kernel = scan_bounds(&p, &[0, 1, 2])
            .unwrap()
            .compile(&[0; 3])
            .unwrap();
        assert_eq!(kernel.run_dims(3, 0), Some(vec![0, 2]));
        assert_eq!(kernel.run_dims(3, 2), None, "a pinned level");
        let before = crate::stats::snapshot();
        let mut runs = Vec::new();
        let counted = kernel.for_each_run(3, 0, |run| {
            runs.push((run.first.to_vec(), run.last.to_vec(), run.step, run.len));
            Ok::<_, PolyError>(ControlFlow::Continue(()))
        });
        let tally = crate::stats::snapshot().since(&before);
        assert_eq!(counted, Ok(true));
        let run = |p| (vec![0, p, 3], vec![5, p, 8], 1, 6);
        assert_eq!(runs, [run(0), run(1), run(2)]);
        assert_eq!(tally.scan_points, 18);
        assert!(tally.scan_range_evals < tally.scan_points, "{tally:?}");
        // Once p <= s, the loop over p reads s: s is iterated.
        p.add(ge(vec![1, -1, 0], 0));
        let kernel = scan_bounds(&p, &[0, 1, 2])
            .unwrap()
            .compile(&[0; 3])
            .unwrap();
        assert_eq!(kernel.run_dims(3, 0), None);
        let none = kernel.for_each_run(3, 0, |_| Ok::<_, PolyError>(ControlFlow::Break(())));
        assert_eq!(none, Ok(false));
        // A level pinned by the non-unit 2b == s reads s: only unit
        // equalities move along a run.
        let mut p = Polyhedron::universe(sp(&["s", "b"]));
        p.add(ge(vec![1, 0], 0));
        p.add(ge(vec![-1, 0], 5));
        p.add(Constraint::eq(LinExpr::from_coeffs(vec![1, -2], 0)));
        let kernel = scan_bounds(&p, &[0, 1]).unwrap().compile(&[0; 2]).unwrap();
        assert_eq!(kernel.run_dims(2, 0), None);
    }

    #[test]
    fn range_proof_stops_short_of_two_to_the_62() {
        // N <= i <= N + 3 with N fixed: the largest value the kernel
        // computes is the last i plus one step, N + 4; the smallest is N.
        let mut p = Polyhedron::universe(sp(&["i", "N"]));
        p.add(ge(vec![1, -1], 0));
        p.add(ge(vec![-1, 1], 3));
        let nest = scan_bounds(&p, &[0]).unwrap();
        let (top, bottom) = ((1i128 << 62) - 5, -(1i128 << 62) + 1);
        for n in [top, bottom] {
            let want: Vec<Vec<i128>> = (n..=n + 3).map(|i| vec![i, n]).collect();
            assert_eq!(nest.enumerate(&[0, n], 10), Ok(want));
        }
        for n in [top + 1, bottom - 1, i128::from(i64::MAX), 1 << 100] {
            assert_eq!(nest.enumerate(&[0, n], 10), Err(PolyError::Overflow), "{n}");
        }
        // A level with one side ends the proof: reaching it is Unbounded,
        // whatever deeper levels would compute.
        let mut p = Polyhedron::universe(sp(&["p", "i", "N"]));
        p.add(ge(vec![1, 0, 0], 0));
        p.add(ge(vec![0, 1, -1], 0));
        p.add(ge(vec![0, -1, 1], 3));
        let nest = scan_bounds(&p, &[0, 1]).unwrap();
        assert_eq!(
            nest.enumerate(&[0, 0, 1 << 62], 10),
            Err(PolyError::Unbounded(0))
        );
    }

    #[test]
    fn unbounded_level_is_a_typed_error() {
        // p is unconstrained: formerly `for v in i128::MIN..=hi`.
        let mut poly = Polyhedron::universe(sp(&["p", "i"]));
        poly.add(ge(vec![0, 1], 0));
        poly.add(ge(vec![0, -1], 5));
        let nest = scan_bounds(&poly, &[0, 1]).unwrap();
        assert_eq!(nest.enumerate(&[0, 0], 10), Err(PolyError::Unbounded(0)));
        // One-sided, and two-sided but too wide to iterate.
        poly.add(ge(vec![1, 0], 0));
        let nest = scan_bounds(&poly, &[0, 1]).unwrap();
        assert_eq!(nest.enumerate(&[0, 0], 10), Err(PolyError::Unbounded(0)));
        poly.add(ge(vec![-1, 0], i128::from(MAX_LEVEL_SPAN) + 1));
        let nest = scan_bounds(&poly, &[0, 1]).unwrap();
        assert_eq!(nest.enumerate(&[0, 0], 10), Err(PolyError::Unbounded(0)));
        // A level that is never reached is not an error: the guard fails.
        let mut poly = Polyhedron::universe(sp(&["p", "N"]));
        poly.add(ge(vec![0, 1], 0));
        let nest = scan_bounds(&poly, &[0]).unwrap();
        assert_eq!(nest.enumerate(&[0, -1], 10), Ok(vec![]));
        // The innermost block range has no span limit, only sidedness.
        let mut poly = Polyhedron::universe(sp(&["i"]));
        poly.add(ge(vec![1], 0));
        poly.add(ge(vec![-1], i128::from(10 * MAX_LEVEL_SPAN)));
        let kernel = scan_bounds(&poly, &[0]).unwrap().compile(&[0]).unwrap();
        assert_eq!(kernel.inner_range(&[0]), Ok(Some((0, 10 * MAX_LEVEL_SPAN))));
    }
}
