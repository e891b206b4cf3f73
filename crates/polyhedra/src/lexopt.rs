//! Parametric lexicographic optimization over integer polyhedra.
//!
//! This is the engine behind exact array data-flow analysis (paper §3.1,
//! following Feautrier's parametric integer programming): given a polyhedron
//! over "optimization" dimensions (write iterations) and "context"
//! dimensions (read iteration + symbolic constants), compute, for every
//! context, the lexicographic maximum of the optimization dimensions — as a
//! finite set of pieces, each with a convex context and an affine solution.
//!
//! Divisions are made exact by introducing auxiliary existential dimensions
//! (`q`, `r` with `c·q <= e <= c·q + c − 1`), exactly as the paper does for
//! modulo constraints in last-write relations (§4.4.2).

use crate::cache::{self, Query};
use crate::codec::{CodecError, Dec, Enc};
use crate::{ledger, Constraint, DimKind, LinExpr, PolyError, Polyhedron, Space};

/// Direction of optimization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Lexicographic maximum.
    Max,
    /// Lexicographic minimum.
    Min,
}

/// One piece of a parametric lexicographic optimum.
#[derive(Clone, Debug)]
pub struct LexPiece {
    /// The set of contexts this piece covers. Lives in the (possibly
    /// extended) space of [`LexOpt::space`]; the optimization dimensions are
    /// unconstrained, auxiliary dimensions added during the solve are
    /// constrained to their defining inequalities.
    pub context: Polyhedron,
    /// For each optimization dimension (in the order given to
    /// [`lexopt`]), its optimal value as an affine expression over the
    /// context (and auxiliary) dimensions.
    pub solution: Vec<LinExpr>,
}

/// Result of [`lexopt`]: disjoint pieces plus the final (shared) space.
#[derive(Clone, Debug)]
pub struct LexOpt {
    /// The space every piece lives in: the input space followed by any
    /// auxiliary dimensions introduced for exact division.
    pub space: Space,
    /// Disjoint pieces covering every context that admits a solution.
    pub pieces: Vec<LexPiece>,
}

impl LexOpt {
    /// Writes the optimum as its memo value: how many auxiliary dimensions
    /// it appended to the caller's `base` ones, then per piece the
    /// context's rows and the solution rows.
    fn encode(&self, base: usize, e: &mut Enc) {
        e.usize(self.space.len() - base);
        e.usize(self.pieces.len());
        for p in &self.pieces {
            e.rows(p.context.constraints(), p.context.is_obviously_empty());
            e.usize(p.solution.len());
            for x in &p.solution {
                e.row(x, false);
            }
        }
    }

    /// Reads back what [`LexOpt::encode`] wrote for a caller over `base`.
    /// The auxiliary dimensions are named as [`add_aux`] named them: by
    /// [`Space::add_aux`], one after another, from the caller's names.
    fn decode(d: &mut Dec<'_>, base: &Space) -> Result<LexOpt, CodecError> {
        let mut space = base.clone();
        for _ in 0..d.usize()? {
            space.add_aux();
        }
        let dims = space.len();
        let pieces = (0..d.usize()?)
            .map(|_| {
                let (cons, contradiction) = d.rows(dims)?;
                Ok(LexPiece {
                    context: Polyhedron::from_parts(space.clone(), cons, contradiction),
                    solution: (0..d.usize()?)
                        .map(|_| Ok(d.row(dims)?.0))
                        .collect::<Result<_, CodecError>>()?,
                })
            })
            .collect::<Result<_, CodecError>>()?;
        Ok(LexOpt { space, pieces })
    }
}

/// Errors specific to lexicographic optimization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LexError {
    /// An optimization dimension is unbounded in the optimizing direction.
    Unbounded,
    /// Arithmetic overflow in the underlying polyhedral operations.
    Poly(PolyError),
    /// The case analysis exceeded its budget.
    TooComplex,
}

impl From<PolyError> for LexError {
    fn from(e: PolyError) -> Self {
        LexError::Poly(e)
    }
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LexError::Unbounded => write!(f, "optimization dimension is unbounded"),
            LexError::Poly(e) => write!(f, "polyhedral arithmetic failed: {e}"),
            LexError::TooComplex => write!(f, "lexicographic case analysis exceeded budget"),
        }
    }
}

impl std::error::Error for LexError {}

/// Computes the parametric lexicographic optimum of `opt_dims` (in order)
/// over `poly`. All other dimensions are context.
///
/// Returned pieces are pairwise disjoint in context; a context not covered
/// by any piece has no solution (the polyhedron is empty there).
///
/// The answer is memoized per thread, keyed on the system's rows in
/// construction order, the direction and `opt_dims` (see [`crate::cache`]):
/// a repeated query is one lookup, and returns exactly what the
/// computation would — the auxiliary dimensions' names included, which
/// depend only on the caller's names and how many were added.
///
/// # Errors
///
/// * [`LexError::Unbounded`] if some optimization dimension has no bound in
///   the optimizing direction inside the polyhedron.
/// * [`LexError::Poly`] on arithmetic overflow.
/// * [`LexError::TooComplex`] if the piece split exceeds an internal budget.
///
/// # Examples
///
/// ```
/// use dmc_polyhedra::{lexopt, Direction, Polyhedron, Space, DimKind, LinExpr, Constraint};
///
/// // max j subject to 0 <= j <= i  (context: i).
/// let s = Space::from_dims([("i", DimKind::Index), ("j", DimKind::Index)]);
/// let mut p = Polyhedron::universe(s);
/// p.add(Constraint::ge(LinExpr::from_coeffs(vec![0, 1], 0)));
/// p.add(Constraint::ge(LinExpr::from_coeffs(vec![1, -1], 0)));
/// let r = lexopt(&p, &[1], Direction::Max).unwrap();
/// assert_eq!(r.pieces.len(), 1);
/// // solution: j* = i
/// assert_eq!(r.pieces[0].solution[0], LinExpr::from_coeffs(vec![1, 0], 0));
/// ```
pub fn lexopt(poly: &Polyhedron, opt_dims: &[usize], dir: Direction) -> Result<LexOpt, LexError> {
    let dir_arg = match dir {
        Direction::Max => 0,
        Direction::Min => 1,
    };
    let args: Vec<usize> = std::iter::once(dir_arg)
        .chain(opt_dims.iter().copied())
        .collect();
    let base = poly.space().len();
    cache::memoized(
        Query::LexOpt,
        poly.system(),
        &args,
        || lexopt_uncached(poly, opt_dims, dir),
        |opt, e| opt.encode(base, e),
        |d| LexOpt::decode(d, poly.space()),
    )
}

/// The computation [`lexopt`] memoizes, for the tests that hold its
/// answers to it.
#[doc(hidden)]
pub fn lexopt_uncached(
    poly: &Polyhedron,
    opt_dims: &[usize],
    dir: Direction,
) -> Result<LexOpt, LexError> {
    let mut out = Vec::new();
    let mut budget: u32 = 512;
    rec(
        poly.clone(),
        opt_dims,
        0,
        dir,
        Vec::new(),
        &mut out,
        &mut budget,
    )?;
    // All pieces share a space only if the aux-extension path was identical;
    // normalize by embedding each piece into the widest space produced.
    let widest = out
        .iter()
        .map(|p: &LexPiece| p.context.space().clone())
        .max_by_key(|s| s.len())
        .unwrap_or_else(|| poly.space().clone());
    let pieces = out
        .into_iter()
        .map(|p| {
            let extra = widest.len() - p.context.space().len();
            if extra == 0 {
                p
            } else {
                let mut tail = Space::new();
                for k in p.context.space().len()..widest.len() {
                    tail.add_dim(widest.dim(k).name().to_owned(), widest.dim(k).kind());
                }
                LexPiece {
                    context: p.context.extend_space(&tail),
                    solution: p.solution.into_iter().map(|e| e.extend(extra)).collect(),
                }
            }
        })
        .collect();
    Ok(LexOpt {
        space: widest,
        pieces,
    })
}

fn rec(
    cur: Polyhedron,
    all_opt: &[usize],
    depth: usize,
    dir: Direction,
    sols: Vec<LinExpr>,
    out: &mut Vec<LexPiece>,
    budget: &mut u32,
) -> Result<(), LexError> {
    if *budget == 0 {
        return Err(LexError::TooComplex);
    }
    *budget -= 1;
    if cur.is_obviously_empty() || !cur.integer_feasibility()?.possibly_feasible() {
        return Ok(());
    }
    let Some(&v) = all_opt.get(depth) else {
        // Pad solutions to the current (possibly extended) space width.
        let n = cur.space().len();
        let mut solution: Vec<LinExpr> = sols.iter().map(|e| e.extend(n - e.len())).collect();
        // A solution found early may reference a later optimization
        // dimension (its pinning equality mentioned it). Back-substitute
        // from the last component towards the first; the last component can
        // reference no optimization dimension at all (they were substituted
        // out of the polyhedron before it was solved), so this terminates
        // with every component purely over context/auxiliary dimensions.
        for idx in (0..solution.len()).rev() {
            for j in 0..idx {
                let d = all_opt[idx];
                if solution[j].coeff(d) != 0 {
                    let repl = solution[idx].clone();
                    solution[j] = solution[j].substitute(d, &repl)?;
                }
            }
        }
        debug_assert!(solution
            .iter()
            .all(|e| all_opt.iter().all(|&d| e.coeff(d) == 0)));
        out.push(LexPiece {
            context: cur,
            solution,
        });
        return Ok(());
    };

    // Case 1: an equality pins v.
    if let Some(eq) = cur
        .constraints()
        .iter()
        .find(|c| c.is_eq() && c.involves(v))
        .cloned()
    {
        let a = eq.coeff(v);
        let mut e_rest = eq.expr().clone();
        e_rest.set_coeff(v, 0);
        if a.abs() == 1 {
            let repl = e_rest.scale(-a.signum())?;
            let next = cur.substitute_dim(v, &repl)?;
            let mut sols = sols;
            sols.push(repl);
            return rec(next, all_opt, depth + 1, dir, sols, out, budget);
        }
        // |a| > 1: introduce aux q == v; the equality constrains q (and
        // imposes divisibility on the context).
        let (next, q) = add_aux(&cur);
        let repl = LinExpr::var(next.space().len(), q);
        let next = next.substitute_dim(v, &repl)?;
        let mut sols: Vec<LinExpr> = sols.iter().map(|e| e.extend(1)).collect();
        sols.push(repl);
        return rec(next, all_opt, depth + 1, dir, sols, out, budget);
    }

    // Case 2: gather bounds in the optimizing direction.
    //
    // For Max we need upper bounds `c·v <= e` (coefficient < 0 in the
    // `>= 0` form); for Min, lower bounds `c·v >= -e`.
    struct Side {
        /// v `<=` floor(e/c) (Max) or v `>=` ceil(e/c) (Min); c >= 1.
        e: LinExpr,
        c: i128,
    }
    let mut sides: Vec<Side> = Vec::new();
    for con in cur.constraints() {
        let a = con.coeff(v);
        if a == 0 {
            continue;
        }
        let mut e = con.expr().clone();
        e.set_coeff(v, 0);
        match dir {
            Direction::Max if a < 0 => sides.push(Side { e, c: -a }),
            Direction::Min if a > 0 => sides.push(Side {
                e: e.scale(-1)?,
                c: a,
            }),
            _ => {}
        }
    }
    if sides.is_empty() {
        return Err(LexError::Unbounded);
    }

    // Split on which bound is tight. Piece j: bound j is (rationally)
    // tightest, strictly tighter than bounds i < j (ties go to the smaller
    // index), i.e. for Max: e_j/c_j < e_i/c_i for i<j and <= for i>j.
    for j in 0..sides.len() {
        let mut piece = cur.clone();
        for (i, other) in sides.iter().enumerate() {
            if i == j {
                continue;
            }
            // Max: bound j tightest means smallest, c_i·e_j <= c_j·e_i.
            // Min: bound j tightest means largest, c_i·e_j >= c_j·e_i.
            let lhs = sides[j].e.scale(other.c)?;
            let rhs = other.e.scale(sides[j].c)?;
            let mut diff = match dir {
                Direction::Max => rhs.sub(&lhs)?, // >= 0 required
                Direction::Min => lhs.sub(&rhs)?,
            };
            if i < j {
                diff.set_constant(diff.constant_term() - 1); // strict
            }
            piece.add(Constraint::ge(diff));
        }
        if piece.is_obviously_empty() {
            continue;
        }
        // One case split explored per surviving piece of the
        // which-bound-is-tight disjunction.
        let op = ledger::op(ledger::OpKind::LexSplit, piece.constraints().len());
        let (c, e) = (sides[j].c, sides[j].e.clone());
        if c == 1 {
            // c == 1: the bound value is exactly e for both directions
            // (e was pre-negated for Min so that v >= ceil(e/c)).
            let repl = e;
            let next = piece.substitute_dim(v, &repl)?;
            let mut sols = sols.clone();
            sols.push(repl);
            rec(next, all_opt, depth + 1, dir, sols, out, budget)?;
            op.finish();
        } else {
            // v* = floor(e/c) (Max) or ceil(e/c) (Min): introduce aux q with
            //   Max: c·q <= e <= c·q + c − 1
            //   Min: c·q >= e >= c·q − c + 1  (q = ceil(e/c))
            let (next0, q) = add_aux(&piece);
            let n = next0.space().len();
            let qe = LinExpr::var(n, q);
            let e_ext = e.extend(1);
            let mut next = next0;
            match dir {
                Direction::Max => {
                    next.add(Constraint::ge(e_ext.sub(&qe.scale(c)?)?)); // e - c q >= 0
                    let mut hi = qe.scale(c)?.sub(&e_ext)?; // c q - e + (c-1) >= 0
                    hi.set_constant(hi.constant_term() + (c - 1));
                    next.add(Constraint::ge(hi));
                }
                Direction::Min => {
                    next.add(Constraint::ge(qe.scale(c)?.sub(&e_ext)?)); // c q - e >= 0
                    let mut lo = e_ext.sub(&qe.scale(c)?)?; // e - c q + (c-1) >= 0
                    lo.set_constant(lo.constant_term() + (c - 1));
                    next.add(Constraint::ge(lo));
                }
            }
            let repl = qe;
            let next = next.substitute_dim(v, &repl)?;
            let mut sols: Vec<LinExpr> = sols.iter().map(|s| s.extend(1)).collect();
            sols.push(repl);
            rec(next, all_opt, depth + 1, dir, sols, out, budget)?;
            op.finish();
        }
    }
    Ok(())
}

/// Appends a fresh auxiliary dimension, named by [`Space::add_aux`],
/// returning the extended polyhedron and the new dimension's index.
fn add_aux(p: &Polyhedron) -> (Polyhedron, usize) {
    let mut space = p.space().clone();
    let q = space.add_aux();
    let tail = Space::from_dims([(space.dim(q).name(), DimKind::Aux)]);
    (p.extend_space(&tail), q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DimKind, Space};

    fn sp(names: &[&str]) -> Space {
        Space::from_dims(names.iter().map(|&n| (n, DimKind::Index)))
    }

    fn ge(coeffs: Vec<i128>, c: i128) -> Constraint {
        Constraint::ge(LinExpr::from_coeffs(coeffs, c))
    }

    /// Brute-force lexmax for cross-checking.
    fn brute_lexmax(
        p: &Polyhedron,
        opt: &[usize],
        ctx: &[i128],
        range: std::ops::Range<i128>,
    ) -> Option<Vec<i128>> {
        let n = p.space().len();
        let mut best: Option<Vec<i128>> = None;
        let mut point = ctx.to_vec();
        assert_eq!(point.len(), n);
        fn go(
            p: &Polyhedron,
            opt: &[usize],
            k: usize,
            point: &mut Vec<i128>,
            range: &std::ops::Range<i128>,
            best: &mut Option<Vec<i128>>,
        ) {
            if k == opt.len() {
                if p.contains(point).unwrap() {
                    let key: Vec<i128> = opt.iter().map(|&d| point[d]).collect();
                    if best.as_ref().is_none_or(|b| key > *b) {
                        *best = Some(key);
                    }
                }
                return;
            }
            for v in range.clone() {
                point[opt[k]] = v;
                go(p, opt, k + 1, point, range, best);
            }
        }
        go(p, opt, 0, &mut point, &range, &mut best);
        best
    }

    /// Evaluates a piece's solution at a concrete context, solving for aux
    /// dims by searching a small range.
    fn eval_piece(
        piece: &LexPiece,
        ctx: &[i128],
        aux_range: std::ops::Range<i128>,
    ) -> Option<Vec<i128>> {
        let n = piece.context.space().len();
        let aux_dims: Vec<usize> = (ctx.len()..n).collect();
        let mut point = ctx.to_vec();
        point.resize(n, 0);
        fn go(
            piece: &LexPiece,
            aux: &[usize],
            k: usize,
            point: &mut Vec<i128>,
            range: &std::ops::Range<i128>,
        ) -> Option<Vec<i128>> {
            if k == aux.len() {
                if piece.context.contains(point).unwrap() {
                    return Some(
                        piece
                            .solution
                            .iter()
                            .map(|e| e.eval(point).unwrap())
                            .collect(),
                    );
                }
                return None;
            }
            for v in range.clone() {
                point[aux[k]] = v;
                if let Some(s) = go(piece, aux, k + 1, point, range) {
                    return Some(s);
                }
            }
            None
        }
        go(piece, &aux_dims, 0, &mut point, &aux_range)
    }

    #[test]
    fn single_upper_bound() {
        // max j, 0 <= j <= i.
        let mut p = Polyhedron::universe(sp(&["i", "j"]));
        p.add(ge(vec![0, 1], 0));
        p.add(ge(vec![1, -1], 0));
        let r = lexopt(&p, &[1], Direction::Max).unwrap();
        assert_eq!(r.pieces.len(), 1);
        assert_eq!(r.pieces[0].solution[0], LinExpr::from_coeffs(vec![1, 0], 0));
    }

    #[test]
    fn equality_determined() {
        // j == i - 3, j >= 0: classic last-write shape.
        let mut p = Polyhedron::universe(sp(&["i", "j"]));
        p.add(Constraint::eq(LinExpr::from_coeffs(vec![1, -1], -3)));
        p.add(ge(vec![0, 1], 0));
        let r = lexopt(&p, &[1], Direction::Max).unwrap();
        assert_eq!(r.pieces.len(), 1);
        assert_eq!(
            r.pieces[0].solution[0],
            LinExpr::from_coeffs(vec![1, 0], -3)
        );
        // Context requires i - 3 >= 0.
        assert!(r.pieces[0].context.contains(&[3, 99]).unwrap());
        assert!(!r.pieces[0].context.contains(&[2, 99]).unwrap());
    }

    #[test]
    fn two_upper_bounds_split() {
        // max j, j <= i, j <= 10 - i, j >= 0: bound switches at i == 5.
        let mut p = Polyhedron::universe(sp(&["i", "j"]));
        p.add(ge(vec![0, 1], 0));
        p.add(ge(vec![1, -1], 0)); // j <= i
        p.add(ge(vec![-1, -1], 10)); // j <= 10 - i
        let r = lexopt(&p, &[1], Direction::Max).unwrap();
        assert!(r.pieces.len() >= 2);
        for i in 0..=10i128 {
            let expected = brute_lexmax(&p, &[1], &[i, 0], -1..12);
            let mut got: Option<Vec<i128>> = None;
            let mut hits = 0;
            for piece in &r.pieces {
                if let Some(s) = eval_piece(piece, &[i, 0], -20..20) {
                    hits += 1;
                    got = Some(s);
                }
            }
            assert!(hits <= 1, "pieces overlap at i={i}");
            assert_eq!(got, expected, "i={i}");
        }
    }

    #[test]
    fn division_bound_introduces_aux() {
        // max j, 2j <= i, j >= 0: j* = floor(i/2).
        let mut p = Polyhedron::universe(sp(&["i", "j"]));
        p.add(ge(vec![0, 1], 0));
        p.add(ge(vec![1, -2], 0)); // 2j <= i
        let r = lexopt(&p, &[1], Direction::Max).unwrap();
        for i in 0..10i128 {
            let expected = brute_lexmax(&p, &[1], &[i, 0], -1..12);
            let mut got = None;
            for piece in &r.pieces {
                if let Some(s) = eval_piece(piece, &[i, 0], -20..20) {
                    got = Some(s);
                }
            }
            assert_eq!(got, expected, "i={i}");
        }
    }

    #[test]
    fn lexmin_mirrors_lexmax() {
        // min j, j >= i - 4, j >= 0 (two lower bounds).
        let mut p = Polyhedron::universe(sp(&["i", "j"]));
        p.add(ge(vec![-1, 1], 4)); // j >= i - 4
        p.add(ge(vec![0, 1], 0)); // j >= 0
        p.add(ge(vec![0, -1], 100));
        let r = lexopt(&p, &[1], Direction::Min).unwrap();
        for i in -3..12i128 {
            let n = p.space().len();
            // brute lexmin
            let mut expected: Option<Vec<i128>> = None;
            for j in -5..110i128 {
                let mut pt = vec![i, j];
                pt.resize(n, 0);
                if p.contains(&pt).unwrap() {
                    expected = Some(vec![j]);
                    break;
                }
            }
            let mut got = None;
            for piece in &r.pieces {
                if let Some(s) = eval_piece(piece, &[i, 0], -20..20) {
                    got = Some(s);
                }
            }
            assert_eq!(got, expected, "i={i}");
        }
    }

    #[test]
    fn two_level_lexmax() {
        // max (tw, iw) with tw <= tr - 1, 0 <= tw, iw == ir, 0 <= iw <= 100:
        // models a level-1 carried dependence.
        let mut p = Polyhedron::universe(sp(&["tr", "ir", "tw", "iw"]));
        p.add(ge(vec![1, 0, -1, 0], -1)); // tw <= tr - 1
        p.add(ge(vec![0, 0, 1, 0], 0)); // tw >= 0
        p.add(Constraint::eq(LinExpr::from_coeffs(vec![0, 1, 0, -1], 0))); // iw == ir
        p.add(ge(vec![0, 0, 0, 1], 0));
        p.add(ge(vec![0, 0, 0, -1], 100));
        let r = lexopt(&p, &[2, 3], Direction::Max).unwrap();
        assert_eq!(r.pieces.len(), 1);
        let piece = &r.pieces[0];
        // tw* = tr - 1, iw* = ir.
        assert_eq!(
            piece.solution[0],
            LinExpr::from_coeffs(vec![1, 0, 0, 0], -1)
        );
        assert_eq!(piece.solution[1], LinExpr::from_coeffs(vec![0, 1, 0, 0], 0));
    }

    #[test]
    fn infeasible_gives_no_pieces() {
        let mut p = Polyhedron::universe(sp(&["i", "j"]));
        p.add(ge(vec![0, 1], 0));
        p.add(ge(vec![0, -1], -1)); // j <= -1
        let r = lexopt(&p, &[1], Direction::Max).unwrap();
        assert!(r.pieces.is_empty());
    }

    #[test]
    fn unbounded_is_detected() {
        let p = Polyhedron::universe(sp(&["i", "j"]));
        assert_eq!(lexopt(&p, &[1], Direction::Max).unwrap_err(), {
            LexError::Unbounded
        });
    }
}
