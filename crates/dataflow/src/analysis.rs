//! Construction of Last Write Trees (paper §3.1, following the approach of
//! Maydan, Amarasinghe & Lam, PoPL '93).
//!
//! For one read access we enumerate *candidates*: (write statement,
//! dependence level) pairs, grouped newest first — a write carried at
//! level `k` before one carried at `k - 1`, and a loop-independent write
//! from a statement sharing `c` loops with the read between the levels
//! `c + 1` and `c`. Each candidate's last-write relation is a
//! parametric lexicographic maximum over the write iteration variables; the
//! read regions it covers are subtracted from the remaining domain before
//! lower-priority candidates are considered. What is left at the end reads
//! live-in data (the ⊥ leaf).

use std::cmp::Ordering;

use dmc_ir::{Aff, ArrayRef, Program, StmtInfo};
use dmc_polyhedra::{
    lexopt, Constraint, DimKind, Direction, LexError, LinExpr, PolyError, Polyhedron, Space,
};

use crate::lattice::LatticePiece;
use crate::lwt::{DepLevel, LastWriteTree, LwtLeaf, LwtSource};

/// Errors from LWT construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LwtError {
    /// The requested statement or read index does not exist.
    NoSuchRead {
        /// Statement id requested.
        stmt: usize,
        /// Read index requested.
        read_no: usize,
    },
    /// A group of reads passed to the hull constructor is not uniformly
    /// generated (their subscripts differ in more than constant terms).
    NotUniformlyGenerated,
    /// [`LastWriteTree::producer_at`] was asked about a point outside the
    /// read domain: no leaf covers it.
    Uncovered {
        /// The reading statement.
        stmt: usize,
        /// The read within it.
        read: usize,
        /// The read iteration, then the parameter values.
        point: Vec<i128>,
    },
    /// [`LastWriteTree::producer_at`] overflowed `i128` at a point.
    Overflow {
        /// The reading statement.
        stmt: usize,
        /// The read within it.
        read: usize,
        /// The read iteration, then the parameter values.
        point: Vec<i128>,
    },
    /// Polyhedral arithmetic failed.
    Poly(PolyError),
    /// Parametric lexicographic optimization failed.
    Lex(LexError),
}

impl From<PolyError> for LwtError {
    fn from(e: PolyError) -> Self {
        LwtError::Poly(e)
    }
}

impl From<LexError> for LwtError {
    fn from(e: LexError) -> Self {
        LwtError::Lex(e)
    }
}

impl std::fmt::Display for LwtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LwtError::NoSuchRead { stmt, read_no } => {
                write!(f, "statement {stmt} has no read #{read_no}")
            }
            LwtError::NotUniformlyGenerated => {
                f.write_str("reads are not uniformly generated (non-constant differences)")
            }
            LwtError::Uncovered { stmt, read, point } => write!(
                f,
                "no leaf of the tree of statement {stmt} read #{read} covers {point:?}"
            ),
            LwtError::Overflow { stmt, read, point } => write!(
                f,
                "the tree of statement {stmt} read #{read} overflows i128 at {point:?}"
            ),
            LwtError::Poly(e) => write!(f, "polyhedral arithmetic failed: {e}"),
            LwtError::Lex(e) => write!(f, "lexicographic optimization failed: {e}"),
        }
    }
}

impl std::error::Error for LwtError {}

/// Suffix appended to write-side loop variable names inside candidate
/// polyhedra (read-side variables keep their source names).
const WRITE_SUFFIX: &str = "$w";

/// Builds the Last Write Tree for read number `read_no` of statement
/// `stmt` (textual ids as produced by [`Program::statements`]).
///
/// # Errors
///
/// Returns [`LwtError`] when the read does not exist or the polyhedral
/// machinery fails (overflow, unbounded optimization).
pub fn build_lwt(
    program: &Program,
    stmt: usize,
    read_no: usize,
) -> Result<LastWriteTree, LwtError> {
    let stmts = program.statements();
    let sr = stmts
        .get(stmt)
        .ok_or(LwtError::NoSuchRead { stmt, read_no })?;
    let reads = sr.stmt.rhs.reads();
    let read = reads
        .get(read_no)
        .ok_or(LwtError::NoSuchRead { stmt, read_no })?;
    build_lwt_for_access(program, &stmts, sr, read_no, read, &[])
}

/// Builds a single LWT for a *uniformly generated group* of reads of the
/// same array in one statement (paper §6.1.2, Figure 9): the reads must
/// differ only in constant subscript terms. The group is replaced by a hull
/// access with fresh offset dimensions `$u0, $u1, …`: the hull subscript in
/// dimension `d` is `linear_part + $u<d>` with `$u<d>` ranging over the
/// group's constant-term interval (so `X[i], X[i-1], …, X[i-3]` becomes
/// `X[i + u]`, `-3 <= u <= 0` — the paper writes the equivalent
/// `X[i - u], 0 <= u <= 3`). The tree's `read_dims` include the offset
/// dimensions after the loop variables.
///
/// # Errors
///
/// [`LwtError::NotUniformlyGenerated`] if subscripts differ in more than
/// constants; otherwise as [`build_lwt`].
pub fn build_lwt_hull(
    program: &Program,
    stmt: usize,
    read_nos: &[usize],
) -> Result<LastWriteTree, LwtError> {
    let stmts = program.statements();
    let sr = stmts
        .get(stmt)
        .ok_or(LwtError::NoSuchRead { stmt, read_no: 0 })?;
    let reads = sr.stmt.rhs.reads();
    let group: Vec<&ArrayRef> = read_nos
        .iter()
        .map(|&k| {
            reads
                .get(k)
                .copied()
                .ok_or(LwtError::NoSuchRead { stmt, read_no: k })
        })
        .collect::<Result<_, _>>()?;
    let first = group
        .first()
        .ok_or(LwtError::NoSuchRead { stmt, read_no: 0 })?;
    let ndim = first.idx.len();
    // Verify uniform generation and compute per-dimension offset ranges.
    let mut lo = vec![i128::MAX; ndim];
    let mut hi = vec![i128::MIN; ndim];
    for r in &group {
        if r.array != first.array || r.idx.len() != ndim {
            return Err(LwtError::NotUniformlyGenerated);
        }
        for d in 0..ndim {
            let diff = r.idx[d].clone() - first.idx[d].clone();
            if !diff.is_constant() {
                return Err(LwtError::NotUniformlyGenerated);
            }
            let c = r.idx[d].constant_term();
            lo[d] = lo[d].min(c);
            hi[d] = hi[d].max(c);
        }
    }
    // Hull access: linear part of the first read with the constant replaced
    // by a fresh offset variable $u<d> constrained to [lo, hi].
    let mut hull_idx = Vec::with_capacity(ndim);
    let mut extra_dims = Vec::new();
    for d in 0..ndim {
        let linear = first.idx[d].clone() - Aff::constant(first.idx[d].constant_term());
        if lo[d] == hi[d] {
            hull_idx.push(linear + Aff::constant(lo[d]));
        } else {
            let u = format!("$u{d}");
            hull_idx.push(linear + Aff::var(u.clone()));
            extra_dims.push((u, lo[d], hi[d]));
        }
    }
    let hull = ArrayRef::new(first.array.clone(), hull_idx);
    build_lwt_for_access(program, &stmts, sr, read_nos[0], &hull, &extra_dims)
}

/// One candidate (write statement, level).
struct Candidate<'a> {
    sw: &'a StmtInfo,
    level: DepLevel,
}

fn build_lwt_for_access(
    program: &Program,
    stmts: &[StmtInfo],
    sr: &StmtInfo,
    read_no: usize,
    read: &ArrayRef,
    extra_read_dims: &[(String, i128, i128)],
) -> Result<LastWriteTree, LwtError> {
    let array = read.array.clone();
    let mut read_dims: Vec<String> = sr.loop_vars().iter().map(|s| (*s).to_string()).collect();
    for (u, _, _) in extra_read_dims {
        read_dims.push(u.clone());
    }

    // Base space: read dims, then params.
    let index = read_dims.iter().map(|v| (v.as_str(), DimKind::Index));
    let params = program.params.iter().map(|p| (p.as_str(), DimKind::Param));
    let base_space = Space::from_dims(index.chain(params));
    let mut read_domain = sr.domain(&base_space, &[]);
    add_offset_bounds(&mut read_domain, &base_space, extra_read_dims);

    // Candidates: every statement writing this array, at every level, in
    // groups of equal recency, newest first. Against the read, a write
    // carried at level `k` is newer than one carried at a shallower level;
    // a loop-independent write from a statement sharing `c` loops with the
    // read (same iteration of those loops, textually earlier) is newer
    // than any carried at `k <= c` and older than any carried at `k > c`.
    // So Independent with `c` common loops ranks `2c + 1`, Carried(k) `2k`.
    let mut ranked: Vec<(usize, Candidate<'_>)> = Vec::new();
    for sw in stmts.iter().filter(|s| s.stmt.write.array == array) {
        let c = sw.common_loops(sr);
        if sw.id != sr.id && sw.textually_before(sr) {
            let level = DepLevel::Independent;
            ranked.push((2 * c + 1, Candidate { sw, level }));
        }
        for k in 1..=c {
            let level = DepLevel::Carried(k);
            ranked.push((2 * k, Candidate { sw, level }));
        }
    }
    // Later textual statements win ties; process them first.
    ranked.sort_by(|(ra, a), (rb, b)| (rb, &b.sw.position).cmp(&(ra, &a.sw.position)));

    let mut remaining: Vec<LatticePiece> = vec![LatticePiece::from_poly(read_domain.clone())];
    let mut leaves: Vec<LwtLeaf> = Vec::new();
    let mut approximate = false;

    for group in ranked.chunk_by(|(ra, _), (rb, _)| ra == rb) {
        // Pass 1: solve every candidate in the group.
        struct Entry<'a> {
            cand: &'a Candidate<'a>,
            piece: Piece,
            order: usize,
        }
        let mut entries: Vec<Entry<'_>> = Vec::new();
        for (_, cand) in group {
            let pieces = candidate_pieces(program, sr, read, &read_dims, extra_read_dims, cand)?;
            for piece in pieces {
                let order = entries.len();
                entries.push(Entry { cand, piece, order });
            }
        }

        // Pass 2: trim each piece's coverage to the regions where its write
        // is the latest among all same-group candidates: lexicographically
        // over the loops the two writers share, ties broken by textual
        // position, then solve order.
        for p in 0..entries.len() {
            if entries[p].piece.approx_coverage {
                approximate = true;
            }
            let mut regions: Vec<LatticePiece> = vec![entries[p].piece.coverage.clone()];
            for q in 0..entries.len() {
                if q == p || entries[p].cand.sw.id == entries[q].cand.sw.id {
                    // Pieces of the same candidate have disjoint contexts.
                    continue;
                }
                let mut next_regions = Vec::new();
                for r in regions {
                    let overlap = r.intersect(&entries[q].piece.coverage);
                    if !overlap.feasible()? {
                        next_regions.push(r);
                        continue;
                    }
                    // Non-overlapping part survives unconditionally.
                    next_regions.extend(r.subtract(&entries[q].piece.coverage)?);
                    match (
                        &entries[p].piece.solution_base,
                        &entries[q].piece.solution_base,
                    ) {
                        (Some(mine), Some(theirs)) => {
                            let m = entries[p].cand.sw.common_loops(entries[q].cand.sw);
                            let splits = lex_split(&overlap.poly, &mine[..m], &theirs[..m])?;
                            for (region_poly, ord) in splits {
                                let keep = match ord {
                                    Ordering::Greater => true,
                                    Ordering::Less => false,
                                    Ordering::Equal => {
                                        // Same iteration of every shared
                                        // loop: the textually later
                                        // assignment produces the value.
                                        (&entries[p].cand.sw.position, entries[p].order)
                                            > (&entries[q].cand.sw.position, entries[q].order)
                                    }
                                };
                                if keep {
                                    let cand_region = LatticePiece {
                                        poly: region_poly,
                                        divs: overlap.divs.clone(),
                                    };
                                    if cand_region.feasible()? {
                                        next_regions.push(cand_region);
                                    }
                                }
                            }
                        }
                        _ => {
                            // Cannot compare symbolically: the earlier-solved
                            // entry keeps the overlap; flag the approximation.
                            approximate = true;
                            if entries[p].order < entries[q].order {
                                next_regions.push(overlap);
                            }
                        }
                    }
                }
                regions = next_regions;
            }

            // Emit leaves: regions ∩ remaining.
            let piece = &entries[p].piece;
            let cand = entries[p].cand;
            for region in &regions {
                for rem in &remaining {
                    let ctx_base = region.intersect(rem);
                    if !ctx_base.feasible()? {
                        continue;
                    }
                    // Rebuild the full context in the piece's leaf space
                    // (base + piece aux + divisibility aux): embed the base
                    // region and intersect with the piece's own context.
                    let ctx_base_poly = ctx_base.to_polyhedron();
                    let n_div_aux = ctx_base_poly.space().len() - ctx_base.poly.space().len();
                    // Order: base, piece aux, then divisibility aux — embed
                    // the base+divaux polyhedron by remapping.
                    let mut leaf_space = piece.context.space().clone();
                    let base_len = ctx_base.poly.space().len();
                    let mut map: Vec<usize> = (0..base_len).collect();
                    for d in 0..n_div_aux {
                        let name = ctx_base_poly.space().dim(base_len + d).name().to_owned();
                        map.push(leaf_space.add_dim(name, dmc_polyhedra::DimKind::Aux));
                    }
                    let embedded = ctx_base_poly.remap(leaf_space.clone(), &map);
                    let piece_ctx = piece
                        .context
                        .extend_space(&leaf_space.tail(piece.context.space().len()));
                    let ctx_full = embedded.intersect(&piece_ctx);
                    if !ctx_full.integer_feasibility()?.possibly_feasible() {
                        continue;
                    }
                    let extra = leaf_space.len() - piece.context.space().len();
                    leaves.push(LwtLeaf {
                        space: leaf_space,
                        context: ctx_full,
                        source: Some(LwtSource {
                            write_stmt: cand.sw.id,
                            write_iter: piece.write_iter.iter().map(|e| e.extend(extra)).collect(),
                            level: cand.level,
                        }),
                    });
                }
            }

            // Subtract the claimed regions from `remaining`.
            let mut next_remaining = Vec::new();
            for rem in remaining {
                let mut shrunk = vec![rem];
                for region in &regions {
                    let mut tmp = Vec::new();
                    for piece_rem in shrunk {
                        tmp.extend(piece_rem.subtract(region)?);
                    }
                    shrunk = tmp;
                }
                next_remaining.extend(shrunk);
            }
            remaining = next_remaining;
        }
    }

    // Whatever is left reads live-in data: the ⊥ leaves.
    for ctx in remaining.iter().map(LatticePiece::to_polyhedron) {
        if ctx.integer_feasibility()?.possibly_feasible() {
            leaves.push(LwtLeaf {
                space: ctx.space().clone(),
                context: ctx,
                source: None,
            });
        }
    }

    Ok(LastWriteTree {
        read_stmt: sr.id,
        read_no,
        array,
        read_dims,
        leaves,
        approximate,
    })
}

/// Bounds each hull offset dimension `(u, lo, hi)` to `lo <= u <= hi`.
fn add_offset_bounds(poly: &mut Polyhedron, space: &Space, offsets: &[(String, i128, i128)]) {
    for (u, lo, hi) in offsets {
        let v = Aff::var(u.clone());
        poly.add(Constraint::ge(
            (v.clone() - Aff::constant(*lo)).to_linexpr(space),
        ));
        poly.add(Constraint::ge((Aff::constant(*hi) - v).to_linexpr(space)));
    }
}

/// One solved piece of a candidate's last-write relation.
struct Piece {
    /// Context over base space + aux dims (write dims projected away).
    context: Polyhedron,
    /// The read regions this piece covers, over the base space (exact as a
    /// lattice piece unless `approx_coverage`).
    coverage: LatticePiece,
    /// Whether `coverage` is a rational over-approximation (unpinned
    /// auxiliary dimensions).
    approx_coverage: bool,
    /// Write iteration over the piece's leaf space.
    write_iter: Vec<LinExpr>,
    /// Write iteration over the base space when expressible there.
    solution_base: Option<Vec<LinExpr>>,
}

/// Builds and solves the candidate polyhedron for (read, write stmt, level):
/// read domain ∧ write domain ∧ access equality ∧ level ordering, then
/// parametric lexmax over the write iteration variables.
fn candidate_pieces(
    program: &Program,
    sr: &StmtInfo,
    read: &ArrayRef,
    read_dims: &[String],
    extra_read_dims: &[(String, i128, i128)],
    cand: &Candidate<'_>,
) -> Result<Vec<Piece>, LwtError> {
    let sw = cand.sw;
    let wvars: Vec<String> = sw
        .loop_vars()
        .iter()
        .map(|v| format!("{v}{WRITE_SUFFIX}"))
        .collect();
    let renames: Vec<(&str, &str)> = sw
        .loop_vars()
        .iter()
        .zip(&wvars)
        .map(|(v, w)| (*v, w.as_str()))
        .collect();

    // Space: read dims, write dims, params.
    let index = read_dims
        .iter()
        .chain(&wvars)
        .map(|v| (v.as_str(), DimKind::Index));
    let params = program.params.iter().map(|p| (p.as_str(), DimKind::Param));
    let space = Space::from_dims(index.chain(params));
    let wdims: Vec<usize> = (read_dims.len()..read_dims.len() + wvars.len()).collect();

    let mut poly = sr.domain(&space, &[]);
    add_offset_bounds(&mut poly, &space, extra_read_dims);
    poly = poly.intersect(&sw.domain(&space, &renames));

    // Access equality: f_w(i_w) == f_r(i_r) per array dimension.
    debug_assert_eq!(sw.stmt.write.idx.len(), read.idx.len());
    for (wd, rd) in sw.stmt.write.idx.iter().zip(&read.idx) {
        let we = wd.to_linexpr_renamed(&space, &renames);
        let re = rd.to_linexpr(&space);
        poly.add(Constraint::eq_pair(&we, &re)?);
    }

    // Ordering constraints for the level: equal iterations of the loops
    // outside it, then for a carried level w_{k-1} <= r_{k-1} - 1.
    let var = |name: &str| LinExpr::var(space.len(), space.index_of(name).unwrap());
    let equal = match cand.level {
        DepLevel::Independent => sw.common_loops(sr),
        DepLevel::Carried(k) => k - 1,
    };
    for (j, wvar) in wvars.iter().enumerate().take(equal) {
        poly.add(Constraint::eq_pair(&var(wvar), &var(&sr.loops[j].var))?);
    }
    if let DepLevel::Carried(k) = cand.level {
        let mut diff = var(&sr.loops[k - 1].var).sub(&var(&wvars[k - 1]))?;
        diff.set_constant(diff.constant_term() - 1);
        poly.add(Constraint::ge(diff));
    }

    if poly.is_obviously_empty() || !poly.integer_feasibility()?.possibly_feasible() {
        return Ok(Vec::new());
    }

    // Parametric lexmax over write dims.
    let solved = lexopt(&poly, &wdims, Direction::Max)?;
    let base_len = space.len();
    let mut pieces = Vec::new();
    for lp in solved.pieces {
        let full_space = lp.context.space().clone();
        let n_full = full_space.len();
        let has_aux = n_full > base_len;

        // Leaf space: base dims except write dims, plus aux.
        let keep: Vec<usize> = (0..n_full).filter(|d| !wdims.contains(d)).collect();
        let context = lp.context.project_onto(&keep)?;
        let leaf_space = context.space().clone();
        // Remap solutions into the leaf space.
        let map: Vec<usize> = (0..n_full)
            .map(|d| keep.iter().position(|&k| k == d).unwrap_or(usize::MAX))
            .collect();
        let write_iter: Vec<LinExpr> = lp
            .solution
            .iter()
            .map(|e| {
                debug_assert!(wdims.iter().all(|&wd| e.coeff(wd) == 0));
                let mut coeffs = vec![0i128; keep.len()];
                for d in 0..n_full {
                    if e.coeff(d) != 0 {
                        coeffs[map[d]] = e.coeff(d);
                    }
                }
                LinExpr::from_coeffs(coeffs, e.constant_term())
            })
            .collect();

        // Coverage in base space: exact via the lattice representation when
        // every auxiliary dimension is pinned; rational fallback otherwise.
        let n_base_dims = leaf_space
            .iter()
            .take_while(|d| d.kind() != DimKind::Aux)
            .count();
        let (coverage, approx_coverage) =
            match LatticePiece::from_aux_polyhedron(&context, n_base_dims)? {
                Some(piece) => (piece, false),
                None => {
                    let base_keep: Vec<usize> = (0..n_base_dims).collect();
                    (
                        LatticePiece::from_poly(context.project_onto(&base_keep)?),
                        true,
                    )
                }
            };

        let solution_base = (!has_aux).then(|| write_iter.clone());

        pieces.push(Piece {
            context,
            coverage,
            approx_coverage,
            write_iter,
            solution_base,
        });
    }
    Ok(pieces)
}

/// Splits `region` into disjoint pieces by the lexicographic comparison of
/// two affine vectors, returning `(piece, ordering of a vs b)` triples.
fn lex_split(
    region: &Polyhedron,
    a: &[LinExpr],
    b: &[LinExpr],
) -> Result<Vec<(Polyhedron, Ordering)>, LwtError> {
    assert_eq!(a.len(), b.len(), "lex compare of different arities");
    let mut out = Vec::new();
    let mut prefix = region.clone();
    for (ea, eb) in a.iter().zip(b) {
        // a > b, then a < b, at this component.
        for (x, y, ord) in [(ea, eb, Ordering::Greater), (eb, ea, Ordering::Less)] {
            let mut strict = prefix.clone();
            let mut diff = x.sub(y)?;
            diff.set_constant(diff.constant_term() - 1);
            strict.add(Constraint::ge(diff));
            if strict.integer_feasibility()?.possibly_feasible() {
                out.push((strict, ord));
            }
        }
        // Continue with a == b.
        prefix.add(Constraint::eq_pair(ea, eb)?);
        if prefix.is_obviously_empty() {
            return Ok(out);
        }
    }
    if prefix.integer_feasibility()?.possibly_feasible() {
        out.push((prefix, Ordering::Equal));
    }
    Ok(out)
}
