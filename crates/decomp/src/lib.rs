//! # dmc-decomp
//!
//! Data and computation decompositions (paper §4.2–4.3) as systems of
//! linear inequalities.
//!
//! A *data decomposition* `D ⊆ A × P` (Definition 1) relates array elements
//! to the (virtual) processors holding a copy:
//!
//! ```text
//! b_k · p_k − d_l  <=  U_k(a) − t_k  <=  b_k · (p_k + 1) − 1 + d_h
//! ```
//!
//! per processor dimension `k`, where `U_k` is a row of an extended
//! unimodular matrix (selection/reversal/skewing), `t_k` a shift, `b_k` the
//! block size and `d_l, d_h` the overlaps. This covers every example of the
//! paper's Figure 4: blocked, cyclic, block-cyclic, replicated, shifted,
//! skewed and overlapped decompositions. A *computation decomposition*
//! `C ⊆ I × P` (Definition 2) is the same shape without overlap, and maps
//! each iteration to exactly one processor.
//!
//! The paper's Theorem 1 (the owner-computes rule) derives a computation
//! decomposition from a data decomposition and a write access; that is
//! [`owner_computes`].
//!
//! Cyclic distributions map to a *virtual* processor space that is folded
//! onto physical processors (`π(p) = p mod P`); [`ProcGrid`] carries the
//! physical extents and performs the folding.

#![warn(missing_docs)]

use std::fmt;

use dmc_ir::{Aff, StmtInfo};
use dmc_polyhedra::codec::{Codec, Enc};
use dmc_polyhedra::{Constraint, DimKind, Polyhedron, Space};

/// One (virtual) processor dimension of a decomposition.
///
/// Meaning: `block·p − overlap_lo <= expr <= block·(p+1) − 1 + overlap_hi`,
/// with `expr` an affine function of the array subscripts (data
/// decompositions, canonical names `a0, a1, …`) or the loop variables
/// (computation decompositions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DimMap {
    /// The affine function `U_k(·) − t_k` mapped onto this processor dim.
    pub expr: Aff,
    /// Block size `b_k >= 1` (`1` = cyclic over virtual processors).
    pub block: i128,
    /// How many extra elements below the block each processor also holds.
    pub overlap_lo: i128,
    /// How many extra elements above the block each processor also holds.
    pub overlap_hi: i128,
}

impl DimMap {
    /// A plain blocked mapping of `expr` with block size `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block < 1`.
    pub fn block(expr: Aff, block: i128) -> Self {
        assert!(block >= 1, "block size must be >= 1");
        DimMap {
            expr,
            block,
            overlap_lo: 0,
            overlap_hi: 0,
        }
    }

    /// A cyclic mapping (block size 1 over virtual processors).
    pub fn cyclic(expr: Aff) -> Self {
        DimMap::block(expr, 1)
    }

    /// Adds overlap (border replication) to the mapping.
    ///
    /// # Panics
    ///
    /// Panics if an overlap is negative.
    pub fn with_overlap(mut self, lo: i128, hi: i128) -> Self {
        assert!(lo >= 0 && hi >= 0, "overlaps must be non-negative");
        self.overlap_lo = lo;
        self.overlap_hi = hi;
        self
    }

    /// Emits the two constraints of this dimension into `poly`.
    ///
    /// `proc_dim` is the dimension index of `p_k` in the polyhedron's
    /// space; `renames` maps the `expr`'s variable names into that space.
    fn constrain(&self, poly: &mut Polyhedron, proc_dim: usize, renames: &[(&str, &str)]) {
        let space = poly.space().clone();
        let e = self.expr.to_linexpr_renamed(&space, renames);
        let p = dmc_polyhedra::LinExpr::var(space.len(), proc_dim);
        if self.block == 1 && self.overlap_lo == 0 && self.overlap_hi == 0 {
            // Cyclic: p == expr, as a single equality so downstream code
            // generation sees the degenerate dimension directly.
            poly.add(Constraint::eq(e.sub(&p).expect("decomp overflow")));
            return;
        }
        // e - b·p + d_l >= 0.
        let mut lo = e
            .clone()
            .sub(&p.scaled(self.block))
            .expect("decomp overflow");
        lo.set_constant(lo.constant_term() + self.overlap_lo);
        poly.add(Constraint::ge(lo));
        // b·p + b - 1 + d_h - e >= 0.
        let mut hi = p.scaled(self.block).sub(&e).expect("decomp overflow");
        hi.set_constant(hi.constant_term() + self.block - 1 + self.overlap_hi);
        poly.add(Constraint::ge(hi));
    }

    /// Writes the mapping into a stage key, in field order. Write-only:
    /// nothing stores a decomposition, so none is ever decoded.
    pub fn encode(&self, e: &mut Enc) {
        self.expr.encode(e);
        e.i128(self.block);
        e.i128(self.overlap_lo);
        e.i128(self.overlap_hi);
    }
}

/// Writes a decomposition's mappings: their count, then each in order.
fn encode_maps(maps: &[DimMap], e: &mut Enc) {
    e.usize(maps.len());
    for m in maps {
        m.encode(e);
    }
}

/// A data decomposition relation `D ⊆ A × P` (paper Definition 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataDecomp {
    /// Which array this decomposition applies to.
    pub array: String,
    /// Number of array dimensions (subscripts are named `a0 … a<n-1>`).
    pub array_ndim: usize,
    /// One mapping per virtual processor dimension; empty = full
    /// replication (every processor holds the whole array).
    pub maps: Vec<DimMap>,
}

impl DataDecomp {
    /// Full replication of the array on a processor grid.
    pub fn replicated(array: impl Into<String>, array_ndim: usize) -> Self {
        DataDecomp {
            array: array.into(),
            array_ndim,
            maps: Vec::new(),
        }
    }

    /// Distributes array dimension `dim` in blocks of `block` over a 1-D
    /// processor grid; other dimensions stay local.
    pub fn block_1d(array: impl Into<String>, array_ndim: usize, dim: usize, block: i128) -> Self {
        DataDecomp {
            array: array.into(),
            array_ndim,
            maps: vec![DimMap::block(Aff::var(format!("a{dim}")), block)],
        }
    }

    /// Distributes array dimension `dim` cyclically (block 1 over virtual
    /// processors) over a 1-D processor grid.
    pub fn cyclic_1d(array: impl Into<String>, array_ndim: usize, dim: usize) -> Self {
        DataDecomp {
            array: array.into(),
            array_ndim,
            maps: vec![DimMap::cyclic(Aff::var(format!("a{dim}")))],
        }
    }

    /// A general decomposition from explicit per-processor-dimension maps.
    pub fn from_maps(array: impl Into<String>, array_ndim: usize, maps: Vec<DimMap>) -> Self {
        DataDecomp {
            array: array.into(),
            array_ndim,
            maps,
        }
    }

    /// Number of virtual processor dimensions.
    pub fn proc_ndim(&self) -> usize {
        self.maps.len()
    }

    /// Canonical array-subscript dimension names `a0 … a<n-1>`.
    pub fn array_dim_names(&self) -> Vec<String> {
        (0..self.array_ndim).map(|d| format!("a{d}")).collect()
    }

    /// Emits `D`'s constraints into `poly`. `array_dims` are the positions
    /// of the array subscript dimensions in the polyhedron's space (one per
    /// array dimension) and `proc_dims` the positions of the processor
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics when dimension counts disagree with the declaration.
    pub fn constrain(&self, poly: &mut Polyhedron, array_dims: &[usize], proc_dims: &[usize]) {
        assert_eq!(
            array_dims.len(),
            self.array_ndim,
            "array dimension count mismatch"
        );
        assert_eq!(
            proc_dims.len(),
            self.maps.len(),
            "processor dimension count mismatch"
        );
        let space = poly.space().clone();
        let names: Vec<String> = self.array_dim_names();
        let renames: Vec<(&str, &str)> = names
            .iter()
            .enumerate()
            .map(|(d, n)| (n.as_str(), space.dim(array_dims[d]).name()))
            .collect();
        for (k, m) in self.maps.iter().enumerate() {
            m.constrain(poly, proc_dims[k], &renames);
        }
    }

    /// Builds the full relation polyhedron over a fresh space
    /// `[a0 … a<n-1>, p0 … p<q-1>, params…]`.
    pub fn relation(&self, params: &[String]) -> Polyhedron {
        let mut space = Space::new();
        for n in self.array_dim_names() {
            space.add_dim(n, DimKind::Array);
        }
        let mut proc_dims = Vec::new();
        for k in 0..self.maps.len() {
            proc_dims.push(space.add_dim(format!("p{k}"), DimKind::Proc));
        }
        for p in params {
            space.add_dim(p.clone(), DimKind::Param);
        }
        let array_dims: Vec<usize> = (0..self.array_ndim).collect();
        let mut poly = Polyhedron::universe(space);
        self.constrain(&mut poly, &array_dims, &proc_dims);
        poly
    }

    /// Whether processor `procs` holds a copy of `element` (ignoring array
    /// bounds, which the decomposition does not know).
    pub fn owns(&self, element: &[i128], procs: &[i128]) -> bool {
        assert_eq!(element.len(), self.array_ndim);
        assert_eq!(procs.len(), self.maps.len());
        for (k, m) in self.maps.iter().enumerate() {
            let e = m.expr.eval(&|v| {
                let d: usize = v
                    .strip_prefix('a')
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("unexpected variable {v} in data decomposition"));
                element[d]
            });
            let p = procs[k];
            if e < m.block * p - m.overlap_lo || e > m.block * (p + 1) - 1 + m.overlap_hi {
                return false;
            }
        }
        true
    }

    /// Writes the decomposition into a stage key, in field order.
    pub fn encode(&self, e: &mut Enc) {
        e.str(&self.array);
        e.usize(self.array_ndim);
        encode_maps(&self.maps, e);
    }
}

impl fmt::Display for DataDecomp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.maps.is_empty() {
            return write!(f, "D({}) = replicated", self.array);
        }
        write!(f, "D({}) = {{ ", self.array)?;
        for (k, m) in self.maps.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}·p{} <= {} < {}·(p{}+1)",
                m.block, k, m.expr, m.block, k
            )?;
            if m.overlap_lo != 0 || m.overlap_hi != 0 {
                write!(f, " (±{}/{})", m.overlap_lo, m.overlap_hi)?;
            }
        }
        write!(f, " }}")
    }
}

/// A computation decomposition `C ⊆ I × P` for one statement (paper
/// Definition 2): each iteration executes on exactly one processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompDecomp {
    /// The statement (textual id) this decomposition applies to.
    pub stmt: usize,
    /// One mapping per virtual processor dimension, over the statement's
    /// loop variable names.
    pub maps: Vec<DimMap>,
}

impl CompDecomp {
    /// Maps iterations to processors by blocks of `block` of loop variable
    /// `var` on a 1-D grid.
    pub fn block_1d(stmt: usize, var: impl Into<String>, block: i128) -> Self {
        CompDecomp {
            stmt,
            maps: vec![DimMap::block(Aff::var(var.into()), block)],
        }
    }

    /// Maps iterations cyclically by loop variable `var` (virtual processor
    /// `p = var`).
    pub fn cyclic_1d(stmt: usize, var: impl Into<String>) -> Self {
        CompDecomp {
            stmt,
            maps: vec![DimMap::cyclic(Aff::var(var.into()))],
        }
    }

    /// A general decomposition from explicit maps.
    pub fn from_maps(stmt: usize, maps: Vec<DimMap>) -> Self {
        CompDecomp { stmt, maps }
    }

    /// Number of virtual processor dimensions.
    pub fn proc_ndim(&self) -> usize {
        self.maps.len()
    }

    /// Emits `C`'s constraints into `poly`; `renames` maps the statement's
    /// loop variable names to the polyhedron's dimension names, and
    /// `proc_dims` locates the processor dimensions.
    ///
    /// # Panics
    ///
    /// Panics when processor dimension counts disagree.
    pub fn constrain(&self, poly: &mut Polyhedron, renames: &[(&str, &str)], proc_dims: &[usize]) {
        assert_eq!(
            proc_dims.len(),
            self.maps.len(),
            "processor dimension count mismatch"
        );
        for (k, m) in self.maps.iter().enumerate() {
            m.constrain(poly, proc_dims[k], renames);
        }
    }

    /// The virtual processor that executes the given iteration.
    pub fn processor_of(&self, iter: &[i128], loop_vars: &[&str]) -> Vec<i128> {
        self.maps
            .iter()
            .map(|m| {
                let e = m.expr.eval(&|v| {
                    let d = loop_vars
                        .iter()
                        .position(|lv| *lv == v)
                        .unwrap_or_else(|| panic!("variable {v} is not a loop variable"));
                    iter[d]
                });
                dmc_polyhedra::num::div_floor(e, m.block)
            })
            .collect()
    }

    /// Writes the decomposition into a stage key, in field order.
    pub fn encode(&self, e: &mut Enc) {
        e.usize(self.stmt);
        encode_maps(&self.maps, e);
    }
}

impl fmt::Display for CompDecomp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C(S{}) = {{ ", self.stmt)?;
        for (k, m) in self.maps.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}·p{} <= {} < {}·(p{}+1)",
                m.block, k, m.expr, m.block, k
            )?;
        }
        write!(f, " }}")
    }
}

/// Errors from decomposition derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecompError {
    /// The owner-computes rule requires the written data to be unreplicated
    /// (no overlap, non-replicated); see paper §2.2.1.
    WrittenDataReplicated,
    /// The statement does not write the decomposed array.
    ArrayMismatch {
        /// The decomposition's array.
        expected: String,
        /// The statement's written array.
        found: String,
    },
}

impl fmt::Display for DecompError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompError::WrittenDataReplicated => write!(
                f,
                "owner-computes requires an unreplicated decomposition of the written data"
            ),
            DecompError::ArrayMismatch { expected, found } => {
                write!(f, "statement writes {found}, not {expected}")
            }
        }
    }
}

impl std::error::Error for DecompError {}

/// Theorem 1: derives the computation decomposition for `stmt` from the
/// data decomposition of the array it writes, under the owner-computes rule
/// (`C = D ∘ f_w`).
///
/// # Errors
///
/// * [`DecompError::ArrayMismatch`] if `stmt` writes a different array;
/// * [`DecompError::WrittenDataReplicated`] if `d` replicates the written
///   data (overlap or full replication), which the owner-computes rule
///   cannot handle (paper §2.2.1).
pub fn owner_computes(d: &DataDecomp, stmt: &StmtInfo) -> Result<CompDecomp, DecompError> {
    if stmt.stmt.write.array != d.array {
        return Err(DecompError::ArrayMismatch {
            expected: d.array.clone(),
            found: stmt.stmt.write.array.clone(),
        });
    }
    if d.maps.is_empty()
        || d.maps
            .iter()
            .any(|m| m.overlap_lo != 0 || m.overlap_hi != 0)
    {
        return Err(DecompError::WrittenDataReplicated);
    }
    // Compose each processor-dimension map with the write access:
    // expr(a0 … a<n-1>) ∘ (a_d := f_w_d(i)).
    let mut maps = Vec::with_capacity(d.maps.len());
    for m in &d.maps {
        let mut composed = m.expr.clone();
        for (dim, sub) in stmt.stmt.write.idx.iter().enumerate() {
            composed = composed.substitute(&format!("a{dim}"), sub);
        }
        maps.push(DimMap {
            expr: composed,
            block: m.block,
            overlap_lo: 0,
            overlap_hi: 0,
        });
    }
    Ok(CompDecomp {
        stmt: stmt.id,
        maps,
    })
}

/// The physical processor grid: extents per dimension, with the cyclic
/// virtual→physical folding `π(p)_k = p_k mod P_k` (paper §4.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcGrid {
    extents: Vec<i128>,
}

impl ProcGrid {
    /// A grid with the given physical extents (all `>= 1`).
    ///
    /// # Panics
    ///
    /// Panics if any extent is `< 1`, or if the grid has more processors
    /// than `i64` counts.
    pub fn new(extents: Vec<i128>) -> Self {
        assert!(extents.iter().all(|&e| e >= 1), "grid extents must be >= 1");
        assert!(!extents.is_empty(), "grid needs at least one dimension");
        let size = extents
            .iter()
            .try_fold(1i64, |n, &e| n.checked_mul(i64::try_from(e).ok()?));
        assert!(size.is_some(), "a grid has at most i64::MAX processors");
        ProcGrid { extents }
    }

    /// A 1-D grid of `p` processors.
    pub fn line(p: i128) -> Self {
        ProcGrid::new(vec![p])
    }

    /// Number of grid dimensions.
    pub fn ndim(&self) -> usize {
        self.extents.len()
    }

    /// Physical extents per dimension.
    pub fn extents(&self) -> &[i128] {
        &self.extents
    }

    /// Total number of physical processors.
    pub fn len(&self) -> i128 {
        self.extents.iter().product()
    }

    /// Always `false`: a grid has at least one processor.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Folds a virtual processor onto its physical processor.
    pub fn fold(&self, virt: &[i128]) -> Vec<i128> {
        assert_eq!(virt.len(), self.extents.len());
        virt.iter()
            .zip(&self.extents)
            .map(|(&v, &e)| dmc_polyhedra::num::mod_floor(v, e))
            .collect()
    }

    /// The rank of the physical processor a virtual processor folds onto:
    /// [`ProcGrid::rank`] of [`ProcGrid::fold`], without the intermediate
    /// coordinate vector, in the `i64` of the points the planner scans.
    pub fn fold_rank(&self, virt: &[i64]) -> i64 {
        assert_eq!(virt.len(), self.extents.len());
        virt.iter().zip(&self.extents).fold(0, |r, (&v, &e)| {
            // `new` keeps the grid's size, and so each extent, within i64.
            let e = e as i64;
            r * e + v.rem_euclid(e)
        })
    }

    /// Linearizes a physical processor coordinate to a rank in
    /// `0..self.len()` (row-major).
    pub fn rank(&self, phys: &[i128]) -> i128 {
        assert_eq!(phys.len(), self.extents.len());
        let mut r = 0;
        for (k, &p) in phys.iter().enumerate() {
            debug_assert!(p >= 0 && p < self.extents[k]);
            r = r * self.extents[k] + p;
        }
        r
    }

    /// Inverse of [`ProcGrid::rank`].
    pub fn coords(&self, mut rank: i128) -> Vec<i128> {
        let mut out = vec![0; self.extents.len()];
        for k in (0..self.extents.len()).rev() {
            out[k] = rank % self.extents[k];
            rank /= self.extents[k];
        }
        out
    }

    /// The virtual processors in `virt_range` (per-dim inclusive ranges)
    /// owned by physical processor `phys`, in lexicographic order — the
    /// iteration set of the paper's Figure 7(b) `for p_v = p_phys step P`.
    pub fn virtuals_of(&self, phys: &[i128], virt_range: &[(i128, i128)]) -> Vec<Vec<i128>> {
        assert_eq!(phys.len(), self.extents.len());
        assert_eq!(virt_range.len(), self.extents.len());
        let mut out = vec![Vec::new()];
        for k in 0..self.extents.len() {
            let (lo, hi) = virt_range[k];
            // Smallest v >= lo with v ≡ phys[k] (mod P_k).
            let p = self.extents[k];
            let start = phys[k] + p * dmc_polyhedra::num::div_ceil(lo - phys[k], p);
            let mut next = Vec::new();
            for prefix in out {
                let mut v = start;
                while v <= hi {
                    let mut item = prefix.clone();
                    item.push(v);
                    next.push(item);
                    v += p;
                }
            }
            out = next;
        }
        out
    }

    /// Writes the grid's extents into a stage key.
    pub fn encode(&self, e: &mut Enc) {
        self.extents.encode(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_ir::parse;

    #[test]
    fn block_ownership() {
        // N x N array, columns in blocks of 25 over 4 processors.
        let d = DataDecomp::block_1d("X", 2, 1, 25);
        assert!(d.owns(&[7, 0], &[0]));
        assert!(d.owns(&[7, 24], &[0]));
        assert!(!d.owns(&[7, 25], &[0]));
        assert!(d.owns(&[7, 25], &[1]));
        assert!(d.owns(&[99, 99], &[3]));
    }

    #[test]
    fn cyclic_ownership_and_folding() {
        let d = DataDecomp::cyclic_1d("X", 1, 0);
        // Virtual processor k owns element k.
        assert!(d.owns(&[5], &[5]));
        assert!(!d.owns(&[5], &[4]));
        let grid = ProcGrid::line(4);
        assert_eq!(grid.fold(&[5]), vec![1]);
        assert_eq!(grid.fold(&[8]), vec![0]);
    }

    #[test]
    fn overlap_replicates_borders() {
        // Figure 4-style: blocks of 25 with one overlapped element on each
        // side (stencil border replication).
        let d = DataDecomp::from_maps(
            "X",
            1,
            vec![DimMap::block(Aff::var("a0"), 25).with_overlap(1, 1)],
        );
        assert!(d.owns(&[24], &[0]));
        assert!(d.owns(&[25], &[0])); // overlap above
        assert!(d.owns(&[25], &[1]));
        assert!(d.owns(&[24], &[1])); // overlap below
        assert!(!d.owns(&[26], &[0]));
    }

    #[test]
    fn shifted_decomposition() {
        // Figure 4(c): shifted right by 1 — element a belongs to processor
        // floor((a - 1) / b).
        let d = DataDecomp::from_maps(
            "X",
            1,
            vec![DimMap::block(Aff::var("a0") - Aff::constant(1), 10)],
        );
        assert!(d.owns(&[0], &[-1])); // falls before the grid: virtual p -1
        assert!(d.owns(&[1], &[0]));
        assert!(d.owns(&[10], &[0]));
        assert!(d.owns(&[11], &[1]));
    }

    #[test]
    fn skewed_decomposition() {
        // Figure 4(d)-style: skewed blocks via a row with two nonzeros.
        let d = DataDecomp::from_maps(
            "X",
            2,
            vec![DimMap::block(Aff::var("a0") + Aff::var("a1"), 16)],
        );
        assert!(d.owns(&[8, 7], &[0]));
        assert!(d.owns(&[8, 8], &[1]));
    }

    #[test]
    fn replicated_owns_everywhere() {
        let d = DataDecomp::replicated("X", 2);
        assert!(d.owns(&[3, 4], &[]));
        assert_eq!(d.proc_ndim(), 0);
    }

    #[test]
    fn relation_polyhedron_matches_owns() {
        let d = DataDecomp::block_1d("X", 1, 0, 32);
        let rel = d.relation(&[]);
        // Space: [a0, p0].
        for a in 0..100i128 {
            for p in 0..4i128 {
                assert_eq!(
                    rel.contains(&[a, p]).unwrap(),
                    d.owns(&[a], &[p]),
                    "a={a} p={p}"
                );
            }
        }
    }

    #[test]
    fn owner_computes_lu_cyclic() {
        // LU with X distributed cyclically by row: the owner of X[i2][i1]
        // is virtual processor i2, so S1 executes on p = i2.
        let p = parse(
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
        .unwrap();
        let stmts = p.statements();
        let d = DataDecomp::cyclic_1d("X", 2, 0);
        let c1 = owner_computes(&d, &stmts[0]).unwrap();
        assert_eq!(c1.processor_of(&[3, 7], &["i1", "i2"]), vec![7]);
        let c2 = owner_computes(&d, &stmts[1]).unwrap();
        assert_eq!(c2.processor_of(&[3, 7, 9], &["i1", "i2", "i3"]), vec![7]);
    }

    #[test]
    fn owner_computes_block_on_affine_access() {
        // Writing X[i + 1] with blocks of 10: iteration i runs on
        // floor((i + 1) / 10).
        let p = parse(
            "param N; array X[N + 2];
             for i = 0 to N { X[i + 1] = 1.0; }",
        )
        .unwrap();
        let stmts = p.statements();
        let d = DataDecomp::block_1d("X", 1, 0, 10);
        let c = owner_computes(&d, &stmts[0]).unwrap();
        assert_eq!(c.processor_of(&[8], &["i"]), vec![0]);
        assert_eq!(c.processor_of(&[9], &["i"]), vec![1]);
    }

    #[test]
    fn owner_computes_rejects_replication() {
        let p = parse("param N; array X[N + 1]; for i = 0 to N { X[i] = 1.0; }").unwrap();
        let stmts = p.statements();
        let rep = DataDecomp::replicated("X", 1);
        assert_eq!(
            owner_computes(&rep, &stmts[0]).unwrap_err(),
            DecompError::WrittenDataReplicated
        );
        let ovl = DataDecomp::from_maps(
            "X",
            1,
            vec![DimMap::block(Aff::var("a0"), 8).with_overlap(1, 0)],
        );
        assert_eq!(
            owner_computes(&ovl, &stmts[0]).unwrap_err(),
            DecompError::WrittenDataReplicated
        );
        let wrong = DataDecomp::block_1d("Y", 1, 0, 8);
        assert!(matches!(
            owner_computes(&wrong, &stmts[0]).unwrap_err(),
            DecompError::ArrayMismatch { .. }
        ));
    }

    #[test]
    fn grid_rank_roundtrip() {
        let g = ProcGrid::new(vec![3, 4]);
        assert_eq!(g.len(), 12);
        for r in 0..12 {
            assert_eq!(g.rank(&g.coords(r)), r);
        }
        assert_eq!(g.fold(&[5, -1]), vec![2, 3]);
        // `fold_rank` on the planner's `i64` points is the rank of the
        // fold, negative coordinates wrapping as `rem_euclid` does (−1 on 4
        // is 3, −7 on 3 is 2), not as `%` truncates.
        assert_eq!(g.fold_rank(&[5, -1]), 2 * 4 + 3);
        assert_eq!(g.fold_rank(&[-7, -9]), 2 * 4 + 3);
        for a in -9i64..=9 {
            for b in -9i64..=9 {
                let wide = g.rank(&g.fold(&[i128::from(a), i128::from(b)]));
                assert_eq!(i128::from(g.fold_rank(&[a, b])), wide, "({a}, {b})");
            }
        }
        let line = ProcGrid::line(16);
        assert_eq!(line.fold_rank(&[-1]), 15);
        assert_eq!(line.fold_rank(&[-16]), 0);
        assert_eq!(line.fold_rank(&[i64::MIN]), 0);
        assert_eq!(line.fold_rank(&[i64::MAX]), 15);
    }

    #[test]
    #[should_panic(expected = "at most i64::MAX processors")]
    fn grid_past_i64_is_refused() {
        ProcGrid::new(vec![1 << 32, 1 << 31]);
    }

    #[test]
    fn virtuals_of_physical_processor() {
        let g = ProcGrid::line(4);
        // Virtual processors 0..=10; physical 1 owns 1, 5, 9.
        assert_eq!(
            g.virtuals_of(&[1], &[(0, 10)]),
            vec![vec![1], vec![5], vec![9]]
        );
        // Range starting above the phys id.
        assert_eq!(g.virtuals_of(&[1], &[(6, 10)]), vec![vec![9]]);
        // 2-D grid.
        let g2 = ProcGrid::new(vec![2, 2]);
        assert_eq!(
            g2.virtuals_of(&[1, 0], &[(0, 3), (0, 1)]),
            vec![vec![1, 0], vec![3, 0]]
        );
    }

    #[test]
    fn comp_decomp_blocked_figure7() {
        // The paper's running decomposition: 32 p <= i < 32 (p + 1).
        let c = CompDecomp::block_1d(0, "i", 32);
        assert_eq!(c.processor_of(&[0, 31], &["t", "i"]), vec![0]);
        assert_eq!(c.processor_of(&[0, 32], &["t", "i"]), vec![1]);
        assert_eq!(c.to_string(), "C(S0) = { 32·p0 <= i < 32·(p0+1) }");
    }

    #[test]
    fn display_formats() {
        let d = DataDecomp::block_1d("X", 1, 0, 16);
        assert!(d.to_string().contains("16·p0 <= a0"));
        assert!(DataDecomp::replicated("Y", 1)
            .to_string()
            .contains("replicated"));
    }

    #[test]
    fn comp_decomp_relation_polyhedron() {
        // Blocked computation decomposition as inequalities: Figure 5's
        // "32 p_r <= i_r <= 32 p_r + 31".
        let c = CompDecomp::block_1d(0, "i", 32);
        let mut space = Space::new();
        space.add_dim("ir", DimKind::Index);
        space.add_dim("pr", DimKind::Proc);
        let mut poly = Polyhedron::universe(space);
        c.constrain(&mut poly, &[("i", "ir")], &[1]);
        assert!(poly.contains(&[0, 0]).unwrap());
        assert!(poly.contains(&[31, 0]).unwrap());
        assert!(!poly.contains(&[32, 0]).unwrap());
        assert!(poly.contains(&[32, 1]).unwrap());
    }
}
