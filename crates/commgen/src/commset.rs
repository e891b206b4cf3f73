//! Communication sets (paper §4.4, Definition 3 and Theorems 2–4).
//!
//! A communication set `M` is a set of tuples `(i_r, p_r, i_s, p_s, a)`:
//! processor `p_s` must send the value in location `a` produced in its
//! iteration `i_s` to processor `p_r` for use in iteration `i_r`. All five
//! components live in one polyhedron whose dimensions are grouped by
//! [`CommDims`]; the `p_s ≠ p_r` condition is split into lexicographically
//! disjoint convex pieces.

use std::ops::{ControlFlow, Range};

use dmc_dataflow::{DepLevel, LastWriteTree, LwtLeaf};
use dmc_decomp::{CompDecomp, DataDecomp};
use dmc_ir::{Program, StmtInfo};
use dmc_polyhedra::{Constraint, DimKind, LinExpr, PolyError, Polyhedron, ScanKernel, Space};

/// Dimension groups of a communication-set polyhedron, as positions into
/// its space. Order in the space is always
/// `[r_iter…, pr…, s_iter…, ps…, arr…, params…, aux…]`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommDims {
    /// Read (consumer) iteration dimensions, outermost first.
    pub r_iter: Vec<usize>,
    /// Receiver (virtual) processor dimensions.
    pub pr: Vec<usize>,
    /// Send (producer) iteration dimensions; empty when the sender is the
    /// initial owner of the data (Theorems 2/4: `i_s = 0`, sends may
    /// precede the loop).
    pub s_iter: Vec<usize>,
    /// Sender (virtual) processor dimensions.
    pub ps: Vec<usize>,
    /// Array subscript dimensions.
    pub arr: Vec<usize>,
    /// Symbolic constants.
    pub params: Vec<usize>,
    /// Auxiliary existential dimensions.
    pub aux: Vec<usize>,
}

/// How the sender side of a communication set is determined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SenderKind {
    /// The sender produced the value (Theorem 3; value-centric).
    Producer,
    /// The sender owns the data under a data decomposition (Theorems 2/4);
    /// sends may be hoisted before the loop nest.
    InitialOwner,
}

/// One convex communication set.
#[derive(Clone, Debug, PartialEq)]
pub struct CommSet {
    /// The tuples, as a polyhedron.
    pub poly: Polyhedron,
    /// Dimension grouping of `poly`'s space.
    pub dims: CommDims,
    /// Array whose values move.
    pub array: String,
    /// The consuming statement.
    pub read_stmt: usize,
    /// The consuming read access within the statement.
    pub read_no: usize,
    /// The producing statement (None when the sender is the initial owner).
    pub write_stmt: Option<usize>,
    /// How the sender is determined.
    pub sender: SenderKind,
    /// Dependence level of every element (None for initial-owner sets).
    pub level: Option<DepLevel>,
    /// Length of the `s_iter` prefix that keys one aggregated message
    /// (paper §6.2: level-`k` sets aggregate per `(p_s, i_s1..i_s,k-1,
    /// p_r)`).
    pub prefix_len: usize,
    /// Number of leading receive-iteration dimensions that distinguish
    /// *separate fetches of the same location* — nonzero only for the
    /// location-centric baseline, where a location must be re-fetched each
    /// iteration of the dependence-carrying loop (§2.2.2). Aggregation
    /// keys messages by these dimensions and never merges across them.
    pub refetch_outer: usize,
    /// Provenance: the §6 optimization passes this set has survived, in
    /// application order (e.g. `["self_reuse", "unique_sender"]`). Filled
    /// by the passes themselves; purely observational — never read by the
    /// optimizer.
    pub steps: Vec<&'static str>,
}

/// One concrete element of a communication set, owned — what
/// [`CommSet::enumerate`] hands to tests and figures. The planner folds
/// the borrowed [`ElemRow`]s [`CommScan::for_each`] lends instead.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CommElem {
    /// Producer iteration (empty for initial-owner sets).
    pub s_iter: Vec<i128>,
    /// Sender virtual processor.
    pub ps: Vec<i128>,
    /// Consumer iteration.
    pub r_iter: Vec<i128>,
    /// Receiver virtual processor.
    pub pr: Vec<i128>,
    /// Array element.
    pub arr: Vec<i128>,
}

/// One element of a communication set, borrowed from the scan: what
/// [`CommScan`] lends its visitor, in the scan kernel's `i64`.
#[derive(Clone, Copy, Debug)]
pub struct ElemRow<'a> {
    s_iter: &'a [i64],
    ps: &'a [i64],
    r_iter: &'a [i64],
    pr: &'a [i64],
    arr: &'a [i64],
}

impl<'a> ElemRow<'a> {
    /// The row of `buf` whose five groups lie at `spans`.
    fn over(buf: &'a [i64], spans: &[std::ops::Range<usize>; 5]) -> Self {
        let [s_iter, ps, r_iter, pr, arr] = spans.clone().map(|r| &buf[r]);
        ElemRow {
            s_iter,
            ps,
            r_iter,
            pr,
            arr,
        }
    }

    /// Producer iteration (empty for initial-owner sets).
    pub fn s_iter(&self) -> &'a [i64] {
        self.s_iter
    }

    /// Sender virtual processor.
    pub fn ps(&self) -> &'a [i64] {
        self.ps
    }

    /// Consumer iteration.
    pub fn r_iter(&self) -> &'a [i64] {
        self.r_iter
    }

    /// Receiver virtual processor.
    pub fn pr(&self) -> &'a [i64] {
        self.pr
    }

    /// Array element.
    pub fn arr(&self) -> &'a [i64] {
        self.arr
    }

    /// The owned form.
    pub fn to_elem(&self) -> CommElem {
        let wide = |part: &[i64]| part.iter().map(|&v| i128::from(v)).collect();
        CommElem {
            s_iter: wide(self.s_iter),
            ps: wide(self.ps),
            r_iter: wide(self.r_iter),
            pr: wide(self.pr),
            arr: wide(self.arr),
        }
    }
}

/// Errors from communication-set construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// Polyhedral arithmetic failed.
    Poly(PolyError),
    /// The computation decomposition for a needed statement is missing.
    MissingDecomp(usize),
    /// Processor-space ranks of the read and write decompositions differ.
    ProcRankMismatch,
    /// A set was scanned with a number of parameter values other than the
    /// number of its parameters.
    ParamCount {
        /// Parameters the set has.
        want: usize,
        /// Values supplied.
        got: usize,
    },
}

impl From<PolyError> for CommError {
    fn from(e: PolyError) -> Self {
        CommError::Poly(e)
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Poly(e) => write!(f, "polyhedral arithmetic failed: {e}"),
            CommError::MissingDecomp(s) => {
                write!(f, "no computation decomposition for statement {s}")
            }
            CommError::ProcRankMismatch => {
                write!(f, "read and write processor spaces have different ranks")
            }
            CommError::ParamCount { want, got } => write!(
                f,
                "the set has {want} parameter(s) but {got} value(s) were given"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Suffixes used for dimension names in communication-set spaces.
const READ_SUFFIX: &str = "$r";
/// See [`READ_SUFFIX`].
const SEND_SUFFIX: &str = "$s";

/// Builds the communication sets of Theorem 3 for one LWT source leaf: the
/// elements relate producer iterations to consumer iterations via the
/// last-write relation, with processors given by the two computation
/// decompositions; `p_s ≠ p_r` pieces are returned separately.
///
/// # Errors
///
/// Returns [`CommError`] on arithmetic failure or rank mismatch.
pub fn comm_from_leaf(
    program: &Program,
    lwt: &LastWriteTree,
    leaf: &LwtLeaf,
    read_info: &StmtInfo,
    write_info: &StmtInfo,
    comp_read: &CompDecomp,
    comp_write: &CompDecomp,
) -> Result<Vec<CommSet>, CommError> {
    let src = leaf
        .source
        .as_ref()
        .expect("comm_from_leaf needs a source leaf");
    if comp_read.proc_ndim() != comp_write.proc_ndim() {
        return Err(CommError::ProcRankMismatch);
    }
    let q = comp_read.proc_ndim();
    let reads = read_info.stmt.rhs.reads();
    // For hull trees the read_no indexes the original access used to build
    // the hull; the array subscripts come from the leaf's hull access via
    // the read_dims, so re-derive the subscript expressions from the read
    // access of the statement when the dims match, else from the tree.
    let read_access = reads
        .get(lwt.read_no)
        .copied()
        .expect("read access disappeared");

    // --- space construction ---
    let n_r = lwt.read_dims.len();
    let n_s = write_info.loops.len();
    let n_a = read_access.idx.len();
    let mut space = Space::new();
    let mut dims = CommDims::default();
    for v in &lwt.read_dims {
        dims.r_iter
            .push(space.add_dim(format!("{v}{READ_SUFFIX}"), DimKind::Index));
    }
    for k in 0..q {
        dims.pr.push(space.add_dim(format!("pr{k}"), DimKind::Proc));
    }
    for v in write_info.loop_vars() {
        dims.s_iter
            .push(space.add_dim(format!("{v}{SEND_SUFFIX}"), DimKind::Index));
    }
    for k in 0..q {
        dims.ps.push(space.add_dim(format!("ps{k}"), DimKind::Proc));
    }
    for d in 0..n_a {
        dims.arr
            .push(space.add_dim(format!("a{d}"), DimKind::Array));
    }
    for p in &program.params {
        dims.params.push(space.add_dim(p.clone(), DimKind::Param));
    }
    // Aux dims of the leaf space, appended last.
    let leaf_n = leaf.space.len();
    let leaf_base = n_r + program.params.len();
    for d in leaf_base..leaf_n {
        dims.aux
            .push(space.add_dim(leaf.space.dim(d).name().to_owned(), DimKind::Aux));
    }

    // --- map the leaf context into the comm space ---
    // Leaf space order: read dims, params, aux.
    let mut leaf_map = Vec::with_capacity(leaf_n);
    leaf_map.extend(dims.r_iter.iter().copied());
    leaf_map.extend(dims.params.iter().copied());
    leaf_map.extend(dims.aux.iter().copied());
    let mut poly = leaf.context.remap(space.clone(), &leaf_map);

    // --- s_iter == last-write relation ---
    debug_assert_eq!(src.write_iter.len(), n_s);
    for (j, e) in src.write_iter.iter().enumerate() {
        let mapped = e.remap(space.len(), &leaf_map);
        let sv = LinExpr::var(space.len(), dims.s_iter[j]);
        poly.add(Constraint::eq_pair(&sv, &mapped)?);
    }

    // --- a == f_r(i_r) --- (rename read loop vars to their $r dims; hull
    // offset dims $u<k> are read dims too).
    let renames_r: Vec<(String, String)> = lwt
        .read_dims
        .iter()
        .map(|v| (v.clone(), format!("{v}{READ_SUFFIX}")))
        .collect();
    let renames_r_ref: Vec<(&str, &str)> = renames_r
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    // The subscripts to use: plain trees use the statement's read access;
    // hull trees (read_dims longer than the loop list) rebuild the hull
    // subscripts `linear + $u<d>`.
    let subscripts: Vec<dmc_ir::Aff> = if n_r == read_info.loops.len() {
        read_access.idx.clone()
    } else {
        hull_subscripts(read_info, lwt)
    };
    for (d, sub) in subscripts.iter().enumerate() {
        let fe = sub.to_linexpr_renamed(&space, &renames_r_ref);
        let av = LinExpr::var(space.len(), dims.arr[d]);
        poly.add(Constraint::eq_pair(&av, &fe)?);
    }

    // --- computation decompositions ---
    comp_read.constrain(&mut poly, &renames_r_ref, &dims.pr);
    let renames_s: Vec<(String, String)> = write_info
        .loop_vars()
        .iter()
        .map(|v| ((*v).to_owned(), format!("{v}{SEND_SUFFIX}")))
        .collect();
    let renames_s_ref: Vec<(&str, &str)> = renames_s
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    comp_write.constrain(&mut poly, &renames_s_ref, &dims.ps);
    // The write domain (producer loop bounds) is implied by the relation +
    // leaf context but adding it keeps bounds tight after projections.
    poly = poly.intersect(&write_info.domain(&space, &renames_s_ref));

    let prefix_len = match src.level {
        DepLevel::Carried(k) => k - 1,
        DepLevel::Independent => read_info.common_loops(write_info),
    };

    Ok(split_ne(&poly, &dims)?
        .into_iter()
        .map(|piece| CommSet {
            poly: piece,
            dims: dims.clone(),
            array: lwt.array.clone(),
            read_stmt: lwt.read_stmt,
            read_no: lwt.read_no,
            write_stmt: Some(src.write_stmt),
            sender: SenderKind::Producer,
            level: Some(src.level),
            prefix_len,
            refetch_outer: 0,
            steps: Vec::new(),
        })
        .collect())
}

/// Rebuilds the hull subscripts `linear_part + $u<d>` used by
/// [`dmc_dataflow::build_lwt_hull`].
fn hull_subscripts(read_info: &StmtInfo, lwt: &LastWriteTree) -> Vec<dmc_ir::Aff> {
    use dmc_ir::Aff;
    let reads = read_info.stmt.rhs.reads();
    let first = reads[lwt.read_no];
    first
        .idx
        .iter()
        .enumerate()
        .map(|(d, sub)| {
            let linear = sub.clone() - Aff::constant(sub.constant_term());
            let u = format!("$u{d}");
            if lwt.read_dims.iter().any(|v| v == &u) {
                linear + Aff::var(u)
            } else {
                sub.clone()
            }
        })
        .collect()
}

/// Builds the communication sets of Theorem 4 for one ⊥ leaf (or Theorem 2
/// when `leaf` covers the whole read domain): the sender is the initial
/// owner under data decomposition `d`; sends may precede the loop nest
/// (`i_s = 0`).
///
/// # Errors
///
/// Returns [`CommError`] on arithmetic failure or rank mismatch.
pub fn comm_from_initial(
    program: &Program,
    lwt: &LastWriteTree,
    leaf: &LwtLeaf,
    read_info: &StmtInfo,
    comp_read: &CompDecomp,
    data: &DataDecomp,
) -> Result<Vec<CommSet>, CommError> {
    if comp_read.proc_ndim() != data.proc_ndim() {
        return Err(CommError::ProcRankMismatch);
    }
    let q = comp_read.proc_ndim();
    let reads = read_info.stmt.rhs.reads();
    let read_access = reads
        .get(lwt.read_no)
        .copied()
        .expect("read access disappeared");
    let n_r = lwt.read_dims.len();
    let n_a = read_access.idx.len();

    let mut space = Space::new();
    let mut dims = CommDims::default();
    for v in &lwt.read_dims {
        dims.r_iter
            .push(space.add_dim(format!("{v}{READ_SUFFIX}"), DimKind::Index));
    }
    for k in 0..q {
        dims.pr.push(space.add_dim(format!("pr{k}"), DimKind::Proc));
    }
    for k in 0..q {
        dims.ps.push(space.add_dim(format!("ps{k}"), DimKind::Proc));
    }
    for d in 0..n_a {
        dims.arr
            .push(space.add_dim(format!("a{d}"), DimKind::Array));
    }
    for p in &program.params {
        dims.params.push(space.add_dim(p.clone(), DimKind::Param));
    }
    let leaf_n = leaf.space.len();
    let leaf_base = n_r + program.params.len();
    for d in leaf_base..leaf_n {
        dims.aux
            .push(space.add_dim(leaf.space.dim(d).name().to_owned(), DimKind::Aux));
    }

    let mut leaf_map = Vec::with_capacity(leaf_n);
    leaf_map.extend(dims.r_iter.iter().copied());
    leaf_map.extend(dims.params.iter().copied());
    leaf_map.extend(dims.aux.iter().copied());
    let mut poly = leaf.context.remap(space.clone(), &leaf_map);

    let renames_r: Vec<(String, String)> = lwt
        .read_dims
        .iter()
        .map(|v| (v.clone(), format!("{v}{READ_SUFFIX}")))
        .collect();
    let renames_r_ref: Vec<(&str, &str)> = renames_r
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    let subscripts: Vec<dmc_ir::Aff> = if n_r == read_info.loops.len() {
        read_access.idx.clone()
    } else {
        hull_subscripts(read_info, lwt)
    };
    for (d, sub) in subscripts.iter().enumerate() {
        let fe = sub.to_linexpr_renamed(&space, &renames_r_ref);
        let av = LinExpr::var(space.len(), dims.arr[d]);
        poly.add(Constraint::eq_pair(&av, &fe)?);
    }
    comp_read.constrain(&mut poly, &renames_r_ref, &dims.pr);
    data.constrain(&mut poly, &dims.arr, &dims.ps);

    Ok(split_ne(&poly, &dims)?
        .into_iter()
        .map(|piece| CommSet {
            poly: piece,
            dims: dims.clone(),
            array: lwt.array.clone(),
            read_stmt: lwt.read_stmt,
            read_no: lwt.read_no,
            write_stmt: None,
            sender: SenderKind::InitialOwner,
            level: None,
            prefix_len: 0,
            refetch_outer: 0,
            steps: Vec::new(),
        })
        .collect())
}

/// Splits `p_s ≠ p_r` into lexicographically disjoint convex pieces:
/// for each processor dimension `k`, the pieces `ps[j] == pr[j] (j < k) ∧
/// ps[k] < pr[k]` and `… ∧ ps[k] > pr[k]`. Infeasible pieces are dropped.
fn split_ne(poly: &Polyhedron, dims: &CommDims) -> Result<Vec<Polyhedron>, PolyError> {
    let n = poly.space().len();
    let mut out = Vec::new();
    let mut prefix = poly.clone();
    for k in 0..dims.pr.len() {
        let pr = LinExpr::var(n, dims.pr[k]);
        let ps = LinExpr::var(n, dims.ps[k]);
        for (lhs, rhs) in [(&ps, &pr), (&pr, &ps)] {
            // lhs < rhs: rhs - lhs - 1 >= 0.
            let mut diff = rhs.sub(lhs)?;
            diff.set_constant(diff.constant_term() - 1);
            let piece = prefix.with_row(prefix.constraints().len(), Constraint::ge(diff));
            if piece.integer_feasibility()?.possibly_feasible() {
                out.push(piece);
            }
        }
        prefix.add(Constraint::eq_pair(&ps, &pr)?);
        if prefix.is_obviously_empty() {
            break;
        }
    }
    Ok(out)
}

impl CommSet {
    /// Compiles the set's scan for concrete parameter values, to visit its
    /// elements ([`CommScan::for_each`]) or its runs
    /// ([`CommScan::for_each_run`]). The polyhedron is scanned in the
    /// order `s_iter`, `ps`, `pr`, `r_iter`, `a`, then the auxiliary
    /// dimensions in the order [`CommDims::aux`] lists them (the order the
    /// §6 passes appended them), outer to inner, with derived loop bounds
    /// on the compiled kernel ([`dmc_polyhedra::ScanKernel`]): cost
    /// proportional to the number of elements, not to any bounding box, and
    /// an auxiliary pinned by an equality — unit or strided — costs an
    /// assignment, not a loop, or nothing when only pinned levels follow it.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::ParamCount`] when `param_vals` does not give
    /// one value per parameter, and [`CommError::Poly`]: `Overflow` when
    /// the kernel cannot prove the set's values within its `i64` range
    /// ([`dmc_polyhedra::ScanNest::compile`]).
    pub fn scan(&self, param_vals: &[i128]) -> Result<CommScan, CommError> {
        let d = &self.dims;
        if param_vals.len() != d.params.len() {
            return Err(CommError::ParamCount {
                want: d.params.len(),
                got: param_vals.len(),
            });
        }
        let order: Vec<usize> = [&d.s_iter, &d.ps, &d.pr, &d.r_iter, &d.arr, &d.aux]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        let nest = dmc_polyhedra::scan_bounds(&self.poly, &order)?;
        let mut fixed = vec![0i128; self.poly.space().len()];
        for (k, &p) in d.params.iter().enumerate() {
            fixed[p] = param_vals[k];
        }
        // Each group is a run of consecutive dimensions in every set the
        // passes build, and a row borrows the point; a group that is not is
        // gathered into a buffer first.
        let groups = [&d.s_iter, &d.ps, &d.r_iter, &d.pr, &d.arr];
        let gather = !groups
            .iter()
            .all(|g| g.windows(2).all(|w| w[1] == w[0] + 1));
        let mut at = 0;
        let spans = groups.map(|g| match (gather, g.first()) {
            (true, _) => {
                at += g.len();
                at - g.len()..at
            }
            (false, first) => first.map_or(0..0, |&f| f..f + g.len()),
        });
        let source = gather.then(|| groups.into_iter().flatten().copied().collect());
        // The scan visits each solution exactly once; no dedup needed. The
        // auxiliary dimensions are never lent out, so trailing ones pinned
        // by an equality are not assigned.
        let kernel = nest.compile(&fixed)?;
        let depth = kernel.looping_depth().max(order.len() - d.aux.len());
        // A run moves the last send iteration; the lane must stay put.
        let lane: Vec<usize> = [
            &d.ps[..],
            &d.pr,
            &d.r_iter[..self.refetch_outer.min(d.r_iter.len())],
        ]
        .concat();
        let runs = d.s_iter.len().checked_sub(1).filter(|&level| {
            kernel
                .run_dims(depth, level)
                .is_some_and(|moving| moving.iter().all(|m| !lane.contains(m)))
        });
        Ok(CommScan {
            kernel,
            depth,
            spans,
            source,
            runs,
        })
    }

    /// Collects [`CommScan::for_each`] into a vector. Returns `None` only
    /// if the set has more than `limit` elements.
    ///
    /// # Errors
    ///
    /// As [`CommSet::scan`] and [`CommScan::for_each`].
    pub fn enumerate(
        &self,
        param_vals: &[i128],
        limit: usize,
    ) -> Result<Option<Vec<CommElem>>, CommError> {
        let mut out = Vec::new();
        self.scan(param_vals)?.for_each(|e| {
            out.push(e.to_elem());
            Ok::<_, CommError>(if out.len() > limit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        })?;
        Ok((out.len() <= limit).then_some(out))
    }
}

/// A communication set's scan compiled for concrete parameter values
/// ([`CommSet::scan`]).
#[derive(Clone, Debug)]
pub struct CommScan {
    kernel: ScanKernel,
    /// Levels the kernel runs: every one that loops, and every one an
    /// element lends.
    depth: usize,
    /// Where each group of an [`ElemRow`] lies in the point, or in the
    /// gathered buffer when `source` names the columns to gather.
    spans: [Range<usize>; 5],
    source: Option<Vec<usize>>,
    /// The level [`CommScan::for_each_run`] counts, when it can.
    runs: Option<usize>,
}

impl CommScan {
    /// The element of a point: borrowed from it, or gathered into `cols`.
    fn row<'a>(&'a self, point: &'a [i64], cols: &'a mut Vec<i64>) -> ElemRow<'a> {
        match &self.source {
            None => ElemRow::over(point, &self.spans),
            Some(source) => {
                cols.clear();
                cols.extend(source.iter().map(|&x| point[x]));
                ElemRow::over(cols, &self.spans)
            }
        }
    }

    /// Visits every element of the set, in scan order, lent as an
    /// [`ElemRow`] borrowed from the scan's point; `visit` returns
    /// [`ControlFlow::Break`] to stop early.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError`] (as `E`): `Unbounded` on an unbounded
    /// dimension; and whatever `visit` returns.
    pub fn for_each<E: From<PolyError>>(
        &self,
        mut visit: impl FnMut(ElemRow<'_>) -> Result<ControlFlow<()>, E>,
    ) -> Result<(), E> {
        let mut cols = Vec::new();
        self.kernel
            .for_each(self.depth, |pt| visit(self.row(pt, &mut cols)))
    }

    /// Visits the set as runs along its last send-iteration level, when the
    /// kernel can count that level ([`dmc_polyhedra::ScanKernel::run_dims`])
    /// and the lane — sender, receiver and re-fetch prefix — does not move
    /// along it. `visit` gets, per point of the other levels, the elements
    /// at the run's two ends and the number of elements the run stands
    /// for: they share the lane, and their consuming iterations and array
    /// elements are affine in their send iterations. Returns `Ok(false)`,
    /// visiting nothing, when the set cannot be counted that way.
    ///
    /// # Errors
    ///
    /// As [`CommScan::for_each`].
    pub fn for_each_run<E: From<PolyError>>(
        &self,
        mut visit: impl FnMut(ElemRow<'_>, ElemRow<'_>, u64) -> Result<ControlFlow<()>, E>,
    ) -> Result<bool, E> {
        let Some(level) = self.runs else {
            return Ok(false);
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.kernel.for_each_run(self.depth, level, |run| {
            visit(
                self.row(run.first, &mut a),
                self.row(run.last, &mut b),
                run.len,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_dataflow::build_lwt;
    use dmc_ir::parse;

    /// The paper's running example: Figure 2 program, second loop blocked
    /// by 32 on a linear processor array (Figures 5, 7, 10).
    fn figure2_setup() -> (Program, LastWriteTree, CompDecomp) {
        let p = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap();
        let lwt = build_lwt(&p, 0, 0).unwrap();
        let comp = CompDecomp::block_1d(0, "i", 32);
        (p, lwt, comp)
    }

    #[test]
    fn figure5_comm_sets() {
        let (p, lwt, comp) = figure2_setup();
        let stmts = p.statements();
        let leaf = lwt.source_leaves().next().unwrap();
        let sets = comm_from_leaf(&p, &lwt, leaf, &stmts[0], &stmts[0], &comp, &comp).unwrap();
        // Figure 5 derives two candidate sets (ps < pr and ps > pr); the
        // paper notes "no communication is necessary when ps > pr", so only
        // the ps < pr piece survives the feasibility filter.
        assert_eq!(sets.len(), 1);
        let cs = &sets[0];
        assert_eq!(cs.level, Some(DepLevel::Carried(2)));
        assert_eq!(cs.prefix_len, 1);

        // Enumerate with T=1, N=66 (3 blocks): every element must have
        // ps = pr - 1, i_s = i_r - 3, a = i_r - 3, i_r in the first 3
        // iterations of pr's block.
        let elems = cs.enumerate(&[1, 66], 10_000).unwrap().unwrap();
        assert!(!elems.is_empty());
        for e in &elems {
            assert_eq!(e.ps[0], e.pr[0] - 1, "{e:?}");
            assert_eq!(e.s_iter[1], e.r_iter[1] - 3, "{e:?}");
            assert_eq!(e.s_iter[0], e.r_iter[0], "{e:?}");
            assert_eq!(e.arr[0], e.r_iter[1] - 3, "{e:?}");
            let block_start = 32 * e.pr[0];
            assert!(
                e.r_iter[1] >= block_start && e.r_iter[1] <= block_start + 2,
                "{e:?}"
            );
        }
        // Exactly 3 elements per (t, pr) for pr = 1, 2 and t in {0, 1},
        // and 3 more for the partial last block boundary (pr = 2 gets
        // 64..66 -> reads 64, 65, 66).
        let per_t_pr1: Vec<_> = elems
            .iter()
            .filter(|e| e.r_iter[0] == 0 && e.pr[0] == 1)
            .collect();
        assert_eq!(per_t_pr1.len(), 3);
    }

    #[test]
    fn a_wrong_parameter_count_is_a_typed_error() {
        let (p, lwt, comp) = figure2_setup();
        let stmts = p.statements();
        let leaf = lwt.source_leaves().next().unwrap();
        let sets = comm_from_leaf(&p, &lwt, leaf, &stmts[0], &stmts[0], &comp, &comp).unwrap();
        let cs = &sets[0];
        let wrong = |got| Some(CommError::ParamCount { want: 2, got });
        assert_eq!(cs.scan(&[]).err(), wrong(0));
        assert_eq!(cs.enumerate(&[1, 66, 0], 10).err(), wrong(3));
        assert_eq!(crate::aggregate_messages(cs, &[], None, 10).err(), wrong(0));
        let spec = crate::FoldSpec {
            grid: None,
            splits: &[0],
            read_depth: 2,
            aggregate: true,
            multicast: true,
            payloads: true,
        };
        assert_eq!(crate::fold_messages(cs, &[1], &spec, 10).err(), wrong(1));
        assert!(crate::fold_messages(cs, &[1, 66], &spec, 100).is_ok());
    }

    #[test]
    fn figure5_elements_match_ground_truth() {
        // Cross-check the communication set against the LWT + decomposition
        // definitions element by element.
        let (p, lwt, comp) = figure2_setup();
        let stmts = p.statements();
        let leaf = lwt.source_leaves().next().unwrap();
        let sets = comm_from_leaf(&p, &lwt, leaf, &stmts[0], &stmts[0], &comp, &comp).unwrap();
        let (tval, nval) = (1i128, 66i128);
        let mut expected = Vec::new();
        for t in 0..=tval {
            for i in 3..=nval {
                if let Some((_, w)) = lwt.producer_at(&[t, i], &[tval, nval]).unwrap() {
                    let pr = comp.processor_of(&[t, i], &["t", "i"]);
                    let ps = comp.processor_of(&w, &["t", "i"]);
                    if pr != ps {
                        expected.push(CommElem {
                            s_iter: w.clone(),
                            ps,
                            r_iter: vec![t, i],
                            pr,
                            arr: vec![i - 3],
                        });
                    }
                }
            }
        }
        expected.sort();
        let mut got: Vec<CommElem> = sets
            .iter()
            .flat_map(|cs| cs.enumerate(&[tval, nval], 10_000).unwrap().unwrap())
            .collect();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn initial_owner_comm_for_bottom_leaf() {
        // ⊥ reads (X[0..2]) come from the initial data layout: blocks of 32.
        let (p, lwt, comp) = figure2_setup();
        let stmts = p.statements();
        let data = DataDecomp::block_1d("X", 1, 0, 32);
        let leaf = lwt.bottom_leaves().next().unwrap();
        let sets = comm_from_initial(&p, &lwt, leaf, &stmts[0], &comp, &data).unwrap();
        // All of X[0..2] lives on processor 0; readers are processor 0 too
        // (i_r in 3..=5 is in block 0) — so no communication at all.
        let total: usize = sets
            .iter()
            .map(|cs| cs.enumerate(&[1, 66], 10_000).unwrap().unwrap().len())
            .sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn initial_owner_comm_crossing_blocks() {
        // Same ⊥ analysis, but the initial layout is blocks of 2: X[0..2]
        // spans owners 0 and 1 while readers i_r=3..5 live on other
        // processors under a block-2 computation decomposition.
        let (p, lwt, _) = figure2_setup();
        let stmts = p.statements();
        let comp = CompDecomp::block_1d(0, "i", 2);
        let data = DataDecomp::block_1d("X", 1, 0, 2);
        let leaf = lwt.bottom_leaves().next().unwrap();
        let sets = comm_from_initial(&p, &lwt, leaf, &stmts[0], &comp, &data).unwrap();
        let elems: Vec<CommElem> = sets
            .iter()
            .flat_map(|cs| cs.enumerate(&[0, 12], 10_000).unwrap().unwrap())
            .collect();
        // Reads at i=3,4,5 of X[0,1,2]: owners are p0 (X[0], X[1]) and p1
        // (X[2]); readers are p1 (i=3), p2 (i=4, 5).
        for e in &elems {
            assert_ne!(e.ps, e.pr);
            assert!(e.s_iter.is_empty());
            let owner = e.arr[0] / 2;
            assert_eq!(e.ps[0], owner);
            let reader = e.r_iter[1] / 2;
            assert_eq!(e.pr[0], reader);
        }
        assert_eq!(elems.len(), 3);
    }

    #[test]
    fn split_ne_is_exhaustive_and_disjoint() {
        // On a universe with one proc dim each, the two pieces must
        // partition ps != pr.
        let mut space = Space::new();
        let mut dims = CommDims::default();
        dims.pr.push(space.add_dim("pr0", DimKind::Proc));
        dims.ps.push(space.add_dim("ps0", DimKind::Proc));
        let mut p = Polyhedron::universe(space);
        p.add(Constraint::ge(LinExpr::from_coeffs(vec![1, 0], 0)));
        p.add(Constraint::ge(LinExpr::from_coeffs(vec![-1, 0], 5)));
        p.add(Constraint::ge(LinExpr::from_coeffs(vec![0, 1], 0)));
        p.add(Constraint::ge(LinExpr::from_coeffs(vec![0, -1], 5)));
        let pieces = split_ne(&p, &dims).unwrap();
        assert_eq!(pieces.len(), 2);
        for pr in 0..=5i128 {
            for ps in 0..=5i128 {
                let inside: usize = pieces
                    .iter()
                    .filter(|q| q.contains(&[pr, ps]).unwrap())
                    .count();
                assert_eq!(inside, usize::from(pr != ps), "pr={pr} ps={ps}");
            }
        }
    }
}
