//! Communication optimizations (paper §6): redundant-transfer elimination,
//! message aggregation, and multicast detection.

use std::ops::Range;

use dmc_decomp::{DataDecomp, ProcGrid};
use dmc_obs as obs;
use dmc_polyhedra::{lexopt, Constraint, Direction, LexError, LinExpr, PolyError, Polyhedron};

use crate::commset::{CommError, CommSet, SenderKind};
use crate::fold::{fold_messages, FoldSpec};

/// Records the outcome of one §6 pass on one input set: appends the pass
/// to the survivors' provenance trail and, when tracing is active, emits a
/// `prov.pass` event (or `prov.eliminated` when the pass removed the set's
/// transfers entirely) attributing the outcome to the originating read.
fn prov_mark(out: &mut [CommSet], cs: &CommSet, pass: &'static str) {
    for s in out.iter_mut() {
        s.steps.push(pass);
    }
    if !obs::enabled() {
        return;
    }
    let fields = || {
        vec![
            obs::field("pass", pass),
            obs::field("array", cs.array.as_str()),
            obs::field("stmt", cs.read_stmt),
            obs::field("read", cs.read_no),
            obs::field("pieces", out.len()),
        ]
    };
    if out.is_empty() {
        obs::event_f("prov.eliminated", fields);
    } else {
        obs::event_f("prov.pass", fields);
    }
}

/// Errors from communication optimization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OptError {
    /// Polyhedral arithmetic failed.
    Poly(PolyError),
    /// Parametric optimization failed.
    Lex(LexError),
}

impl From<PolyError> for OptError {
    fn from(e: PolyError) -> Self {
        OptError::Poly(e)
    }
}

impl From<LexError> for OptError {
    fn from(e: LexError) -> Self {
        OptError::Lex(e)
    }
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::Poly(e) => write!(f, "polyhedral arithmetic failed: {e}"),
            OptError::Lex(e) => write!(f, "lexicographic optimization failed: {e}"),
        }
    }
}

impl std::error::Error for OptError {}

/// §6.1.1 — redundant communication due to self reuse: all elements with
/// identical `(i_s, p_s, p_r, a)` carry the same value to the same
/// processor; only the lexicographically first consuming iteration
/// `min(i_r)` needs an actual transfer. Implemented exactly as the paper
/// describes: project onto the `(p_s, i_s, p_r, a)` space and pin `i_r` to
/// its lower bound — here via parametric lexicographic minimization.
///
/// Returns the rewritten set as disjoint convex pieces (the minimum may be
/// defined piecewise).
///
/// # Errors
///
/// Returns [`OptError`] on arithmetic failure.
pub fn eliminate_self_reuse(cs: &CommSet) -> Result<Vec<CommSet>, OptError> {
    eliminate_self_reuse_from(cs, 0)
}

/// Like [`eliminate_self_reuse`], but keeps the first `keep_outer` receive
/// iteration dimensions as context: one transfer per value, receiver *and*
/// iteration of the outer `keep_outer` loops.
///
/// This models the location-centric baseline of §2.2.2: without value
/// information the same location must be re-fetched in every iteration of
/// the loop carrying a (location-based) dependence, so the dedup may only
/// run within one such iteration.
///
/// # Errors
///
/// Returns [`OptError`] on arithmetic failure.
pub fn eliminate_self_reuse_from(
    cs: &CommSet,
    keep_outer: usize,
) -> Result<Vec<CommSet>, OptError> {
    if cs.dims.r_iter.len() <= keep_outer {
        return Ok(vec![cs.clone()]);
    }
    let refetch_outer = keep_outer.max(cs.refetch_outer);
    let mut out = pin_lexmin(cs, &cs.poly, &cs.dims.r_iter[keep_outer..])?;
    for s in &mut out {
        s.refetch_outer = refetch_outer;
    }
    prov_mark(&mut out, cs, "self_reuse");
    Ok(out)
}

/// §6.1.3 — redundancy from replicated data: elements whose receiver
/// already owns a copy of the element under decomposition `d` need no
/// transfer. Returns `cs \ {(a, p_r) ∈ D}` as disjoint pieces.
///
/// # Errors
///
/// Returns [`OptError`] on arithmetic failure.
pub fn eliminate_already_local(cs: &CommSet, d: &DataDecomp) -> Result<Vec<CommSet>, OptError> {
    let mut owned = cs.poly.clone();
    d.constrain(&mut owned, &cs.dims.arr, &cs.dims.pr);
    let pieces = cs.poly.subtract(&owned)?;
    let mut out: Vec<CommSet> = pieces
        .into_iter()
        .map(|poly| CommSet { poly, ..cs.clone() })
        .collect();
    prov_mark(&mut out, cs, "already_local");
    Ok(out)
}

/// §6.1.3 — replicated senders: when several processors own a copy of the
/// same element (Theorem 2/4 with replication or overlap), keep a single
/// sender per `(p_r, a)` by pinning `p_s` to its lexicographic minimum.
///
/// # Errors
///
/// Returns [`OptError`] on arithmetic failure.
pub fn unique_sender(cs: &CommSet) -> Result<Vec<CommSet>, OptError> {
    if cs.dims.ps.is_empty() || cs.sender != SenderKind::InitialOwner {
        return Ok(vec![cs.clone()]);
    }
    let mut out = pin_lexmin(cs, &cs.poly, &cs.dims.ps)?;
    prov_mark(&mut out, cs, "unique_sender");
    Ok(out)
}

/// §6.1.3 / §7 — "sending the data only to one virtual processor in each
/// physical processor": restricts the receivers of a communication set to
/// one element per *physical* processor of a grid with the given extents —
/// the first-use one (lexicographic minimum over `(i_r, p_r)` per value
/// and physical coordinate).
///
/// Implemented polyhedrally: each receiver dimension `p_k` is decomposed
/// as `p_k = P_k·q_k + f_k` with `0 <= f_k < P_k` (fresh auxiliary
/// dimensions), and `(i_r, p_r)` is minimized with the folded coordinates
/// `f` as context. Enumeration cost then scales with physical, not
/// virtual, receiver counts.
///
/// # Errors
///
/// Returns [`OptError`] on arithmetic failure.
///
/// # Panics
///
/// Panics if `extents.len()` differs from the number of receiver
/// processor dimensions.
pub fn fold_receivers(cs: &CommSet, extents: &[i128]) -> Result<Vec<CommSet>, OptError> {
    if cs.dims.pr.is_empty() || cs.refetch_outer > 0 {
        return Ok(vec![cs.clone()]);
    }
    assert_eq!(extents.len(), cs.dims.pr.len(), "grid rank mismatch");
    // Extend the space with folded coordinates f_k and quotients q_k.
    let n0 = cs.poly.space().len();
    let mut tail = dmc_polyhedra::Space::new();
    for k in 0..extents.len() {
        tail.add_dim(format!("$pf{k}"), dmc_polyhedra::DimKind::Aux);
        tail.add_dim(format!("$pq{k}"), dmc_polyhedra::DimKind::Aux);
    }
    let mut poly = cs.poly.extend_space(&tail);
    let n = poly.space().len();
    for (k, &ext) in extents.iter().enumerate() {
        let f = n0 + 2 * k;
        let q = n0 + 2 * k + 1;
        // pr_k == ext * q_k + f_k.
        let mut e = LinExpr::var(n, cs.dims.pr[k]);
        e.set_coeff(q, -ext);
        e.set_coeff(f, -1);
        poly.add(Constraint::eq(e));
        // 0 <= f_k < ext.
        poly.add(Constraint::ge(LinExpr::var(n, f)));
        let mut hi = LinExpr::var(n, f).scaled(-1);
        hi.set_constant(ext - 1);
        poly.add(Constraint::ge(hi));
    }
    // Lexmin over (i_r, p_r, q): per (value, folded coordinate) keep the
    // first-use element on the smallest virtual. The quotients must be
    // optimized (not context), otherwise the minimum would still be taken
    // per virtual processor; they are functionally pinned by `p_r` anyway.
    let mut opt_dims: Vec<usize> = cs.dims.r_iter.clone();
    opt_dims.extend(&cs.dims.pr);
    for k in 0..extents.len() {
        opt_dims.push(n0 + 2 * k + 1);
    }
    let mut out = pin_lexmin(cs, &poly, &opt_dims)?;
    prov_mark(&mut out, cs, "fold_receivers");
    Ok(out)
}

/// Pins auxiliary dimensions that ended up with no constraints (lexopt
/// pads every piece to the widest space of the split, so a piece that did
/// not need some auxiliary has it unconstrained — harmless semantically,
/// but it would make enumeration unbounded). Any witness works; use 0.
fn pin_free_aux(poly: &mut Polyhedron, from_dim: usize) {
    let n = poly.space().len();
    for d in from_dim..n {
        if poly.constraints().iter().all(|c| c.coeff(d) == 0) {
            poly.add(Constraint::eq(LinExpr::var(n, d)));
        }
    }
}

/// §6.1's pinning step, shared by the passes that keep one element per
/// group: the lexicographic minimum of `base` over `opt_dims`, one set per
/// piece that stays feasible. A piece's system is `base` extended by the
/// piece's auxiliary dimensions, intersected with its context, with every
/// optimized dimension pinned to the piece's solution. `base` is `cs.poly`
/// or `cs.poly` with auxiliary dimensions appended; every dimension past
/// `cs.poly`'s arity becomes auxiliary in the result.
fn pin_lexmin(
    cs: &CommSet,
    base: &Polyhedron,
    opt_dims: &[usize],
) -> Result<Vec<CommSet>, OptError> {
    let n0 = cs.poly.space().len();
    let solved = lexopt(base, opt_dims, Direction::Min)?;
    let mut out = Vec::new();
    for piece in solved.pieces {
        let mut poly = base
            .extend_space(&piece.context.space().tail(base.space().len()))
            .intersect(&piece.context);
        for (&d, e) in opt_dims.iter().zip(&piece.solution) {
            let v = LinExpr::var(poly.space().len(), d);
            poly.add(Constraint::eq_pair(&v, e)?);
        }
        if !poly.integer_feasibility()?.possibly_feasible() {
            continue;
        }
        pin_free_aux(&mut poly, n0);
        let mut dims = cs.dims.clone();
        dims.aux.extend(n0..poly.space().len());
        out.push(CommSet {
            poly,
            dims,
            ..cs.clone()
        });
    }
    Ok(out)
}

/// One aggregated message (§6.2): everything a sender transmits to one
/// receiver for one value of the `i_s` aggregation prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Sender (physical coordinates when a grid was supplied, else
    /// virtual).
    pub sender: Vec<i128>,
    /// Receiver (same convention as `sender`).
    pub receiver: Vec<i128>,
    /// The aggregation key: the first `prefix_len` send-iteration values
    /// (and, for location-centric sets, the re-fetch prefix of the receive
    /// iteration).
    pub key: Vec<i128>,
    /// The message's words, as positions in the set's stream of messages:
    /// message after message, `items.len()` words each.
    pub items: Range<usize>,
}

/// The messages of one communication set ([`aggregate_messages`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Messages {
    messages: Vec<Message>,
}

impl Messages {
    /// The messages, by `(sender, key, receiver)`.
    pub fn iter(&self) -> std::slice::Iter<'_, Message> {
        self.messages.iter()
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether there are no messages.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }
}

/// Aggregates a communication set into messages (§6.2) for concrete
/// parameter values: one message per `(sender, i_s[0..prefix_len],
/// receiver)`. When `grid` is given, processors are folded to physical
/// coordinates first and elements whose sender and receiver fold to the
/// same physical processor are dropped (§6.1.3 — cyclic emulation
/// redundancy). Every receiver gets its own [`Message`]; merging identical
/// payloads into one multicast is the planner's step.
///
/// This is [`fold_messages`] at the paper's prefix, without a split,
/// multicast or payloads.
///
/// # Errors
///
/// As [`fold_messages`]: [`CommError::ParamCount`] on a wrong number of
/// parameter values, [`CommError::Poly`] on arithmetic failure or an
/// unbounded dimension. Returns `Ok(None)` for sets whose enumeration
/// exceeds `limit`.
pub fn aggregate_messages(
    cs: &CommSet,
    param_vals: &[i128],
    grid: Option<&ProcGrid>,
    limit: usize,
) -> Result<Option<Messages>, CommError> {
    let spec = FoldSpec {
        grid,
        splits: &[0],
        read_depth: 0,
        aggregate: true,
        multicast: false,
        payloads: false,
    };
    let Some(folded) = fold_messages(cs, param_vals, &spec, limit)? else {
        return Ok(None);
    };
    let coords = |cols: &[i128]| match grid {
        Some(g) => g.coords(cols[0]),
        None => cols.to_vec(),
    };
    let mut at = 0;
    let messages = folded[0]
        .chunks()
        .map(|c| {
            let items = at..at + c.words as usize;
            at = items.end;
            Message {
                sender: coords(c.sender),
                receiver: coords(c.receiver),
                key: c.key.to_vec(),
                items,
            }
        })
        .collect();
    Ok(Some(Messages { messages }))
}

/// §6.2.1 — multicast detection: a communication set can use a multicast
/// when, for a fixed sender and aggregation key, the payload does not
/// depend on the receiving processor.
///
/// Checked semantically, as one subset test: let `A` be the set with the
/// receive iterations (and auxiliaries) projected away, and `B` the product
/// of its projections onto "payload" (array subscripts + post-prefix send
/// iterations) and onto the receiver processors,
/// `B = proj_payload(A) ∧ proj_pr(A)`. `B` always contains `A`; when also
/// `B ⊆ A` ([`Polyhedron::is_subset_of`]), the product adds nothing, the
/// items of a message do not vary with the receiver, and the data can be
/// multicast.
///
/// `A` is not reduced first. Its superfluous rows change none of its
/// integer points and can only shrink its rational projections, so `B` is
/// at most the `B` of the reduced system. Compared with testing a reduced
/// `A`, a verdict can therefore only become more precise (move from
/// `false` to `true`), and a `true` stays sound: `B` still contains the
/// product of `A`'s integer projections.
///
/// # Errors
///
/// Returns [`OptError`] on arithmetic failure.
pub fn is_multicast(cs: &CommSet) -> Result<bool, OptError> {
    let mut drop = cs.dims.r_iter.clone();
    drop.extend(&cs.dims.aux);
    let a = cs.poly.eliminate_dims(&drop)?;
    let payload: Vec<usize> = cs
        .dims
        .arr
        .iter()
        .chain(cs.dims.s_iter.iter().skip(cs.prefix_len))
        .copied()
        .collect();
    let b = a
        .eliminate_dims(&payload)?
        .intersect(&a.eliminate_dims(&cs.dims.pr)?);
    Ok(b.is_subset_of(&a)?)
}

/// Cross-context self-reuse elimination: the per-set pass
/// ([`eliminate_self_reuse`]) keeps one transfer per *context*; when a
/// tree has several source contexts for the same producing write (e.g. a
/// loop-independent context and a carried one), the same value would still
/// be sent once per context. Because a deeper-level read of a value always
/// precedes a shallower-level read of the same value lexicographically,
/// processing sets in decreasing level order and subtracting each set's
/// `(i_s, p_s, p_r, a)` projection from the later ones removes exactly the
/// duplicate transfers.
///
/// The subtracted projection is computed with
/// [`dmc_polyhedra::Polyhedron::eliminate_dims_under`], an integer
/// *under*-approximation — so a removed element is guaranteed to have been
/// covered by the earlier set. Imprecision only costs redundant messages,
/// never correctness.
///
/// # Errors
///
/// Returns [`OptError`] on arithmetic failure.
pub fn eliminate_cross_set_reuse(sets: &[CommSet]) -> Result<Vec<CommSet>, OptError> {
    use dmc_dataflow::DepLevel;
    // Order: Independent first, then Carried(k) by decreasing k, then
    // initial-owner sets.
    let mut order: Vec<usize> = (0..sets.len()).collect();
    let level_key = |cs: &CommSet| match cs.level {
        Some(DepLevel::Independent) => 0usize,
        Some(DepLevel::Carried(k)) => usize::MAX - k,
        None => usize::MAX,
    };
    order.sort_by_key(|&i| level_key(&sets[i]));

    let mut out: Vec<CommSet> = Vec::new();
    let mut claimed: Vec<(usize, Polyhedron)> = Vec::new(); // (set idx, projection)
    for &i in &order {
        let cs = &sets[i];
        let mut pieces = vec![cs.poly.clone()];
        for (j, proj) in &claimed {
            let other = &sets[*j];
            // Only the same value (same producing write) to the same
            // receiver is redundant; values from different writes differ.
            if other.write_stmt != cs.write_stmt
                || other.read_stmt != cs.read_stmt
                || other.read_no != cs.read_no
                || other.poly.space() != cs.poly.space()
            {
                continue;
            }
            let mut next = Vec::new();
            for piece in pieces {
                next.extend(piece.subtract(proj)?);
            }
            pieces = next;
        }
        let mut kept = Vec::new();
        for piece in pieces {
            if piece.integer_feasibility()?.possibly_feasible() {
                kept.push(CommSet {
                    poly: piece,
                    ..cs.clone()
                });
            }
        }
        prov_mark(&mut kept, cs, "cross_set_reuse");
        out.extend(kept);
        // Record this set's (under-approximated) projection for later
        // (shallower) sets.
        if cs.dims.aux.is_empty() {
            let proj = cs.poly.eliminate_dims_under(&cs.dims.r_iter)?;
            claimed.push((i, proj));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commset::{comm_from_initial, comm_from_leaf};
    use dmc_dataflow::build_lwt;
    use dmc_decomp::CompDecomp;
    use dmc_ir::parse;

    /// §2.2.2's X/Y example: S1 writes X[i]; S2 reads X[j-1] in an inner
    /// loop re-reading the same values every outer iteration — the shape
    /// where value-centric analysis sends each value once.
    fn xy_setup() -> (dmc_ir::Program, dmc_dataflow::LastWriteTree) {
        let p = parse(
            "param N; array X[N + 1]; array Y[N + 1];
             for i = 0 to N {
               X[i] = 1.5;
               for j = 1 to N {
                 Y[j] = Y[j] + X[j - 1];
               }
             }",
        )
        .unwrap();
        let lwt = build_lwt(&p, 1, 1).unwrap();
        (p, lwt)
    }

    #[test]
    fn self_reuse_elimination_sends_each_value_once() {
        // Figure 2 variant where the same remote value is read repeatedly:
        //   for t { for i { X[i] = X[i-3] } } has no self reuse (each value
        // read once), so elimination is the identity there. The X/Y example
        // has massive self reuse: X[j-1] is re-read every outer iteration
        // but only the first read after the write needs a transfer.
        let (p, lwt) = xy_setup();
        let stmts = p.statements();
        let comp_w = CompDecomp::block_1d(0, "i", 4);
        let comp_r = CompDecomp::block_1d(1, "j", 4);
        let mut raw_elems = 0usize;
        let mut per_set: Vec<CommSet> = Vec::new();
        for leaf in lwt.source_leaves() {
            let sets =
                comm_from_leaf(&p, &lwt, leaf, &stmts[1], &stmts[0], &comp_r, &comp_w).unwrap();
            for cs in &sets {
                raw_elems += cs.enumerate(&[11], 100_000).unwrap().unwrap().len();
                per_set.extend(eliminate_self_reuse(cs).unwrap());
            }
        }
        let per_set_elems: usize = per_set
            .iter()
            .map(|cs| cs.enumerate(&[11], 100_000).unwrap().unwrap().len())
            .sum();
        assert!(raw_elems > 0);
        assert!(
            per_set_elems < raw_elems,
            "self-reuse elimination did not help: {per_set_elems} vs {raw_elems}"
        );
        // The per-context pass can leave one transfer per context (the
        // loop-independent context and the carried context each keep one);
        // the cross-context pass reduces to exactly one transfer per value
        // and receiver. With N=11 and block 4: X[k] is written by p=k/4 and
        // read as X[j-1] by p'=j/4; only j=4 and j=8 cross blocks.
        let cross = eliminate_cross_set_reuse(&per_set).unwrap();
        let opt_elems: usize = cross
            .iter()
            .map(|cs| cs.enumerate(&[11], 100_000).unwrap().unwrap().len())
            .sum();
        assert!(opt_elems <= per_set_elems);
        assert_eq!(opt_elems, 2);
    }

    #[test]
    fn already_local_elimination_with_overlap() {
        // Stencil-style initial decomposition with overlap: receivers that
        // already hold the border copy need nothing.
        let p = parse(
            "param N; array X[N + 1]; array Y[N + 1];
             for i = 1 to N { Y[i] = X[i - 1]; }",
        )
        .unwrap();
        let lwt = build_lwt(&p, 0, 0).unwrap();
        let stmts = p.statements();
        let comp = CompDecomp::block_1d(0, "i", 4);
        // X blocked by 4; readers of X[i-1] at block starts need the
        // neighbour's last element.
        let plain = dmc_decomp::DataDecomp::block_1d("X", 1, 0, 4);
        let leaf = lwt.bottom_leaves().next().unwrap();
        let sets = comm_from_initial(&p, &lwt, leaf, &stmts[0], &comp, &plain).unwrap();
        let before: usize = sets
            .iter()
            .map(|cs| cs.enumerate(&[12], 10_000).unwrap().unwrap().len())
            .sum();
        assert!(before > 0);
        // With one element of low-side overlap, every border element is
        // already local: nothing left after elimination.
        let overlapped = dmc_decomp::DataDecomp::from_maps(
            "X",
            1,
            vec![dmc_decomp::DimMap::block(dmc_ir::Aff::var("a0"), 4).with_overlap(1, 0)],
        );
        let after: usize = sets
            .iter()
            .flat_map(|cs| eliminate_already_local(cs, &overlapped).unwrap())
            .map(|cs| cs.enumerate(&[12], 10_000).unwrap().unwrap().len())
            .sum();
        assert_eq!(after, 0);
    }

    #[test]
    fn unique_sender_for_replicated_initial_data() {
        // Initial data fully... partially replicated: blocks of 4 with one
        // element of overlap on each side — border elements have two
        // owners; unique_sender must keep exactly one per (receiver, a).
        let p = parse(
            "param N; array X[N + 1]; array Y[N + 1];
             for i = 0 to N { Y[i] = X[i]; }",
        )
        .unwrap();
        let lwt = build_lwt(&p, 0, 0).unwrap();
        let stmts = p.statements();
        // Readers in blocks of 2 => many cross-processor reads.
        let comp = CompDecomp::block_1d(0, "i", 2);
        let data = dmc_decomp::DataDecomp::from_maps(
            "X",
            1,
            vec![dmc_decomp::DimMap::block(dmc_ir::Aff::var("a0"), 4).with_overlap(1, 1)],
        );
        let leaf = lwt.bottom_leaves().next().unwrap();
        let sets = comm_from_initial(&p, &lwt, leaf, &stmts[0], &comp, &data).unwrap();
        let mut elems = Vec::new();
        for cs in &sets {
            for u in unique_sender(cs).unwrap() {
                elems.extend(u.enumerate(&[11], 10_000).unwrap().unwrap());
            }
        }
        // No (receiver, element) pair may appear twice.
        let mut keys: Vec<(Vec<i128>, Vec<i128>, Vec<i128>)> = elems
            .iter()
            .map(|e| (e.pr.clone(), e.r_iter.clone(), e.arr.clone()))
            .collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate senders for the same element");
    }

    #[test]
    fn figure10_aggregation() {
        // Figure 2 with block 32: after level-2 aggregation (prefix t_s),
        // each (sender, t, receiver) sends ONE message of 3 items.
        let p = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap();
        let lwt = build_lwt(&p, 0, 0).unwrap();
        let stmts = p.statements();
        let comp = CompDecomp::block_1d(0, "i", 32);
        let leaf = lwt.source_leaves().next().unwrap();
        let sets = comm_from_leaf(&p, &lwt, leaf, &stmts[0], &stmts[0], &comp, &comp).unwrap();
        assert_eq!(sets.len(), 1);
        let msgs = aggregate_messages(&sets[0], &[1, 95], None, 100_000)
            .unwrap()
            .unwrap();
        // T=1 (2 outer iterations), N=95 (blocks 0..2 full): receivers are
        // pr = 1, 2 each outer iteration: 2 * 2 = 4 messages.
        assert_eq!(msgs.len(), 4);
        for m in msgs.iter() {
            assert_eq!(m.items.len(), 3, "{m:?}");
            assert_eq!(m.sender[0], m.receiver[0] - 1);
        }
        // Pack order equals unpack order: items sorted by send iteration,
        // then array element (`(i_s, p_s, i_r, p_r, a)` for these sets).
        let spec = FoldSpec {
            grid: None,
            splits: &[0],
            read_depth: 2,
            aggregate: true,
            multicast: false,
            payloads: true,
        };
        let folded = fold_messages(&sets[0], &[1, 95], &spec, 100_000)
            .unwrap()
            .unwrap();
        assert_eq!(folded[0].len(), 4);
        for c in folded[0].chunks() {
            let items: Vec<_> = folded[0].payload(c.payload).collect();
            assert_eq!(items.len() as u64, c.words);
            assert!(items.is_sorted(), "{items:?}");
            assert_eq!(c.last_send, items[2].0);
        }
    }

    #[test]
    fn aggregation_with_physical_folding_drops_local_pairs() {
        // Cyclic computation on 2 physical processors: virtual p sends to
        // virtual p+2 — same physical processor, so no message at all.
        let p = parse(
            "param N; array X[N + 1];
             for i = 2 to N { X[i] = X[i - 2]; }",
        )
        .unwrap();
        let lwt = build_lwt(&p, 0, 0).unwrap();
        let stmts = p.statements();
        let comp = CompDecomp::cyclic_1d(0, "i");
        let leaf = lwt.source_leaves().next().unwrap();
        let sets = comm_from_leaf(&p, &lwt, leaf, &stmts[0], &stmts[0], &comp, &comp).unwrap();
        let grid = ProcGrid::line(2);
        let total: usize = sets
            .iter()
            .map(|cs| {
                aggregate_messages(cs, &[10], Some(&grid), 10_000)
                    .unwrap()
                    .unwrap()
                    .len()
            })
            .sum();
        assert_eq!(
            total, 0,
            "virtual distance 2 folds onto the same physical processor"
        );
        // On 3 physical processors the messages are real.
        let grid3 = ProcGrid::line(3);
        let total3: usize = sets
            .iter()
            .map(|cs| {
                aggregate_messages(cs, &[10], Some(&grid3), 10_000)
                    .unwrap()
                    .unwrap()
                    .len()
            })
            .sum();
        assert!(total3 > 0);
    }

    #[test]
    fn multicast_detection() {
        // LU pivot-row broadcast: X[i1][i3] read by every i2 — for a fixed
        // sender iteration the payload is independent of the receiver.
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
        let lwt = build_lwt(&p, 1, 2).unwrap();
        let stmts = p.statements();
        let comp2 = CompDecomp::cyclic_1d(1, "i2");
        let leaf = lwt.source_leaves().next().unwrap();
        let sets = comm_from_leaf(&p, &lwt, leaf, &stmts[1], &stmts[1], &comp2, &comp2).unwrap();
        assert!(!sets.is_empty());
        for cs in &sets {
            assert!(
                is_multicast(cs).unwrap(),
                "LU pivot row should be multicast"
            );
        }
        // Counter-example: one owner scatters *different* elements to each
        // receiver — the payload depends on p_r, so no multicast. (Note
        // that Figure 2's neighbour shift is a degenerate multicast: each
        // sender has exactly one receiver, so the payload trivially does
        // not vary across receivers.)
        let p2 = parse(
            "param N; array X[2 * N + 1]; array Y[N + 1];
             for j = 0 to N { Y[j] = X[2 * j]; }",
        )
        .unwrap();
        let lwt2 = build_lwt(&p2, 0, 0).unwrap();
        let stmts2 = p2.statements();
        let comp = CompDecomp::block_1d(0, "j", 2);
        let owner = dmc_decomp::DataDecomp::block_1d("X", 1, 0, 1_000_000);
        let leaf2 = lwt2.bottom_leaves().next().unwrap();
        let sets2 = comm_from_initial(&p2, &lwt2, leaf2, &stmts2[0], &comp, &owner).unwrap();
        assert!(!sets2.is_empty());
        let mut any_scatter = false;
        for cs in &sets2 {
            if !is_multicast(cs).unwrap() {
                any_scatter = true;
            }
        }
        assert!(
            any_scatter,
            "owner scatter must not be classified as multicast"
        );
    }
}
