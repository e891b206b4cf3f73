//! Receive/send loop-nest generation for communication sets (paper §5.3 and
//! §6.2, Figures 7(c,d) and 10).

use dmc_commgen::CommSet;
use dmc_polyhedra::{scan_bounds, PolyError};

use crate::ast::{IntExpr, SpmdStmt};
use crate::scan::loops_from_nest;

/// Generates the *plain* (unaggregated) receive code for a communication
/// set: one `receive` per element, scanned in
/// `(i_r, p_s, i_s, a)` order with `p_r` symbolic (each processor
/// instantiates its own id) — the paper's Figure 7(c).
///
/// # Errors
///
/// Returns [`PolyError::Overflow`] on overflow and
/// [`PolyError::Unbounded`] if a scanned dimension is unbounded.
pub fn recv_code(cs: &CommSet, comm_id: usize) -> Result<Vec<SpmdStmt>, PolyError> {
    let mut order = Vec::new();
    order.extend(&cs.dims.r_iter);
    order.extend(&cs.dims.ps);
    order.extend(&cs.dims.s_iter);
    order.extend(&cs.dims.arr);
    order.extend(&cs.dims.aux);
    let nest = scan_bounds(&cs.poly, &order)?;
    loops_from_nest(
        &nest,
        cs.poly.space(),
        vec![SpmdStmt::Recv { comm: comm_id }],
    )
}

/// Generates the plain send code: scanned in `(i_s, p_r, i_r, a)` order
/// with `p_s` symbolic — the paper's Figure 7(d).
///
/// # Errors
///
/// As [`recv_code`].
pub fn send_code(cs: &CommSet, comm_id: usize) -> Result<Vec<SpmdStmt>, PolyError> {
    let mut order = Vec::new();
    order.extend(&cs.dims.s_iter);
    order.extend(&cs.dims.pr);
    order.extend(&cs.dims.r_iter);
    order.extend(&cs.dims.arr);
    order.extend(&cs.dims.aux);
    let nest = scan_bounds(&cs.poly, &order)?;
    loops_from_nest(
        &nest,
        cs.poly.space(),
        vec![SpmdStmt::Send { comm: comm_id }],
    )
}

/// Generates the aggregated send code of §6.2 (Figure 10): scanning in
/// `(p_s, i_s1 … i_s,k-1, p_r, i_s,k …, i_r, a)` order, with one message
/// per instance of the loops up to and including `p_r` — a buffer is
/// packed by the inner loops and sent once.
///
/// # Errors
///
/// As [`recv_code`].
pub fn send_code_aggregated(cs: &CommSet, comm_id: usize) -> Result<Vec<SpmdStmt>, PolyError> {
    let k = cs.prefix_len.min(cs.dims.s_iter.len());
    let mut order = Vec::new();
    order.extend(&cs.dims.s_iter[..k]);
    order.extend(&cs.dims.pr);
    let boundary = order.len();
    order.extend(&cs.dims.s_iter[k..]);
    order.extend(&cs.dims.r_iter);
    order.extend(&cs.dims.arr);
    order.extend(&cs.dims.aux);
    let nest = scan_bounds(&cs.poly, &order)?;
    let space = cs.poly.space();
    let pack = SpmdStmt::PackItem {
        array: cs.array.clone(),
        idx: cs
            .dims
            .arr
            .iter()
            .map(|&d| IntExpr::Var(space.dim(d).name().to_owned()))
            .collect(),
    };
    let pre = vec![SpmdStmt::ResetIndex];
    let post = vec![SpmdStmt::SendBuffer {
        comm: comm_id,
        to: cs
            .dims
            .pr
            .iter()
            .map(|&d| IntExpr::Var(space.dim(d).name().to_owned()))
            .collect(),
    }];
    loops_with_boundary(&nest, space, boundary, pre, vec![pack], post)
}

/// Generates the aggregated receive code of §6.2 (Figure 10): scanning in
/// `(p_r, i_r1 … i_r,k-1, p_s, i_s,k …, i_r,k …, a)` order; the message is
/// received once per instance of the loops up to and including `p_s`, then
/// unpacked by the inner loops in exactly the sender's packing order.
///
/// # Errors
///
/// As [`recv_code`].
pub fn recv_code_aggregated(cs: &CommSet, comm_id: usize) -> Result<Vec<SpmdStmt>, PolyError> {
    let k = cs.prefix_len.min(cs.dims.s_iter.len());
    let kr = cs.prefix_len.min(cs.dims.r_iter.len());
    let mut order = Vec::new();
    order.extend(&cs.dims.r_iter[..kr]);
    order.extend(&cs.dims.s_iter[..k]);
    order.extend(&cs.dims.ps);
    let boundary = order.len();
    order.extend(&cs.dims.s_iter[k..]);
    order.extend(&cs.dims.r_iter[kr..]);
    order.extend(&cs.dims.arr);
    order.extend(&cs.dims.aux);
    let nest = scan_bounds(&cs.poly, &order)?;
    let space = cs.poly.space();
    let unpack = SpmdStmt::UnpackItem {
        array: cs.array.clone(),
        idx: cs
            .dims
            .arr
            .iter()
            .map(|&d| IntExpr::Var(space.dim(d).name().to_owned()))
            .collect(),
    };
    let pre = vec![
        SpmdStmt::RecvBuffer {
            comm: comm_id,
            from: cs
                .dims
                .ps
                .iter()
                .map(|&d| IntExpr::Var(space.dim(d).name().to_owned()))
                .collect(),
        },
        SpmdStmt::ResetIndex,
    ];
    loops_with_boundary(&nest, space, boundary, pre, vec![unpack], vec![])
}

/// Assembles a scanned nest with a message boundary: the loops for the
/// first `boundary` scan variables wrap `pre ++ (inner loops around
/// inner_body) ++ post`.
fn loops_with_boundary(
    nest: &dmc_polyhedra::ScanNest,
    space: &dmc_polyhedra::Space,
    boundary: usize,
    pre: Vec<SpmdStmt>,
    inner_body: Vec<SpmdStmt>,
    post: Vec<SpmdStmt>,
) -> Result<Vec<SpmdStmt>, PolyError> {
    // Split the nest into outer and inner portions.
    let inner_nest = dmc_polyhedra::ScanNest {
        vars: nest.vars[boundary..].to_vec(),
        guard: dmc_polyhedra::Polyhedron::universe(space.clone()),
    };
    let inner = loops_from_nest(&inner_nest, space, inner_body)?;
    let mut mid = pre;
    mid.extend(inner);
    mid.extend(post);
    let outer_nest = dmc_polyhedra::ScanNest {
        vars: nest.vars[..boundary].to_vec(),
        guard: nest.guard.clone(),
    };
    loops_from_nest(&outer_nest, space, mid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::render;
    use crate::scan::tests::eval_iterations;
    use dmc_commgen::comm_from_leaf;
    use dmc_dataflow::build_lwt;
    use dmc_decomp::CompDecomp;
    use dmc_ir::parse;
    use dmc_polyhedra::Polyhedron;

    fn figure5_set() -> CommSet {
        let p = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap();
        let lwt = build_lwt(&p, 0, 0).unwrap();
        let stmts = p.statements();
        let comp = CompDecomp::block_1d(0, "i", 32);
        let leaf = lwt.source_leaves().next().unwrap();
        let mut sets = comm_from_leaf(&p, &lwt, leaf, &stmts[0], &stmts[0], &comp, &comp).unwrap();
        assert_eq!(sets.len(), 1);
        sets.pop().expect("one set")
    }

    #[test]
    fn figure7c_receive_loops() {
        let cs = figure5_set();
        let code = recv_code(&cs, 0).unwrap();
        let text = render(&code);
        // ps is degenerate: ps0 = pr0 - 1 (paper: p_s = p_r - 1).
        assert!(text.contains("ps0 = pr0 - 1;"), "{text}");
        // Receiver p=1 at T=1, N=95: receives at i_r = 32, 33, 34 per t.
        let envs = eval_iterations(&code, &[("pr0", 1), ("T", 1), ("N", 95)]);
        let irs: Vec<i128> = envs.iter().map(|e| e["i$r"]).collect();
        assert_eq!(irs, vec![32, 33, 34, 32, 33, 34]);
        // Processor 0 receives nothing (its guard fails).
        let envs = eval_iterations(&code, &[("pr0", 0), ("T", 1), ("N", 95)]);
        assert!(envs.is_empty());
    }

    #[test]
    fn figure7d_send_loops() {
        let cs = figure5_set();
        let code = send_code(&cs, 0).unwrap();
        let text = render(&code);
        assert!(text.contains("pr0 = ps0 + 1;"), "{text}");
        // Sender p=0 at T=0, N=95 sends its last 3 iterations: 29, 30, 31.
        let envs = eval_iterations(&code, &[("ps0", 0), ("T", 0), ("N", 95)]);
        let iss: Vec<i128> = envs.iter().map(|e| e["i$s"]).collect();
        assert_eq!(iss, vec![29, 30, 31]);
    }

    #[test]
    fn figure10_aggregated_send_and_recv() {
        let cs = figure5_set();
        let send = send_code_aggregated(&cs, 0).unwrap();
        let stext = render(&send);
        // One send per (t_s, p_r): the buffer send sits inside the t loop,
        // outside the i loop.
        assert!(stext.contains("send_buffer(comm_0"), "{stext}");
        assert!(stext.contains("buffer[idx++] = X[a0]"), "{stext}");
        let recv = recv_code_aggregated(&cs, 0).unwrap();
        let rtext = render(&recv);
        assert!(rtext.contains("recv_buffer(comm_0"), "{rtext}");
        assert!(rtext.contains("X[a0] = buffer[idx++]"), "{rtext}");

        // The sender packs exactly the 3 items per message, in the same
        // order the receiver unpacks.
        let pack_envs = eval_iterations(&send, &[("ps0", 0), ("T", 0), ("N", 95)]);
        let unpack_envs = eval_iterations(&recv, &[("pr0", 1), ("T", 0), ("N", 95)]);
        let packed: Vec<i128> = pack_envs
            .iter()
            .filter_map(|e| e.get("a0").copied())
            .collect();
        let unpacked: Vec<i128> = unpack_envs
            .iter()
            .filter_map(|e| e.get("a0").copied())
            .collect();
        assert_eq!(packed, vec![29, 30, 31]);
        assert_eq!(packed, unpacked, "pack and unpack orders must agree");
    }

    /// `figure5_set` with every constraint on one of its dimensions
    /// dropped, and that dimension.
    fn figure5_freed(dim: fn(&CommSet) -> usize) -> (CommSet, usize) {
        let mut cs = figure5_set();
        let d = dim(&cs);
        let mut free = Polyhedron::universe(cs.poly.space().clone());
        free.add_all(
            cs.poly
                .constraints()
                .iter()
                .filter(|c| c.coeff(d) == 0)
                .cloned(),
        );
        cs.poly = free;
        (cs, d)
    }

    #[test]
    fn an_unbounded_scanned_dimension_is_an_error_not_a_panic() {
        // The send side scans p_r: with it freed, both send entry points
        // report it, while the receive side, where p_r stays symbolic,
        // still emits its code.
        let (cs, pr) = figure5_freed(|cs| cs.dims.pr[0]);
        assert_eq!(send_code(&cs, 0), Err(PolyError::Unbounded(pr)));
        assert_eq!(send_code_aggregated(&cs, 0), Err(PolyError::Unbounded(pr)));
        assert!(recv_code(&cs, 0).is_ok() && recv_code_aggregated(&cs, 0).is_ok());
        // The receive side scans p_s.
        let (cs, ps) = figure5_freed(|cs| cs.dims.ps[0]);
        assert_eq!(recv_code(&cs, 0), Err(PolyError::Unbounded(ps)));
        assert_eq!(recv_code_aggregated(&cs, 0), Err(PolyError::Unbounded(ps)));
    }
}
