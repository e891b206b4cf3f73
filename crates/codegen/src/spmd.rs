//! Computation code generation (paper §5.3, Figure 7(a,b)) and program
//! assembly.

use dmc_decomp::CompDecomp;
use dmc_ir::{Program, StmtInfo};
use dmc_polyhedra::{scan_bounds, DimKind, PolyError, Space};

use crate::ast::{render, SpmdStmt};
use crate::scan::loops_from_nest;

/// Canonical processor-dimension names used in generated computation code.
pub fn proc_dim_names(q: usize) -> Vec<String> {
    (0..q).map(|k| format!("p{k}")).collect()
}

/// Generates the computation loop nest for one statement: the iterations
/// of `C` for a symbolic processor `p…` (Figure 7(a)). Each processor runs
/// the nest with its own id; the guard rejects processors with no work.
///
/// # Errors
///
/// Returns [`PolyError::Overflow`] on overflow and
/// [`PolyError::Unbounded`] if a loop of the statement is unbounded.
pub fn computation_code(
    program: &Program,
    info: &StmtInfo,
    comp: &CompDecomp,
) -> Result<Vec<SpmdStmt>, PolyError> {
    let mut space = Space::new();
    let mut loop_dims = Vec::new();
    for v in info.loop_vars() {
        loop_dims.push(space.add_dim(v.to_owned(), DimKind::Index));
    }
    let mut proc_dims = Vec::new();
    for name in proc_dim_names(comp.proc_ndim()) {
        proc_dims.push(space.add_dim(name, DimKind::Proc));
    }
    for p in &program.params {
        space.add_dim(p.clone(), DimKind::Param);
    }
    let mut poly = info.domain(&space, &[]);
    comp.constrain(&mut poly, &[], &proc_dims);
    let nest = scan_bounds(&poly, &loop_dims)?;
    loops_from_nest(&nest, &space, vec![SpmdStmt::Compute { stmt: info.id }])
}

/// A complete per-processor program: local declarations (as comments),
/// initial-data communication, and the main body.
#[derive(Clone, Debug, Default)]
pub struct SpmdProgram {
    /// Header comments (local array shapes, buffer sizes).
    pub decls: Vec<String>,
    /// Pre-loop communication (initial data, Theorem 4 sends/receives).
    pub prologue: Vec<SpmdStmt>,
    /// The main body: computation nests with embedded communication.
    pub body: Vec<SpmdStmt>,
}

impl SpmdProgram {
    /// Renders the whole program as C-like text (the Figure 13 artifact).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.decls {
            out.push_str("/* ");
            out.push_str(d);
            out.push_str(" */\n");
        }
        if !self.prologue.is_empty() {
            out.push_str("/* initial data redistribution */\n");
            out.push_str(&render(&self.prologue));
        }
        out.push_str(&render(&self.body));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::tests::eval_iterations;
    use dmc_ir::{parse, Aff};

    #[test]
    fn figure7a_for_real_program() {
        let p = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap();
        let stmts = p.statements();
        let comp = CompDecomp::block_1d(0, "i", 32);
        let code = computation_code(&p, &stmts[0], &comp).unwrap();
        let text = render(&code);
        assert!(text.contains("for t = 0 to T {"), "{text}");
        // Processor 1 executes exactly i in 32..=63 for each t.
        let envs = eval_iterations(&code, &[("p0", 1), ("T", 2), ("N", 95)]);
        assert_eq!(envs.len(), 3 * 32);
        assert!(envs.iter().all(|e| (32..=63).contains(&e["i"])));
        // A processor beyond the data range does nothing.
        let envs = eval_iterations(&code, &[("p0", 4), ("T", 2), ("N", 95)]);
        assert!(envs.is_empty());
    }

    #[test]
    fn an_unbounded_loop_is_an_error_not_a_panic() {
        let p = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap();
        let mut info = p.statements()[0].clone();
        // `for t = 0 to t`: the upper bound no longer bounds anything.
        info.loops[0].upper = Aff::var("t");
        let comp = CompDecomp::block_1d(0, "i", 32);
        assert_eq!(
            computation_code(&p, &info, &comp),
            Err(PolyError::Unbounded(0))
        );
    }

    #[test]
    fn lu_cyclic_computation_code() {
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
        // Cyclic: virtual processor p executes iterations with i2 == p.
        let comp1 = CompDecomp::cyclic_1d(0, "i2");
        let code = computation_code(&p, &stmts[0], &comp1).unwrap();
        let text = render(&code);
        // i2 is pinned to the processor id: a degenerate loop.
        assert!(text.contains("i2 = p0;"), "{text}");
        let envs = eval_iterations(&code, &[("p0", 3), ("N", 6)]);
        // S1 runs for i1 in 0..=2 (i1 < i2 == 3).
        let i1s: Vec<i128> = envs.iter().map(|e| e["i1"]).collect();
        assert_eq!(i1s, vec![0, 1, 2]);
    }
}
