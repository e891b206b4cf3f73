//! The SPMD target AST: the code each processor executes.
//!
//! The generated program mirrors the paper's output (Figures 7, 10, 13):
//! guards on the processor id, loop nests whose bounds are `max`es of
//! ceiling divisions and `min`s of floor divisions, degenerate loops turned
//! into assignments (§5.2), computation statements, and pack/send /
//! receive/unpack blocks.

use std::fmt;

/// An integer-valued expression in generated code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntExpr {
    /// A literal constant.
    Const(i128),
    /// A named variable (loop variable, parameter, processor id component).
    Var(String),
    /// Sum of terms with coefficients plus a constant — affine shorthand.
    Affine {
        /// `(coefficient, variable)` pairs.
        terms: Vec<(i128, String)>,
        /// Constant term.
        constant: i128,
    },
    /// `ceil(e / d)` with `d >= 1`.
    CeilDiv(Box<IntExpr>, i128),
    /// `floor(e / d)` with `d >= 1`.
    FloorDiv(Box<IntExpr>, i128),
    /// Maximum of the operands.
    Max(Vec<IntExpr>),
    /// Minimum of the operands.
    Min(Vec<IntExpr>),
}

impl IntExpr {
    /// Evaluates the expression under a variable binding.
    ///
    /// # Panics
    ///
    /// Panics if a variable is unbound or a `Max`/`Min` is empty.
    pub fn eval(&self, env: &dyn Fn(&str) -> i128) -> i128 {
        match self {
            IntExpr::Const(c) => *c,
            IntExpr::Var(v) => env(v),
            IntExpr::Affine { terms, constant } => {
                let mut acc = *constant;
                for (c, v) in terms {
                    acc += c * env(v);
                }
                acc
            }
            IntExpr::CeilDiv(e, d) => dmc_polyhedra::num::div_ceil(e.eval(env), *d),
            IntExpr::FloorDiv(e, d) => dmc_polyhedra::num::div_floor(e.eval(env), *d),
            IntExpr::Max(es) => es.iter().map(|e| e.eval(env)).max().expect("empty max"),
            IntExpr::Min(es) => es.iter().map(|e| e.eval(env)).min().expect("empty min"),
        }
    }

    /// Builds an affine expression from a positional [`dmc_polyhedra::LinExpr`] and its
    /// space (dimension names become variable names).
    pub fn from_linexpr(e: &dmc_polyhedra::LinExpr, space: &dmc_polyhedra::Space) -> IntExpr {
        let mut terms = Vec::new();
        for d in 0..e.len() {
            let c = e.coeff(d);
            if c != 0 {
                terms.push((c, space.dim(d).name().to_owned()));
            }
        }
        if terms.is_empty() {
            IntExpr::Const(e.constant_term())
        } else {
            IntExpr::Affine {
                terms,
                constant: e.constant_term(),
            }
        }
    }
}

impl fmt::Display for IntExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntExpr::Const(c) => write!(f, "{c}"),
            IntExpr::Var(v) => write!(f, "{v}"),
            IntExpr::Affine { terms, constant } => {
                let mut wrote = false;
                for (c, v) in terms {
                    if !wrote {
                        match *c {
                            1 => write!(f, "{v}")?,
                            -1 => write!(f, "-{v}")?,
                            c => write!(f, "{c}*{v}")?,
                        }
                    } else if *c > 0 {
                        if *c == 1 {
                            write!(f, " + {v}")?;
                        } else {
                            write!(f, " + {c}*{v}")?;
                        }
                    } else if *c == -1 {
                        write!(f, " - {v}")?;
                    } else {
                        write!(f, " - {}*{v}", -c)?;
                    }
                    wrote = true;
                }
                if !wrote {
                    write!(f, "{constant}")?;
                } else if *constant > 0 {
                    write!(f, " + {constant}")?;
                } else if *constant < 0 {
                    write!(f, " - {}", -constant)?;
                }
                Ok(())
            }
            IntExpr::CeilDiv(e, d) => write!(f, "ceil(({e}) / {d})"),
            IntExpr::FloorDiv(e, d) => write!(f, "floor(({e}) / {d})"),
            IntExpr::Max(es) => {
                if es.len() == 1 {
                    return write!(f, "{}", es[0]);
                }
                write!(f, "MAX(")?;
                for (k, e) in es.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            IntExpr::Min(es) => {
                if es.len() == 1 {
                    return write!(f, "{}", es[0]);
                }
                write!(f, "MIN(")?;
                for (k, e) in es.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A comparison atom in a guard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CondAtom {
    /// `e >= 0`.
    Ge(IntExpr),
    /// `e == 0`.
    Eq(IntExpr),
}

impl CondAtom {
    /// Evaluates the atom.
    ///
    /// # Panics
    ///
    /// Panics on unbound variables.
    pub fn eval(&self, env: &dyn Fn(&str) -> i128) -> bool {
        match self {
            CondAtom::Ge(e) => e.eval(env) >= 0,
            CondAtom::Eq(e) => e.eval(env) == 0,
        }
    }
}

impl fmt::Display for CondAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CondAtom::Ge(e) => write!(f, "{e} >= 0"),
            CondAtom::Eq(e) => write!(f, "{e} == 0"),
        }
    }
}

/// A node of the generated SPMD program.
#[derive(Clone, Debug, PartialEq)]
pub enum SpmdStmt {
    /// `for var = lo to hi step s { body }` (inclusive bounds).
    For {
        /// Loop variable.
        var: String,
        /// Inclusive lower bound.
        lo: IntExpr,
        /// Inclusive upper bound.
        hi: IntExpr,
        /// Step (>= 1).
        step: i128,
        /// Loop body.
        body: Vec<SpmdStmt>,
    },
    /// `if (cond1 && cond2 && …) { body }`.
    If {
        /// Conjunction of atoms.
        cond: Vec<CondAtom>,
        /// Guarded body.
        then: Vec<SpmdStmt>,
    },
    /// `var = value;` — a degenerate loop turned into an assignment (§5.2).
    Let {
        /// Variable name.
        var: String,
        /// Assigned value.
        value: IntExpr,
    },
    /// Execute source statement `stmt` with the current loop-variable
    /// environment (array accesses are resolved against local memory).
    Compute {
        /// Textual statement id in the source program.
        stmt: usize,
    },
    /// Pack items and send one message (or multicast) for communication
    /// set `comm`; the concrete items are resolved by the plan at runtime.
    Send {
        /// Communication-set index in the plan.
        comm: usize,
    },
    /// Block until the matching message arrives, then unpack into local
    /// memory.
    Recv {
        /// Communication-set index in the plan.
        comm: usize,
    },
    /// `idx = 0;` — reset the message buffer cursor.
    ResetIndex,
    /// `buffer[idx++] = array[idx…];` — pack one element (aggregated send,
    /// Figure 10).
    PackItem {
        /// Array being packed from.
        array: String,
        /// Global subscripts of the packed element.
        idx: Vec<IntExpr>,
    },
    /// `array[idx…] = buffer[idx++];` — unpack one element (aggregated
    /// receive).
    UnpackItem {
        /// Array being unpacked into.
        array: String,
        /// Global subscripts of the unpacked element.
        idx: Vec<IntExpr>,
    },
    /// Transmit the packed buffer to the processor given by `to`.
    SendBuffer {
        /// Communication-set index in the plan.
        comm: usize,
        /// Destination (virtual) processor coordinates.
        to: Vec<IntExpr>,
    },
    /// Block until the buffer from `from` arrives.
    RecvBuffer {
        /// Communication-set index in the plan.
        comm: usize,
        /// Source (virtual) processor coordinates.
        from: Vec<IntExpr>,
    },
    /// A free-form comment line in the emitted code.
    Comment(String),
}

/// Pretty-prints a block of SPMD statements as C-like text.
pub fn render(stmts: &[SpmdStmt]) -> String {
    let mut out = String::new();
    render_into(stmts, 0, &mut out);
    out
}

fn render_into(stmts: &[SpmdStmt], indent: usize, out: &mut String) {
    use std::fmt::Write;
    for s in stmts {
        let pad = "  ".repeat(indent);
        match s {
            SpmdStmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                if *step == 1 {
                    let _ = writeln!(out, "{pad}for {var} = {lo} to {hi} {{");
                } else {
                    let _ = writeln!(out, "{pad}for {var} = {lo} to {hi} step {step} {{");
                }
                render_into(body, indent + 1, out);
                let _ = writeln!(out, "{pad}}}");
            }
            SpmdStmt::If { cond, then } => {
                let conds: Vec<String> = cond.iter().map(|c| c.to_string()).collect();
                let _ = writeln!(out, "{pad}if ({}) {{", conds.join(" && "));
                render_into(then, indent + 1, out);
                let _ = writeln!(out, "{pad}}}");
            }
            SpmdStmt::Let { var, value } => {
                let _ = writeln!(out, "{pad}{var} = {value};");
            }
            SpmdStmt::Compute { stmt } => {
                let _ = writeln!(out, "{pad}S{stmt};");
            }
            SpmdStmt::Send { comm } => {
                let _ = writeln!(out, "{pad}pack_and_send(comm_{comm});");
            }
            SpmdStmt::Recv { comm } => {
                let _ = writeln!(out, "{pad}receive_and_unpack(comm_{comm});");
            }
            SpmdStmt::ResetIndex => {
                let _ = writeln!(out, "{pad}idx = 0;");
            }
            SpmdStmt::PackItem { array, idx } => {
                let subs: Vec<String> = idx.iter().map(|e| format!("[{e}]")).collect();
                let _ = writeln!(out, "{pad}buffer[idx++] = {array}{};", subs.join(""));
            }
            SpmdStmt::UnpackItem { array, idx } => {
                let subs: Vec<String> = idx.iter().map(|e| format!("[{e}]")).collect();
                let _ = writeln!(out, "{pad}{array}{} = buffer[idx++];", subs.join(""));
            }
            SpmdStmt::SendBuffer { comm, to } => {
                let dest: Vec<String> = to.iter().map(|e| e.to_string()).collect();
                let _ = writeln!(
                    out,
                    "{pad}send_buffer(comm_{comm}, to = ({}));",
                    dest.join(", ")
                );
            }
            SpmdStmt::RecvBuffer { comm, from } => {
                let src: Vec<String> = from.iter().map(|e| e.to_string()).collect();
                let _ = writeln!(
                    out,
                    "{pad}recv_buffer(comm_{comm}, from = ({}));",
                    src.join(", ")
                );
            }
            SpmdStmt::Comment(c) => {
                let _ = writeln!(out, "{pad}/* {c} */");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_expressions() {
        let e = IntExpr::Max(vec![
            IntExpr::Const(3),
            IntExpr::Affine {
                terms: vec![(32, "p".into())],
                constant: 0,
            },
        ]);
        let env = |v: &str| if v == "p" { 2 } else { 0 };
        assert_eq!(e.eval(&env), 64);
        let f = IntExpr::FloorDiv(Box::new(IntExpr::Var("n".into())), 3);
        assert_eq!(f.eval(&|_| 10), 3);
        let c = IntExpr::CeilDiv(Box::new(IntExpr::Var("n".into())), 3);
        assert_eq!(c.eval(&|_| 10), 4);
    }

    #[test]
    fn display_matches_figure_style() {
        let e = IntExpr::Affine {
            terms: vec![(32, "p".into()), (1, "i".into())],
            constant: -3,
        };
        assert_eq!(e.to_string(), "32*p + i - 3");
        let m = IntExpr::Min(vec![e.clone(), IntExpr::Var("N".into())]);
        assert_eq!(m.to_string(), "MIN(32*p + i - 3, N)");
    }

    #[test]
    fn render_structure() {
        let prog = vec![SpmdStmt::If {
            cond: vec![CondAtom::Ge(IntExpr::Var("p".into()))],
            then: vec![SpmdStmt::For {
                var: "t".into(),
                lo: IntExpr::Const(0),
                hi: IntExpr::Var("T".into()),
                step: 1,
                body: vec![SpmdStmt::Compute { stmt: 0 }],
            }],
        }];
        let text = render(&prog);
        assert!(text.contains("if (p >= 0) {"));
        assert!(text.contains("for t = 0 to T {"));
        assert!(text.contains("S0;"));
    }

    #[test]
    fn from_linexpr_roundtrip() {
        use dmc_polyhedra::{DimKind, LinExpr, Space};
        let sp = Space::from_dims([("i", DimKind::Index), ("N", DimKind::Param)]);
        let le = LinExpr::from_coeffs(vec![2, -1], 5);
        let e = IntExpr::from_linexpr(&le, &sp);
        let env = |v: &str| match v {
            "i" => 3,
            "N" => 4,
            _ => 0,
        };
        assert_eq!(e.eval(&env), le.eval(&[3, 4]).unwrap());
        assert_eq!(
            IntExpr::from_linexpr(&LinExpr::constant(2, 7), &sp),
            IntExpr::Const(7)
        );
    }
}
