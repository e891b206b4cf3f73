//! Lowering scanned polyhedra into SPMD loop nests (paper §5.2–5.3).

use dmc_polyhedra::{scan_bounds, PolyError, Polyhedron, ScanNest, Space, VarBounds};

use crate::ast::{CondAtom, IntExpr, SpmdStmt};

/// Converts one variable's scan bounds into optional `(lower, upper)`
/// expressions; `None` on a side with no bound. An equality-pinned
/// variable yields the same expression on both sides.
pub(crate) fn bounds_as_exprs(vb: &VarBounds, space: &Space) -> (Option<IntExpr>, Option<IntExpr>) {
    if let Some(e) = &vb.exact {
        let ie = IntExpr::from_linexpr(e, space);
        return (Some(ie.clone()), Some(ie));
    }
    let lo = {
        let mut es: Vec<IntExpr> = vb
            .lowers
            .iter()
            .map(|b| {
                let num = IntExpr::from_linexpr(&b.expr, space);
                if b.divisor == 1 {
                    num
                } else {
                    IntExpr::CeilDiv(Box::new(num), b.divisor)
                }
            })
            .collect();
        if es.is_empty() {
            None
        } else if es.len() == 1 {
            es.pop()
        } else {
            Some(IntExpr::Max(es))
        }
    };
    let hi = {
        let mut es: Vec<IntExpr> = vb
            .uppers
            .iter()
            .map(|b| {
                let num = IntExpr::from_linexpr(&b.expr, space);
                if b.divisor == 1 {
                    num
                } else {
                    IntExpr::FloorDiv(Box::new(num), b.divisor)
                }
            })
            .collect();
        if es.is_empty() {
            None
        } else if es.len() == 1 {
            es.pop()
        } else {
            Some(IntExpr::Min(es))
        }
    };
    (lo, hi)
}

/// Builds the loop nest that scans `nest` (as produced by
/// [`dmc_polyhedra::scan_bounds`]), with `body` innermost. Degenerate
/// dimensions (pinned by an equality) become assignments instead of loops
/// (§5.2 extension). The nest guard (constraints on un-scanned dimensions)
/// wraps the whole thing.
///
/// # Errors
///
/// Returns [`PolyError::Unbounded`] if a scanned dimension has no lower or
/// no upper bound.
pub fn loops_from_nest(
    nest: &ScanNest,
    space: &Space,
    body: Vec<SpmdStmt>,
) -> Result<Vec<SpmdStmt>, PolyError> {
    let mut inner = body;
    for vb in nest.vars.iter().rev() {
        let var = space.dim(vb.dim).name().to_owned();
        inner = if let Some(e) = &vb.exact {
            let value = IntExpr::from_linexpr(e, space);
            let mut block = vec![SpmdStmt::Let { var, value }];
            block.extend(inner);
            block
        } else if let (Some(lo), Some(hi)) = bounds_as_exprs(vb, space) {
            vec![SpmdStmt::For {
                var,
                lo,
                hi,
                step: 1,
                body: inner,
            }]
        } else {
            return Err(PolyError::Unbounded(vb.dim));
        };
    }
    let guard: Vec<CondAtom> = nest
        .guard
        .constraints()
        .iter()
        .map(|c| {
            let e = IntExpr::from_linexpr(c.expr(), space);
            if c.is_eq() {
                CondAtom::Eq(e)
            } else {
                CondAtom::Ge(e)
            }
        })
        .collect();
    Ok(if guard.is_empty() {
        inner
    } else {
        vec![SpmdStmt::If {
            cond: guard,
            then: inner,
        }]
    })
}

/// Scans `poly` in `order` (dimension indices, outermost first) and wraps
/// `body` in the resulting loops. Dimensions not in `order` (processor
/// ids, parameters) stay symbolic and surface in the guard and bounds.
///
/// # Errors
///
/// Returns [`PolyError::Overflow`] on overflow and
/// [`PolyError::Unbounded`] if a scanned dimension is unbounded in `poly`.
pub fn scan_to_loops(
    poly: &Polyhedron,
    order: &[usize],
    body: Vec<SpmdStmt>,
) -> Result<Vec<SpmdStmt>, PolyError> {
    let nest = scan_bounds(poly, order)?;
    loops_from_nest(&nest, poly.space(), body)
}

/// Turns the outermost loop of `stmts` (which must scan a *virtual*
/// processor dimension) into the physical form of the paper's Figure 7(b):
/// the loop starts at the first virtual id congruent to `myp` modulo
/// `extent` and steps by `extent`.
///
/// # Panics
///
/// Panics if `stmts` does not start with a `For`.
pub fn physicalize_proc_loop(stmts: Vec<SpmdStmt>, myp: &str, extent: i128) -> Vec<SpmdStmt> {
    stmts
        .into_iter()
        .map(|s| match s {
            SpmdStmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                assert_eq!(step, 1, "processor loop must be unit-step before folding");
                // start = myp + extent * ceil((lo - myp) / extent), computed
                // in two temporaries so the loop header stays affine:
                //   p$base = lo;
                //   p$k    = ceil((p$base - myp) / extent);
                //   for p  = myp + extent * p$k to hi step extent { … }
                let base_var = format!("{var}$base");
                let k_var = format!("{var}$k");
                vec![
                    SpmdStmt::Let {
                        var: base_var.clone(),
                        value: lo,
                    },
                    SpmdStmt::Let {
                        var: k_var.clone(),
                        value: IntExpr::CeilDiv(
                            Box::new(IntExpr::Affine {
                                terms: vec![(1, base_var), (-1, myp.to_owned())],
                                constant: 0,
                            }),
                            extent,
                        ),
                    },
                    SpmdStmt::For {
                        var,
                        lo: IntExpr::Affine {
                            terms: vec![(1, myp.to_owned()), (extent, k_var)],
                            constant: 0,
                        },
                        hi,
                        step: extent,
                        body,
                    },
                ]
            }
            SpmdStmt::If { cond, then } => vec![SpmdStmt::If {
                cond,
                then: physicalize_proc_loop(then, myp, extent),
            }],
            other => vec![other],
        })
        .flatten_vecs()
}

trait FlattenVecs {
    fn flatten_vecs(self) -> Vec<SpmdStmt>;
}

impl<I: Iterator<Item = Vec<SpmdStmt>>> FlattenVecs for I {
    fn flatten_vecs(self) -> Vec<SpmdStmt> {
        self.flatten().collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ast::render;
    use dmc_polyhedra::{Constraint, DimKind, LinExpr};

    /// The paper's Figure 7(a) computation code: scan
    /// `{(t, i) : 0 <= t <= T, max(32p, 3) <= i <= min(32p+31, N)}` in
    /// `(t, i)` order with `p` symbolic.
    fn figure7_poly() -> Polyhedron {
        let space = Space::from_dims([
            ("t", DimKind::Index),
            ("i", DimKind::Index),
            ("p", DimKind::Proc),
            ("T", DimKind::Param),
            ("N", DimKind::Param),
        ]);
        let mut poly = Polyhedron::universe(space);
        let c = |coeffs: Vec<i128>, k: i128| Constraint::ge(LinExpr::from_coeffs(coeffs, k));
        poly.add(c(vec![1, 0, 0, 0, 0], 0)); // t >= 0
        poly.add(c(vec![-1, 0, 0, 1, 0], 0)); // t <= T
        poly.add(c(vec![0, 1, 0, 0, 0], -3)); // i >= 3
        poly.add(c(vec![0, -1, 0, 0, 1], 0)); // i <= N
        poly.add(c(vec![0, 1, -32, 0, 0], 0)); // i >= 32p
        poly.add(c(vec![0, -1, 32, 0, 0], 31)); // i <= 32p + 31
        poly
    }

    #[test]
    fn figure7a_computation_loops() {
        let poly = figure7_poly();
        let code = scan_to_loops(&poly, &[0, 1], vec![SpmdStmt::Compute { stmt: 0 }]).unwrap();
        let text = render(&code);
        // Shape: guard on p (0 <= 32p+31 region intersects [3, N]), then
        // for t, then for i with MAX/MIN bounds — exactly Figure 7(a).
        assert!(text.contains("for t = 0 to T {"), "{text}");
        assert!(text.contains("MAX("), "{text}");
        assert!(text.contains("MIN("), "{text}");
        // Execute symbolically: p=1, T=1, N=95 must iterate i in 32..=63.
        let envs = eval_iterations(&code, &[("p", 1), ("T", 1), ("N", 95)]);
        let is: Vec<i128> = envs.iter().map(|e| e["i"]).collect();
        assert_eq!(is.len(), 2 * 32);
        assert_eq!(*is.iter().min().unwrap(), 32);
        assert_eq!(*is.iter().max().unwrap(), 63);
        // p=0: i starts at 3 (the MAX kicks in).
        let envs = eval_iterations(&code, &[("p", 0), ("T", 0), ("N", 95)]);
        let is: Vec<i128> = envs.iter().map(|e| e["i"]).collect();
        assert_eq!(*is.iter().min().unwrap(), 3);
        assert_eq!(*is.iter().max().unwrap(), 31);
        // p out of range: guard rejects everything.
        let envs = eval_iterations(&code, &[("p", 5), ("T", 1), ("N", 95)]);
        assert!(envs.is_empty());
    }

    #[test]
    fn degenerate_dims_become_lets() {
        // ps = pr - 1 (Figure 7(c)-style degenerate processor loop).
        let space = Space::from_dims([("pr", DimKind::Proc), ("ps", DimKind::Proc)]);
        let mut poly = Polyhedron::universe(space);
        poly.add(Constraint::eq(LinExpr::from_coeffs(vec![1, -1], -1))); // pr - ps - 1 == 0
        poly.add(Constraint::ge(LinExpr::from_coeffs(vec![1, 0], 0)));
        poly.add(Constraint::ge(LinExpr::from_coeffs(vec![-1, 0], 9)));
        let code = scan_to_loops(&poly, &[1], vec![SpmdStmt::Recv { comm: 0 }]).unwrap();
        let text = render(&code);
        assert!(text.contains("ps = pr - 1;"), "{text}");
    }

    #[test]
    fn an_unbounded_dimension_is_an_error_not_a_panic() {
        // 0 <= i: no upper bound to loop to.
        let mut poly = Polyhedron::universe(Space::from_dims([("i", DimKind::Index)]));
        poly.add(Constraint::ge(LinExpr::from_coeffs(vec![1], 0)));
        let body = vec![SpmdStmt::Compute { stmt: 0 }];
        assert_eq!(
            scan_to_loops(&poly, &[0], body),
            Err(PolyError::Unbounded(0))
        );
    }

    #[test]
    fn physicalized_loop_visits_owned_virtuals() {
        // for p = 0 to 10 -> physical myp visits p ≡ myp (mod 4).
        let code = vec![SpmdStmt::For {
            var: "p".into(),
            lo: IntExpr::Const(0),
            hi: IntExpr::Const(10),
            step: 1,
            body: vec![SpmdStmt::Compute { stmt: 0 }],
        }];
        let phys = physicalize_proc_loop(code, "myp", 4);
        let envs = eval_iterations(&phys, &[("myp", 1)]);
        let ps: Vec<i128> = envs.iter().map(|e| e["p"]).collect();
        assert_eq!(ps, vec![1, 5, 9]);
        let envs = eval_iterations(&phys, &[("myp", 3)]);
        let ps: Vec<i128> = envs.iter().map(|e| e["p"]).collect();
        assert_eq!(ps, vec![3, 7]);
    }

    /// Interprets the loop structure, collecting the variable environment
    /// at each `Compute`/`Send`/`Recv` leaf.
    pub(crate) fn eval_iterations(
        stmts: &[SpmdStmt],
        fixed: &[(&str, i128)],
    ) -> Vec<std::collections::HashMap<String, i128>> {
        use std::collections::HashMap;
        let mut env: HashMap<String, i128> =
            fixed.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
        let mut out = Vec::new();
        fn go(
            stmts: &[SpmdStmt],
            env: &mut std::collections::HashMap<String, i128>,
            out: &mut Vec<std::collections::HashMap<String, i128>>,
        ) {
            for s in stmts {
                match s {
                    SpmdStmt::For {
                        var,
                        lo,
                        hi,
                        step,
                        body,
                    } => {
                        let look = |v: &str| *env.get(v).unwrap_or_else(|| panic!("unbound {v}"));
                        let (l, h) = (lo.eval(&look), hi.eval(&look));
                        let mut x = l;
                        while x <= h {
                            env.insert(var.clone(), x);
                            go(body, env, out);
                            x += step;
                        }
                        env.remove(var);
                    }
                    SpmdStmt::If { cond, then } => {
                        let look = |v: &str| *env.get(v).unwrap_or_else(|| panic!("unbound {v}"));
                        if cond.iter().all(|c| c.eval(&look)) {
                            go(then, env, out);
                        }
                    }
                    SpmdStmt::Let { var, value } => {
                        let look = |v: &str| *env.get(v).unwrap_or_else(|| panic!("unbound {v}"));
                        let val = value.eval(&look);
                        env.insert(var.clone(), val);
                    }
                    SpmdStmt::Compute { .. }
                    | SpmdStmt::Send { .. }
                    | SpmdStmt::Recv { .. }
                    | SpmdStmt::PackItem { .. }
                    | SpmdStmt::UnpackItem { .. } => {
                        out.push(env.clone());
                    }
                    SpmdStmt::Comment(_)
                    | SpmdStmt::ResetIndex
                    | SpmdStmt::SendBuffer { .. }
                    | SpmdStmt::RecvBuffer { .. } => {}
                }
            }
        }
        go(stmts, &mut env, &mut out);
        out
    }
}
