//! Ergonomic constructors for building [`crate::Program`]s in Rust code.
//!
//! These free functions keep example and test programs close to the paper's
//! notation:
//!
//! ```
//! use dmc_ir::{Program, Aff, ArrayRef};
//! use dmc_ir::builder::*;
//!
//! // for t = 0 to T { for i = 3 to N { X[i] = X[i-3]; } }
//! let mut p = Program::new(["T", "N"]);
//! p.declare_array("X", vec![Aff::var("N") + Aff::constant(1)]);
//! p.body = vec![for_loop("t", 0, Aff::var("T"), vec![
//!     for_loop("i", 3, Aff::var("N"), vec![
//!         assign(ArrayRef::new("X", vec![Aff::var("i")]),
//!                read("X", vec![Aff::var("i") - Aff::constant(3)])),
//!     ]),
//! ])];
//! assert_eq!(p.statements().len(), 1);
//! ```

use crate::aff::Aff;
use crate::program::{ArrayRef, BinOp, Loop, Node, ScalarExpr, Statement};

/// Builds a `for var = lower to upper { body }` node. Bounds accept
/// anything convertible to [`Aff`] (e.g. `i128` literals).
pub fn for_loop(
    var: impl Into<String>,
    lower: impl Into<Aff>,
    upper: impl Into<Aff>,
    body: Vec<Node>,
) -> Node {
    Node::Loop(Loop {
        var: var.into(),
        lower: lower.into(),
        upper: upper.into(),
        body,
    })
}

/// Builds an assignment statement node.
pub fn assign(write: ArrayRef, rhs: ScalarExpr) -> Node {
    Node::Stmt(Statement { write, rhs })
}

/// Builds an array-read expression.
pub fn read(array: impl Into<String>, idx: Vec<Aff>) -> ScalarExpr {
    ScalarExpr::Read(ArrayRef::new(array, idx))
}

/// Builds a literal expression.
pub fn lit(v: f64) -> ScalarExpr {
    ScalarExpr::Lit(v)
}

/// Builds an intrinsic call expression.
pub fn call(name: impl Into<String>, args: Vec<ScalarExpr>) -> ScalarExpr {
    ScalarExpr::Call(name.into(), args)
}

/// `a + b`.
pub fn add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Bin(BinOp::Add, Box::new(a), Box::new(b))
}

/// `a - b`.
pub fn sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Bin(BinOp::Sub, Box::new(a), Box::new(b))
}

/// `a * b`.
pub fn mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Bin(BinOp::Mul, Box::new(a), Box::new(b))
}

/// `a / b`.
pub fn div(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Bin(BinOp::Div, Box::new(a), Box::new(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    #[test]
    fn builder_produces_expected_shape() {
        let mut p = Program::new(["N"]);
        p.declare_array("A", vec![Aff::var("N")]);
        p.body = vec![for_loop(
            "i",
            0,
            Aff::var("N") - Aff::constant(1),
            vec![assign(
                ArrayRef::new("A", vec![Aff::var("i")]),
                add(read("A", vec![Aff::var("i")]), lit(1.0)),
            )],
        )];
        let stmts = p.statements();
        assert_eq!(stmts.len(), 1);
        assert_eq!(stmts[0].stmt.rhs.flops(), 1);
    }
}
