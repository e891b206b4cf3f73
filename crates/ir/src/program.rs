//! The affine program representation (paper §4.1): sequences of (possibly
//! imperfectly nested) loops whose bounds and array subscripts are affine in
//! outer loop indices and symbolic constants.

use std::fmt;

use dmc_polyhedra::{Constraint, Polyhedron, Space};

use crate::aff::Aff;

/// Binary scalar operators in statement right-hand sides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl BinOp {
    /// Applies the operator to two values.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
        }
    }

    /// Whether this operation counts as a floating-point operation for the
    /// machine model (all four do).
    pub fn flops(self) -> u64 {
        1
    }
}

/// An affine reference to an array element: `array[idx_0]...[idx_m-1]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayRef {
    /// Array name.
    pub array: String,
    /// One affine subscript per dimension.
    pub idx: Vec<Aff>,
}

impl ArrayRef {
    /// Creates an array reference.
    pub fn new(array: impl Into<String>, idx: Vec<Aff>) -> Self {
        ArrayRef {
            array: array.into(),
            idx,
        }
    }
}

impl fmt::Display for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.array)?;
        for a in &self.idx {
            write!(f, "[{a}]")?;
        }
        Ok(())
    }
}

/// A scalar (floating-point) expression in a statement body.
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarExpr {
    /// A literal constant.
    Lit(f64),
    /// A read of an array element.
    Read(ArrayRef),
    /// A binary operation.
    Bin(BinOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Unary negation.
    Neg(Box<ScalarExpr>),
    /// An opaque intrinsic call (interpreted as a fixed deterministic
    /// combination so programs like `X[i] = f(X[i], X[i-1])` are runnable).
    Call(String, Vec<ScalarExpr>),
}

impl ScalarExpr {
    /// Collects every array read in evaluation order.
    pub fn reads(&self) -> Vec<&ArrayRef> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads<'a>(&'a self, out: &mut Vec<&'a ArrayRef>) {
        match self {
            ScalarExpr::Lit(_) => {}
            ScalarExpr::Read(r) => out.push(r),
            ScalarExpr::Bin(_, a, b) => {
                a.collect_reads(out);
                b.collect_reads(out);
            }
            ScalarExpr::Neg(a) => a.collect_reads(out),
            ScalarExpr::Call(_, args) => {
                for a in args {
                    a.collect_reads(out);
                }
            }
        }
    }

    /// Number of floating-point operations one evaluation performs.
    pub fn flops(&self) -> u64 {
        match self {
            ScalarExpr::Lit(_) | ScalarExpr::Read(_) => 0,
            ScalarExpr::Bin(op, a, b) => op.flops() + a.flops() + b.flops(),
            ScalarExpr::Neg(a) => a.flops(),
            ScalarExpr::Call(_, args) => {
                // Model an intrinsic as one op per argument.
                args.len() as u64 + args.iter().map(ScalarExpr::flops).sum::<u64>()
            }
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // A whole value past `i128` keeps its point, or it would read
            // back as an integer literal out of range.
            ScalarExpr::Lit(v) if v.fract() == 0.0 && v.abs() >= i128::MAX as f64 => {
                write!(f, "{v:.1}")
            }
            ScalarExpr::Lit(v) => write!(f, "{v}"),
            ScalarExpr::Read(r) => write!(f, "{r}"),
            ScalarExpr::Bin(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                };
                write!(f, "({a} {sym} {b})")
            }
            ScalarExpr::Neg(a) => write!(f, "(-{a})"),
            ScalarExpr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// An assignment statement `write := rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct Statement {
    /// The written array element.
    pub write: ArrayRef,
    /// The right-hand side.
    pub rhs: ScalarExpr,
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {};", self.write, self.rhs)
    }
}

/// A node in a loop body: either a nested loop or a statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// A `for var = lower to upper` loop (inclusive bounds, step 1).
    Loop(Loop),
    /// An assignment statement.
    Stmt(Statement),
}

/// A counted loop with affine inclusive bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct Loop {
    /// Loop variable name (unique within the program).
    pub var: String,
    /// Inclusive affine lower bound.
    pub lower: Aff,
    /// Inclusive affine upper bound.
    pub upper: Aff,
    /// Body, in textual order.
    pub body: Vec<Node>,
}

/// An array declaration with affine extents (in symbolic constants).
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayDecl {
    /// Array name.
    pub name: String,
    /// Extent (number of elements) per dimension; valid subscripts are
    /// `0 .. extent-1`.
    pub extents: Vec<Aff>,
}

/// A whole affine program: symbolic constants, arrays, and a sequence of
/// top-level nodes.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// Symbolic constants (unchanged during execution).
    pub params: Vec<String>,
    /// Array declarations.
    pub arrays: Vec<ArrayDecl>,
    /// Top-level nodes in textual order.
    pub body: Vec<Node>,
}

/// Metadata about one loop enclosing a statement.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopMeta {
    /// Identity of the loop within the program (pre-order number). Two
    /// statements share a loop iff the ids match.
    pub id: usize,
    /// Loop variable name.
    pub var: String,
    /// Inclusive lower bound.
    pub lower: Aff,
    /// Inclusive upper bound.
    pub upper: Aff,
}

/// A statement plus its static context (enclosing loops, textual position).
#[derive(Clone, Debug, PartialEq)]
pub struct StmtInfo {
    /// Statement number in textual (pre-order) program order.
    pub id: usize,
    /// Enclosing loops, outermost first.
    pub loops: Vec<LoopMeta>,
    /// Textual position: `position[d]` is the node index within the body at
    /// depth `d` (depth 0 is the program body). Lexicographic comparison of
    /// positions gives textual order.
    pub position: Vec<usize>,
    /// The statement itself.
    pub stmt: Statement,
}

impl StmtInfo {
    /// Names of the enclosing loop variables, outermost first.
    pub fn loop_vars(&self) -> Vec<&str> {
        self.loops.iter().map(|l| l.var.as_str()).collect()
    }

    /// Number of loops shared with another statement (longest common prefix
    /// by loop identity).
    pub fn common_loops(&self, other: &StmtInfo) -> usize {
        self.loops
            .iter()
            .zip(&other.loops)
            .take_while(|(a, b)| a.id == b.id)
            .count()
    }

    /// Whether this statement appears textually before `other`.
    pub fn textually_before(&self, other: &StmtInfo) -> bool {
        self.position < other.position
    }

    /// Builds the iteration-domain polyhedron of this statement over
    /// `space`, with loop variable `loops[k].var` mapped to the space
    /// dimension named `renames[k]` (or its own name if `renames` is empty).
    ///
    /// Parameters referenced by the bounds must be present in `space` under
    /// their own names.
    ///
    /// # Panics
    ///
    /// Panics if a needed dimension is missing from `space`.
    pub fn domain(&self, space: &Space, renames: &[(&str, &str)]) -> Polyhedron {
        let mut p = Polyhedron::universe(space.clone());
        for l in &self.loops {
            let var_name = renames
                .iter()
                .find(|(from, _)| *from == l.var)
                .map(|(_, to)| *to)
                .unwrap_or(l.var.as_str());
            let v = Aff::var(var_name);
            // v - lower >= 0, upper - v >= 0 (bounds renamed too).
            let lo = (v.clone() - l.lower.clone()).to_linexpr_renamed(space, renames);
            let hi = (l.upper.clone() - v).to_linexpr_renamed(space, renames);
            p.add(Constraint::ge(lo));
            p.add(Constraint::ge(hi));
        }
        p
    }
}

impl Program {
    /// Creates an empty program with the given symbolic constants.
    pub fn new(params: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Program {
            params: params.into_iter().map(Into::into).collect(),
            arrays: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Declares an array.
    pub fn declare_array(&mut self, name: impl Into<String>, extents: Vec<Aff>) -> &mut Self {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            extents,
        });
        self
    }

    /// Finds an array declaration by name.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Collects every statement with its context, in textual order.
    pub fn statements(&self) -> Vec<StmtInfo> {
        let mut out = Vec::new();
        let mut loop_counter = 0usize;
        fn walk(
            nodes: &[Node],
            loops: &mut Vec<LoopMeta>,
            position: &mut Vec<usize>,
            loop_counter: &mut usize,
            out: &mut Vec<StmtInfo>,
        ) {
            for (k, node) in nodes.iter().enumerate() {
                position.push(k);
                match node {
                    Node::Stmt(s) => {
                        out.push(StmtInfo {
                            id: out.len(),
                            loops: loops.clone(),
                            position: position.clone(),
                            stmt: s.clone(),
                        });
                    }
                    Node::Loop(l) => {
                        *loop_counter += 1;
                        loops.push(LoopMeta {
                            id: *loop_counter,
                            var: l.var.clone(),
                            lower: l.lower.clone(),
                            upper: l.upper.clone(),
                        });
                        walk(&l.body, loops, position, loop_counter, out);
                        loops.pop();
                    }
                }
                position.pop();
            }
        }
        walk(
            &self.body,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut loop_counter,
            &mut out,
        );
        out
    }

    /// All loop variable names, in pre-order.
    pub fn loop_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(nodes: &[Node], out: &mut Vec<String>) {
            for node in nodes {
                if let Node::Loop(l) = node {
                    out.push(l.var.clone());
                    walk(&l.body, out);
                }
            }
        }
        walk(&self.body, &mut out);
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.params.is_empty() {
            writeln!(f, "param {};", self.params.join(", "))?;
        }
        for a in &self.arrays {
            write!(f, "array {}", a.name)?;
            for e in &a.extents {
                write!(f, "[{e}]")?;
            }
            writeln!(f, ";")?;
        }
        fn walk(nodes: &[Node], indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for n in nodes {
                match n {
                    Node::Stmt(s) => writeln!(f, "{:indent$}{s}", "", indent = indent)?,
                    Node::Loop(l) => {
                        writeln!(
                            f,
                            "{:indent$}for {} = {} to {} {{",
                            "",
                            l.var,
                            l.lower,
                            l.upper,
                            indent = indent
                        )?;
                        walk(&l.body, indent + 2, f)?;
                        writeln!(f, "{:indent$}}}", "", indent = indent)?;
                    }
                }
            }
            Ok(())
        }
        walk(&self.body, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use dmc_polyhedra::DimKind;

    /// The paper's Figure 2 program:
    /// `for t = 0..T { for i = 3..N { X[i] = X[i-3]; } }`
    fn figure2() -> Program {
        let mut p = Program::new(["T", "N"]);
        p.declare_array("X", vec![Aff::var("N") + Aff::constant(1)]);
        p.body = vec![for_loop(
            "t",
            Aff::constant(0),
            Aff::var("T"),
            vec![for_loop(
                "i",
                Aff::constant(3),
                Aff::var("N"),
                vec![assign(
                    ArrayRef::new("X", vec![Aff::var("i")]),
                    read("X", vec![Aff::var("i") - Aff::constant(3)]),
                )],
            )],
        )];
        p
    }

    #[test]
    fn statements_and_contexts() {
        let p = figure2();
        let stmts = p.statements();
        assert_eq!(stmts.len(), 1);
        let s = &stmts[0];
        assert_eq!(s.loop_vars(), vec!["t", "i"]);
        assert_eq!(s.position, vec![0, 0, 0]);
        assert_eq!(s.stmt.rhs.reads().len(), 1);
    }

    #[test]
    fn domain_polyhedron() {
        let p = figure2();
        let stmts = p.statements();
        let space = Space::from_dims([
            ("t", DimKind::Index),
            ("i", DimKind::Index),
            ("T", DimKind::Param),
            ("N", DimKind::Param),
        ]);
        let d = stmts[0].domain(&space, &[]);
        // point order: (t, i, T, N)
        assert!(d.contains(&[0, 3, 5, 10]).unwrap());
        assert!(!d.contains(&[0, 2, 5, 10]).unwrap());
        assert!(!d.contains(&[6, 3, 5, 10]).unwrap());
    }

    #[test]
    fn domain_with_renames() {
        let p = figure2();
        let stmts = p.statements();
        let mut space = Space::new();
        space.add_dim("tw", DimKind::Index);
        space.add_dim("iw", DimKind::Index);
        space.add_dim("T", DimKind::Param);
        space.add_dim("N", DimKind::Param);
        let d = stmts[0].domain(&space, &[("t", "tw"), ("i", "iw")]);
        assert!(d.contains(&[0, 3, 5, 10]).unwrap());
        assert!(!d.contains(&[-1, 3, 5, 10]).unwrap());
    }

    #[test]
    fn textual_order_and_common_loops() {
        // for i { S1; for j { S2 } S3 }
        let mut p = Program::new(["N"]);
        p.declare_array("A", vec![Aff::var("N")]);
        let s = |k: i128| {
            assign(
                ArrayRef::new("A", vec![Aff::constant(k)]),
                ScalarExpr::Lit(k as f64),
            )
        };
        p.body = vec![for_loop(
            "i",
            Aff::constant(0),
            Aff::var("N"),
            vec![
                s(0),
                for_loop("j", Aff::constant(0), Aff::var("N"), vec![s(1)]),
                s(2),
            ],
        )];
        let st = p.statements();
        assert_eq!(st.len(), 3);
        assert!(st[0].textually_before(&st[1]));
        assert!(st[1].textually_before(&st[2]));
        assert_eq!(st[0].common_loops(&st[1]), 1);
        assert_eq!(st[0].common_loops(&st[2]), 1);
        assert_eq!(st[1].loops.len(), 2);
    }

    #[test]
    fn flop_counting() {
        // X[i] = X[i] / Y[i] - 2.0  -> 2 flops.
        let e = ScalarExpr::Bin(
            BinOp::Sub,
            Box::new(ScalarExpr::Bin(
                BinOp::Div,
                Box::new(ScalarExpr::Read(ArrayRef::new("X", vec![Aff::var("i")]))),
                Box::new(ScalarExpr::Read(ArrayRef::new("Y", vec![Aff::var("i")]))),
            )),
            Box::new(ScalarExpr::Lit(2.0)),
        );
        assert_eq!(e.flops(), 2);
        assert_eq!(e.reads().len(), 2);
    }

    #[test]
    fn display_roundtrippable_shape() {
        let p = figure2();
        let text = p.to_string();
        assert!(text.contains("for t = 0 to T {"));
        assert!(text.contains("X[i] = X[i - 3];"));
    }
}
