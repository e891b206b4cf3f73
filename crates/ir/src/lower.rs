//! Statements lowered for execution — the one evaluator of the IR.
//!
//! Whoever runs a [`Statement`] many times (the sequential interpreter of
//! [`crate::interp::run`], the values-mode simulator of `dmc-machine`)
//! resolves its names once and then runs numbers only:
//!
//! * an affine form becomes a *row* over loop slots: the constant with
//!   every parameter folded in, then one coefficient per enclosing loop,
//!   outermost first;
//! * an array reference becomes an [`Access`]: the caller's number for the
//!   array and one row per subscript;
//! * a right-hand side becomes postfix code in the tree's own evaluation
//!   order, run on a reused value stack
//!   ([`LoweredStmt::eval`]), so results are bit-identical to walking the
//!   tree and an intrinsic call's arguments are a slice of the stack;
//! * a run of the innermost loop becomes one [`Cursor`] per access
//!   ([`LoweredStmt::place`]): the subscripts are affine, hence monotone,
//!   in the innermost variable, so a range that is inside an array at both
//!   ends is inside throughout, and the row-major element number moves by
//!   a constant stride.
//!
//! What an element *is* stays with the caller — where arrays live, what
//! reading an absent or outside element means, what a write records — so
//! the two sides of the oracle share arithmetic and nothing else.

use std::collections::HashMap;

use crate::aff::Aff;
use crate::interp::eval_intrinsic;
use crate::program::{ArrayRef, BinOp, ScalarExpr, Statement};

/// Lowers `aff` into `row` (`loops.len() + 1` numbers): `row[0]` is the
/// constant plus every parameter term, `row[1 + k]` the coefficient of
/// `loops[k]`. A name bound more than once means the innermost loop, and a
/// loop variable shadows a parameter, as in the interpreter's scoping.
///
/// # Errors
///
/// The first name, in term order, that neither a loop nor `params` binds.
pub(crate) fn lower_aff<'a>(
    aff: &'a Aff,
    loops: &[&str],
    params: &HashMap<String, i128>,
    row: &mut [i128],
) -> Result<(), &'a str> {
    row.fill(0);
    row[0] = aff.constant_term();
    for (v, c) in aff.terms() {
        match loops.iter().rposition(|l| *l == v) {
            Some(k) => row[1 + k] += c,
            None => row[0] += c * params.get(v).ok_or(v)?,
        }
    }
    Ok(())
}

/// The value of `row` where its loops take the values `env`.
pub(crate) fn eval_row(row: &[i128], env: &[i128]) -> i128 {
    row[0] + row[1..].iter().zip(env).map(|(c, v)| c * v).sum::<i128>()
}

/// An array reference of one statement, resolved.
#[derive(Clone, Debug)]
pub struct Access {
    /// The caller's number for the array.
    pub array: usize,
    /// Per subscript one row of `width` numbers: the constant with every
    /// parameter folded in, then the coefficient of each enclosing loop.
    rows: Vec<i128>,
    /// Loop depth of the statement, plus one.
    width: usize,
}

impl Access {
    /// Lowers the subscripts of `r` under `loops` (outermost first).
    ///
    /// # Errors
    ///
    /// The first name, in subscript and then term order, that neither a
    /// loop nor `params` binds.
    pub fn new<'a>(
        r: &'a ArrayRef,
        array: usize,
        loops: &[&str],
        params: &HashMap<String, i128>,
    ) -> Result<Self, &'a str> {
        let width = loops.len() + 1;
        let mut rows = vec![0; r.idx.len() * width];
        for (aff, row) in r.idx.iter().zip(rows.chunks_mut(width)) {
            lower_aff(aff, loops, params, row)?;
        }
        Ok(Access { array, rows, width })
    }

    /// An access nothing can be read through: no subscripts and no array,
    /// so its cursor is always [`NO_SLOT`].
    pub(crate) fn unresolved(depth: usize) -> Self {
        Access {
            array: NO_ARRAY,
            rows: Vec::new(),
            width: depth + 1,
        }
    }

    /// Number of subscripts.
    fn dims(&self) -> usize {
        self.rows.len() / self.width
    }

    /// Subscript `d` at iteration `prefix ++ [x]`, and how much it moves
    /// per unit of `x` (`x` is ignored when `prefix` binds every loop).
    fn subscript(&self, d: usize, prefix: &[i128], x: i128) -> (i128, i128) {
        let row = &self.rows[d * self.width..][..self.width];
        let depth = self.width - 1;
        let step = if prefix.len() < depth { row[depth] } else { 0 };
        (eval_row(row, prefix) + step * x, step)
    }

    /// Every subscript at iteration `prefix ++ [x]`.
    pub fn subscripts(&self, prefix: &[i128], x: i128) -> Vec<i128> {
        (0..self.dims())
            .map(|d| self.subscript(d, prefix, x).0)
            .collect()
    }

    /// The cursor over `x ∈ lo..=hi` at `prefix` in an array of `extents`
    /// whose element `[0, …, 0]` is number `base`: placed on the element
    /// at `lo`, or [`NO_SLOT`] when either end of the range leaves an
    /// extent (or the subscripts are not one per extent).
    fn cursor(
        &self,
        prefix: &[i128],
        (lo, hi): (i128, i128),
        extents: &[i128],
        base: usize,
    ) -> Cursor {
        if self.dims() != extents.len() {
            return Cursor::OUTSIDE;
        }
        let (mut offset, mut stride, mut inside) = (0, 0, true);
        for (d, &extent) in extents.iter().enumerate() {
            let (first, step) = self.subscript(d, prefix, lo);
            let last = first + step * (hi - lo);
            inside &= (0..extent).contains(&first) && (0..extent).contains(&last);
            offset = offset * extent + first;
            stride = stride * extent + step;
        }
        if !inside {
            return Cursor::OUTSIDE;
        }
        Cursor {
            slot: base + offset as usize,
            stride: stride as isize,
        }
    }
}

/// The slot of a cursor whose range leaves its array.
pub const NO_SLOT: usize = usize::MAX;

/// The number of an array that [`LoweredStmt::place`]'s caller places
/// nowhere.
pub(crate) const NO_ARRAY: usize = usize::MAX;

/// A position in one array while a statement runs over a range of its
/// innermost loop: the number of the current element, and the distance to
/// the next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cursor {
    /// Row-major element number, or [`NO_SLOT`].
    pub slot: usize,
    stride: isize,
}

impl Cursor {
    const OUTSIDE: Cursor = Cursor {
        slot: NO_SLOT,
        stride: 0,
    };

    /// Moves to the next iteration's element.
    pub fn step(&mut self) {
        self.slot = self.slot.wrapping_add_signed(self.stride);
    }
}

/// Postfix code of a right-hand side, in the tree's evaluation order.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// Push a literal.
    Lit(f64),
    /// Push the element under cursor `n` (an index into
    /// [`LoweredStmt::accesses`]).
    Read(usize),
    /// Replace the top two values `a`, `b` (pushed in that order) by
    /// `op(a, b)`.
    Bin(BinOp),
    /// Negate the top value.
    Neg,
    /// Replace the top `n` values by the intrinsic of them.
    Call(usize),
}

fn lower_expr<E>(
    e: &ScalarExpr,
    access: &mut impl FnMut(&ArrayRef) -> Result<Access, E>,
    accesses: &mut Vec<Access>,
    code: &mut Vec<Op>,
) -> Result<(), E> {
    match e {
        ScalarExpr::Lit(v) => code.push(Op::Lit(*v)),
        ScalarExpr::Read(r) => {
            code.push(Op::Read(accesses.len()));
            accesses.push(access(r)?);
        }
        ScalarExpr::Bin(op, a, b) => {
            lower_expr(a, access, accesses, code)?;
            lower_expr(b, access, accesses, code)?;
            code.push(Op::Bin(*op));
        }
        ScalarExpr::Neg(a) => {
            lower_expr(a, access, accesses, code)?;
            code.push(Op::Neg);
        }
        ScalarExpr::Call(_, args) => {
            for a in args {
                lower_expr(a, access, accesses, code)?;
            }
            code.push(Op::Call(args.len()));
        }
    }
    Ok(())
}

/// A statement as it is executed.
#[derive(Clone, Debug)]
pub struct LoweredStmt {
    /// The reads in evaluation order, then the write.
    pub accesses: Vec<Access>,
    code: Vec<Op>,
}

impl LoweredStmt {
    /// Lowers `stmt`; `access` resolves each array reference, the reads in
    /// evaluation order and then the write.
    ///
    /// # Errors
    ///
    /// The first error `access` returns.
    pub fn new<E>(
        stmt: &Statement,
        mut access: impl FnMut(&ArrayRef) -> Result<Access, E>,
    ) -> Result<Self, E> {
        let (mut accesses, mut code) = (Vec::new(), Vec::new());
        lower_expr(&stmt.rhs, &mut access, &mut accesses, &mut code)?;
        accesses.push(access(&stmt.write)?);
        Ok(LoweredStmt { accesses, code })
    }

    /// Index of the write in [`Self::accesses`] (and among the cursors).
    pub fn write(&self) -> usize {
        self.accesses.len() - 1
    }

    /// Replaces `cursors` by one cursor per access over `range` at
    /// `prefix`. `array` tells where an access's array lives — its extents
    /// and the number of its first element — or `None`, which is
    /// [`NO_SLOT`]. Returns whether every cursor has a slot.
    pub fn place<'a>(
        &self,
        prefix: &[i128],
        range: (i128, i128),
        array: impl Fn(usize) -> Option<(&'a [i128], usize)>,
        cursors: &mut Vec<Cursor>,
    ) -> bool {
        cursors.clear();
        cursors.extend(self.accesses.iter().map(|a| match array(a.array) {
            Some((extents, base)) => a.cursor(prefix, range, extents, base),
            None => Cursor::OUTSIDE,
        }));
        cursors.iter().all(|c| c.slot != NO_SLOT)
    }

    /// Evaluates the right-hand side on `stack` (cleared first); `read`
    /// answers for the element under cursor `n`.
    ///
    /// # Errors
    ///
    /// The first error `read` returns, in evaluation order.
    pub fn eval<E>(
        &self,
        stack: &mut Vec<f64>,
        mut read: impl FnMut(usize) -> Result<f64, E>,
    ) -> Result<f64, E> {
        stack.clear();
        for &op in &self.code {
            let v = match op {
                Op::Lit(v) => v,
                Op::Read(n) => read(n)?,
                Op::Bin(op) => {
                    let b = stack.pop().expect("postfix operand");
                    let a = stack.pop().expect("postfix operand");
                    op.apply(a, b)
                }
                Op::Neg => -stack.pop().expect("postfix operand"),
                Op::Call(n) => {
                    let at = stack.len() - n;
                    let v = eval_intrinsic(&stack[at..]);
                    stack.truncate(at);
                    v
                }
            };
            stack.push(v);
        }
        Ok(stack.pop().expect("postfix result"))
    }
}
