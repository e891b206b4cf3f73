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
//!   a constant stride;
//! * a range runs in *strips* ([`LoweredStmt::strips`],
//!   [`LoweredStmt::eval_strip`]).
//!
//! # Strips
//!
//! Within a placed range, instance `k` of a read of the written array
//! with the write's stride `s` and a slot `d·s` behind it (`d ≥ 1`; or a
//! stride-0 read of the stride-0 slot written, `d = 1`) reads the element
//! instance `k − d` writes, and no instance between writes it: such a read
//! is *carried* at distance `d` ([`LoweredStmt::carry`]). Any other read of
//! the written array with the write's stride reads nothing the range
//! writes before it reads. So a range of two or more instances runs in
//! strips ([`LoweredStmt::strips`]) of up to [`STRIP_MAX`] instances, or
//! of `d` when its nearest carry is [`FAR_CARRY`] or more back, unless a
//! read of the written array with another stride meets the write's
//! slots; that case, a single instance and a range that leaves an array
//! (the path that finds its first failing instance) run instance by
//! instance. In a strip, the ops that depend on no read carried at a `d`
//! below the strip's length run once over a column of the strip's values;
//! the ops downstream of such a read run per instance, the read taking the
//! strip's own value at `k − d` (the element it gathers for `k < d`). Each
//! instance performs the same `f64` operations on the same operands in
//! the same order as [`LoweredStmt::eval`] (no reassociation, no fused
//! multiply-add), so results are bit-identical. Execution arithmetic is
//! checked: a row or cursor whose arithmetic leaves `i128` is `None` or
//! [`NO_SLOT`], never a wrapped subscript.
//!
//! What an element *is* stays with the caller — where arrays live, what
//! reading an absent or outside element means, what a write records — so
//! the two sides of the oracle share arithmetic and nothing else.

use std::collections::HashMap;

use crate::aff::Aff;
use crate::interp::eval_intrinsic;
use crate::program::{ArrayRef, BinOp, ScalarExpr, Statement};

/// Why an affine form has no row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unlowered<'a> {
    /// The first name, in term order, that neither a loop nor the
    /// parameters bind.
    Unbound(&'a str),
    /// Folding a parameter term into the constant leaves `i128`.
    Overflow,
}

/// Lowers `aff` into `row` (`loops.len() + 1` numbers): `row[0]` is the
/// constant plus every parameter term, `row[1 + k]` the coefficient of
/// `loops[k]`. A name bound more than once means the innermost loop, and a
/// loop variable shadows a parameter, as in the interpreter's scoping.
///
/// # Errors
///
/// The first term, in term order, that names nothing or whose folding
/// overflows.
pub(crate) fn lower_aff<'a>(
    aff: &'a Aff,
    loops: &[&str],
    params: &HashMap<String, i128>,
    row: &mut [i128],
) -> Result<(), Unlowered<'a>> {
    row.fill(0);
    row[0] = aff.constant_term();
    for (v, c) in aff.terms() {
        match loops.iter().rposition(|l| *l == v) {
            Some(k) => row[1 + k] = c,
            None => {
                let value = params.get(v).ok_or(Unlowered::Unbound(v))?;
                row[0] = mul(c, *value)
                    .and_then(|term| row[0].checked_add(term))
                    .ok_or(Unlowered::Overflow)?;
            }
        }
    }
    Ok(())
}

/// `a · b`, or `None` when it leaves `i128`. Operands that fit `i64` —
/// every subscript and bound of a real program — take one widening
/// multiply; `i128::checked_mul` is a library call.
fn mul(a: i128, b: i128) -> Option<i128> {
    match (i64::try_from(a), i64::try_from(b)) {
        (Ok(a), Ok(b)) => Some(i128::from(a) * i128::from(b)),
        _ => a.checked_mul(b),
    }
}

/// The value of `row` where its loops take the values `env`, or `None`
/// when a term or a partial sum leaves `i128`.
pub(crate) fn eval_row(row: &[i128], env: &[i128]) -> Option<i128> {
    row[1..].iter().zip(env).try_fold(row[0], |acc, (c, v)| {
        mul(*c, *v).and_then(|term| acc.checked_add(term))
    })
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
    /// The first subscript, in subscript and then term order, that has no
    /// row.
    pub fn new<'a>(
        r: &'a ArrayRef,
        array: usize,
        loops: &[&str],
        params: &HashMap<String, i128>,
    ) -> Result<Self, Unlowered<'a>> {
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
    /// per unit of `x` (`x` is ignored when `prefix` binds every loop), or
    /// `None` when the subscript leaves `i128`.
    fn subscript(&self, d: usize, prefix: &[i128], x: i128) -> Option<(i128, i128)> {
        let row = &self.rows[d * self.width..][..self.width];
        let depth = self.width - 1;
        let step = if prefix.len() < depth { row[depth] } else { 0 };
        let at = eval_row(row, prefix)?.checked_add(mul(step, x)?)?;
        Some((at, step))
    }

    /// Every subscript at iteration `prefix ++ [x]`, or `None` when one
    /// leaves `i128`.
    pub fn subscripts(&self, prefix: &[i128], x: i128) -> Option<Vec<i128>> {
        (0..self.dims())
            .map(|d| Some(self.subscript(d, prefix, x)?.0))
            .collect()
    }

    /// The cursor over `x ∈ lo..=hi` at `prefix` in an array of `extents`
    /// whose element `[0, …, 0]` is number `base`: placed on the element
    /// at `lo`, or [`NO_SLOT`] when either end of the range leaves
    /// an extent, the arithmetic leaves `i128`, or the subscripts are not
    /// one per extent.
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
        let place = || {
            let (mut offset, mut stride) = (0i128, 0i128);
            for (d, &extent) in extents.iter().enumerate() {
                let (first, step) = self.subscript(d, prefix, lo)?;
                let last = first.checked_add(mul(step, hi.checked_sub(lo)?)?)?;
                if !(0..extent).contains(&first) || !(0..extent).contains(&last) {
                    return None;
                }
                offset = offset * extent + first;
                stride = mul(stride, extent)?.checked_add(step)?;
            }
            // Both ends are slots of one array, `stride × (hi − lo)` apart,
            // so a range of two or more instances has a stride that fits;
            // a single instance never steps.
            let stride = if lo == hi {
                0
            } else {
                isize::try_from(stride).ok()?
            };
            Some(Cursor {
                slot: base + usize::try_from(offset).ok()?,
                stride,
            })
        };
        place().unwrap_or(Cursor::OUTSIDE)
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
        self.skip(1);
    }

    /// Moves `n` iterations on.
    pub fn skip(&mut self, n: usize) {
        self.slot = self.ahead(n);
    }

    /// The elements of the next `n` iterations, in order.
    pub fn slots(self, n: usize) -> impl Iterator<Item = usize> {
        (0..n).map(move |i| self.ahead(i))
    }

    /// The element `n` iterations on.
    fn ahead(self, n: usize) -> usize {
        self.slot
            .wrapping_add_signed(self.stride.wrapping_mul(n as isize))
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

impl Op {
    /// How many values the op takes off the stack.
    fn arity(self) -> usize {
        match self {
            Op::Lit(_) | Op::Read(_) => 0,
            Op::Bin(_) => 2,
            Op::Neg => 1,
            Op::Call(n) => n,
        }
    }
}

/// The most instances one strip holds: a strip's columns are
/// `STRIP_MAX` values per op.
pub const STRIP_MAX: usize = 256;

/// The distance from which a carried read cuts a range into strips of
/// that many instances, which read none of their own values and so run
/// wholly over columns, rather than running its chain per instance in
/// longer strips: from here on that is faster (EXPERIMENTS.md P48).
pub const FAR_CARRY: usize = 4;

/// An op downstream of a carried read, run once per instance `k` of a
/// strip ([`LoweredStmt::eval_strip`]) on `acc`, the value of the chain's
/// previous op at `k`, and element `k` of a column (given by where it
/// starts). Postfix order makes the previous op compute one operand of
/// each op that takes one; any other operand is in its column. One
/// variant per operator and side keeps an instance to one dispatch per op.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// The strip's value at `k − 1`.
    Carry1,
    /// The strip's value at `k − d`, `d > 1`: element `k` of the output
    /// from this index, `d` before its value at `k`.
    Carry(usize),
    AccAdd(usize),
    AccSub(usize),
    AccMul(usize),
    AccDiv(usize),
    AddAcc(usize),
    SubAcc(usize),
    MulAcc(usize),
    DivAcc(usize),
    Neg,
    /// The intrinsic of the columns of the `n` values that start at
    /// `args` in [`LoweredStmt::operands`].
    Call {
        args: usize,
        n: usize,
    },
    /// Stores `acc` in its column, which a later op reads.
    Keep(usize),
}

impl Step {
    /// `op(acc, column)`, or `op(column, acc)` if `acc_left` is false.
    fn bin(op: BinOp, acc_left: bool, col: usize) -> Self {
        match (op, acc_left) {
            (BinOp::Add, true) => Step::AccAdd(col),
            (BinOp::Sub, true) => Step::AccSub(col),
            (BinOp::Mul, true) => Step::AccMul(col),
            (BinOp::Div, true) => Step::AccDiv(col),
            (BinOp::Add, false) => Step::AddAcc(col),
            (BinOp::Sub, false) => Step::SubAcc(col),
            (BinOp::Mul, false) => Step::MulAcc(col),
            (BinOp::Div, false) => Step::DivAcc(col),
        }
    }
}

/// What an op's value is to a strip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Value {
    /// Depends on no carried read: computed once over its column.
    Free,
    /// Depends on a carried read: computed per instance.
    Carried,
    /// Carried, and read back from its column by a later op.
    Kept,
}

/// How a placed range runs in strips ([`LoweredStmt::strips`]).
#[derive(Clone, Copy, Debug)]
pub struct Strips {
    /// Instances per strip; the range's last strip may be shorter.
    pub len: usize,
    /// The distance of the nearest carried read, or `usize::MAX`.
    near: usize,
}

/// The scratch of [`LoweredStmt::eval_strip`], reused from strip to strip.
#[derive(Debug, Default)]
pub struct Columns {
    /// One column of the strip's length per op.
    vals: Vec<f64>,
    /// Per op, what its value is to the strip.
    values: Vec<Value>,
    /// The ops of carried values, in code order.
    steps: Vec<Step>,
    /// A carried strip's values, after the `d` the write left before it
    /// for the longest carry `d`.
    out: Vec<f64>,
}

/// Fills `col` with the elements of `from` that cursor `c` visits.
fn gather(from: &[f64], c: Cursor, col: &mut [f64]) {
    let count = col.len();
    match c.stride {
        0 => col.fill(from[c.slot]),
        1 => col.copy_from_slice(&from[c.slot..][..count]),
        _ => col
            .iter_mut()
            .zip(c.slots(count))
            .for_each(|(v, at)| *v = from[at]),
    }
}

/// Runs `op` over columns of `len` values in `vals`: column `at` takes
/// its value and holds its first operand, column `arg(k)` holds operand
/// `k`, and `read(n, column)` fills a column with read `n`'s elements.
fn column_op(
    op: Op,
    vals: &mut [f64],
    len: usize,
    at: usize,
    arg: impl Fn(usize) -> usize,
    read: &impl Fn(usize, &mut [f64]),
) {
    let at = at * len;
    match op {
        Op::Lit(v) => vals[at..][..len].fill(v),
        Op::Read(n) => read(n, &mut vals[at..][..len]),
        Op::Bin(op) => {
            // The right operand's column comes after the left one's.
            let (a, b) = vals.split_at_mut(arg(1) * len);
            let pairs = a[at..][..len].iter_mut().zip(&b[..len]);
            match op {
                BinOp::Add => pairs.for_each(|(a, b)| *a += b),
                BinOp::Sub => pairs.for_each(|(a, b)| *a -= b),
                BinOp::Mul => pairs.for_each(|(a, b)| *a *= b),
                BinOp::Div => pairs.for_each(|(a, b)| *a /= b),
            }
        }
        Op::Neg => vals[at..][..len].iter_mut().for_each(|v| *v = -*v),
        Op::Call(n) => {
            for k in 0..len {
                let args = (0..n).map(|j| vals[arg(j) * len + k]);
                vals[at + k] = eval_intrinsic(args);
            }
        }
    }
}

/// Appends the code of `e` to `code`, and its accesses to `accesses`.
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
    /// The values each op takes, in code order and each op's operands
    /// left to right; a value is the index of the op that computes it.
    operands: Vec<usize>,
    /// Per op, its column in a strip that carries a read: its first
    /// operand's, which only it reads, so ops update in place; or its own,
    /// for an op that takes no operand. One column per value, so no op
    /// overwrites an operand a carried op still needs.
    homes: Vec<usize>,
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
        let (mut stack, mut operands, mut homes) = (Vec::new(), Vec::new(), Vec::new());
        for (at, op) in code.iter().enumerate() {
            let args = stack.len() - op.arity();
            homes.push(stack.get(args).map_or(at, |&a| homes[a]));
            operands.extend(stack.drain(args..));
            stack.push(at);
        }
        Ok(LoweredStmt {
            accesses,
            code,
            operands,
            homes,
        })
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

    /// The distance `d ≥ 1` at which read `n` under `cursors` is
    /// *carried*: at every instance `k` it reads the element instance
    /// `k − d` writes, the last write of that element before `k`. That is
    /// a read of the written array with the write's stride and a slot
    /// `d` strides behind it, or a stride-0 read of the stride-0 slot
    /// written (`d = 1`).
    pub fn carry(&self, cursors: &[Cursor], n: usize) -> Option<usize> {
        let (r, w) = (cursors[n], cursors[self.write()]);
        if self.accesses[n].array != self.accesses[self.write()].array || r.stride != w.stride {
            return None;
        }
        let gap = w.slot as isize - r.slot as isize;
        let d = match w.stride {
            0 => return (gap == 0).then_some(1),
            // Unit strides, the usual case, take no division.
            1 => gap,
            -1 => -gap,
            s if gap % s == 0 => gap / s,
            _ => return None,
        };
        usize::try_from(d).ok().filter(|&d| d > 0)
    }

    /// How a range of `count` instances runs in strips, from the `cursors`
    /// [`Self::place`] put inside every array over it: strips of `count`,
    /// capped at [`STRIP_MAX`] and, when the nearest carried read
    /// ([`Self::carry`]) is [`FAR_CARRY`] or more instances back, at its
    /// distance; or `None`, instance by instance, when a read of the
    /// written array with another stride meets the write's slots. Any
    /// other read of the written array reads nothing the range writes
    /// before it reads.
    pub fn strips(&self, cursors: &[Cursor], count: usize) -> Option<Strips> {
        let write = self.write();
        let w = cursors[write];
        // The lowest and highest slot a cursor visits over the range.
        let span = |c: Cursor| {
            let last = c.ahead(count.saturating_sub(1));
            (c.slot.min(last), c.slot.max(last))
        };
        let meets = |n: usize| {
            let r = cursors[n];
            let ((rlo, rhi), (wlo, whi)) = (span(r), span(w));
            self.accesses[n].array == self.accesses[write].array
                && r.stride != w.stride
                && rlo <= whi
                && wlo <= rhi
        };
        if (0..write).any(meets) {
            return None;
        }
        let near = (0..write).filter_map(|n| self.carry(cursors, n)).min();
        let near = near.unwrap_or(usize::MAX);
        let len = count.min(STRIP_MAX);
        let len = if near >= FAR_CARRY {
            near.min(len)
        } else {
            len
        };
        Some(Strips { len, near })
    }

    /// How many of read `n`'s first slots a strip of `len` instances
    /// gathers from memory: a read carried at `d < len` takes the rest
    /// from the strip's own values.
    pub fn gathers(&self, cursors: &[Cursor], strips: Strips, len: usize, n: usize) -> usize {
        if strips.near >= len {
            return len;
        }
        self.carry(cursors, n).map_or(len, |d| d.min(len))
    }

    /// Evaluates the right-hand sides of the next `len` instances under
    /// `cursors` (`len` at most `strips.len`) and returns their
    /// values in instance order; a read gathers from `memory(n)` by slot.
    /// An op that depends on no carried read runs once over a column of
    /// `len` values in `cols`. The ops downstream of a read carried at a
    /// distance `d < len` run instance by instance, the read taking the
    /// strip's own value `d` instances back, or, for the first `d`, the
    /// element it gathers. The caller writes the values and then skips the
    /// cursors past the strip.
    pub fn eval_strip<'c, 'm>(
        &self,
        cursors: &[Cursor],
        strips: Strips,
        len: usize,
        cols: &'c mut Columns,
        memory: impl Fn(usize) -> &'m [f64],
    ) -> &'c [f64] {
        let read = |n: usize, col: &mut [f64]| gather(memory(n), cursors[n], col);
        cols.vals.resize(self.code.len() * len, 0.0);
        if strips.near < len {
            return self.eval_carried(cursors, len, cols, read);
        }
        // Every op runs over columns, a value in its stack slot's.
        let mut top = 0;
        for &op in &self.code {
            top -= op.arity();
            column_op(op, &mut cols.vals, len, top, |k| top + k, &read);
            top += 1;
        }
        &cols.vals[..len]
    }

    /// [`Self::eval_strip`] of a strip that takes some of its own values:
    /// `read(n, column)` fills a column with read `n`'s elements at the
    /// strip's first instances.
    fn eval_carried<'c>(
        &self,
        cursors: &[Cursor],
        len: usize,
        cols: &'c mut Columns,
        read: impl Fn(usize, &mut [f64]),
    ) -> &'c [f64] {
        let Columns {
            vals,
            values,
            steps,
            out,
        } = cols;
        let carry = |op: Op| match op {
            Op::Read(n) => self.carry(cursors, n).filter(|&d| d < len),
            _ => None,
        };
        let far = (0..self.write()).filter_map(|n| Some((n, carry(Op::Read(n))?)));
        let (far, reach) = far.max_by_key(|&(_, d)| d).expect("a carried read");

        // Which values are carried, and which of those an op takes from a
        // column rather than from the chain's previous op.
        values.clear();
        let (mut next, mut last) = (0, None);
        for (v, &op) in self.code.iter().enumerate() {
            let args = &self.operands[next..][..op.arity()];
            next += args.len();
            let mut value = match carry(op) {
                Some(_) => Value::Carried,
                None => Value::Free,
            };
            for &a in args {
                if values[a] != Value::Free {
                    value = Value::Carried;
                    if last != Some(a) || matches!(op, Op::Call(_)) {
                        values[a] = Value::Kept;
                    }
                }
            }
            if value != Value::Free {
                last = Some(v);
            }
            values.push(value);
        }

        // The free ops run over columns, a value in its home column, and
        // the carried ones become steps. Postfix order: a binary op's right
        // operand is the op before it. A carried value that a later op
        // reads from a column is kept in its home column: what its first
        // operand left there was read by then, at that instance.
        let homes = &self.homes;
        steps.clear();
        next = 0;
        for (v, &op) in self.code.iter().enumerate() {
            let args = &self.operands[next..][..op.arity()];
            next += args.len();
            if values[v] == Value::Free {
                column_op(op, vals, len, homes[v], |k| homes[args[k]], &read);
                continue;
            }
            let at = homes[v] * len;
            steps.push(match op {
                Op::Read(_) => match carry(op).expect("carried") {
                    1 => Step::Carry1,
                    d => Step::Carry(reach - d),
                },
                Op::Bin(op) if values[v - 1] != Value::Free => Step::bin(op, false, at),
                Op::Bin(op) => Step::bin(op, true, homes[v - 1] * len),
                Op::Neg => Step::Neg,
                Op::Call(n) => Step::Call { args: next - n, n },
                Op::Lit(_) => unreachable!("a literal carries nothing"),
            });
            if values[v] == Value::Kept {
                steps.push(Step::Keep(at));
            }
        }
        // What the carried reads take before the strip's own values: the
        // elements the write wrote `reach` … 1 instances before it, which
        // the farthest carried read gathers first.
        out.resize(reach + len, 0.0);
        read(far, &mut out[..reach]);
        self.run_chain(steps, homes, vals, out, reach, len);
        &out[reach..]
    }

    /// Runs a carried strip's `steps` instance by instance over the free
    /// columns in `vals` (value `v`'s at `homes[v]`), into `out`, whose
    /// first `reach` values are the write's before the strip.
    fn run_chain(
        &self,
        steps: &[Step],
        homes: &[usize],
        vals: &mut [f64],
        out: &mut [f64],
        reach: usize,
        len: usize,
    ) {
        // The value at `k − 1` stays in a register: a recurrence's usual
        // step waits on the arithmetic, not on a store.
        let mut last = out[reach - 1];
        for k in 0..len {
            let mut acc = 0.0;
            for &step in steps {
                acc = match step {
                    Step::Carry1 => last,
                    Step::Carry(at) => out[at + k],
                    Step::AccAdd(c) => acc + vals[c + k],
                    Step::AccSub(c) => acc - vals[c + k],
                    Step::AccMul(c) => acc * vals[c + k],
                    Step::AccDiv(c) => acc / vals[c + k],
                    Step::AddAcc(c) => vals[c + k] + acc,
                    Step::SubAcc(c) => vals[c + k] - acc,
                    Step::MulAcc(c) => vals[c + k] * acc,
                    Step::DivAcc(c) => vals[c + k] / acc,
                    Step::Neg => -acc,
                    Step::Call { args, n } => {
                        let args = &self.operands[args..][..n];
                        eval_intrinsic(args.iter().map(|&a| vals[homes[a] * len + k]))
                    }
                    Step::Keep(at) => {
                        vals[at + k] = acc;
                        acc
                    }
                };
            }
            out[reach + k] = acc;
            last = acc;
        }
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
                    let v = eval_intrinsic(stack[at..].iter().copied());
                    stack.truncate(at);
                    v
                }
            };
            stack.push(v);
        }
        Ok(stack.pop().expect("postfix result"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The strip length of `stmt` over `i = lo … hi`, in arrays `A[120]`,
    /// `B[120]` (array numbers 0 and 1), and the distance of each carried
    /// read; `None` when a cursor leaves.
    fn strip(stmt: &str, (lo, hi): (i128, i128)) -> Option<(Option<usize>, Vec<usize>)> {
        let text = format!("param N; array A[120]; array B[120]; for i = 0 to 1 {{ {stmt} }}");
        let program = crate::parse(&text).expect("parses");
        let info = &program.statements()[0];
        let lowered = LoweredStmt::new(&info.stmt, |r| {
            let array = usize::from(r.array == "B");
            Access::new(r, array, &info.loop_vars(), &HashMap::new()).map_err(|_| ())
        })
        .expect("lowers");
        let mut cursors = Vec::new();
        let extents = [120];
        let inside = lowered.place(&[], (lo, hi), |_| Some((&extents[..], 0)), &mut cursors);
        inside.then(|| {
            let count = usize::try_from(hi - lo + 1).expect("a range");
            let carries = (0..lowered.write()).filter_map(|n| lowered.carry(&cursors, n));
            (
                lowered.strips(&cursors, count).map(|s| s.len),
                carries.collect(),
            )
        })
    }

    #[test]
    fn strips_and_carries_follow_the_rule() {
        let range = (3, 36);
        for (stmt, len, carries) in [
            ("A[i] = A[i - 1] * 0.5 + B[i];", Some(34), vec![1]),
            ("A[i] = A[i - 2] * 0.5 + B[i];", Some(34), vec![2]),
            ("A[i] = f(A[i - 3], A[i]) - B[i];", Some(34), vec![3]),
            // From `FAR_CARRY` on, the nearest carry cuts the strips.
            ("A[i + 6] = A[i + 2] * 0.5;", Some(4), vec![4]),
            ("A[i + 9] = A[i] + A[i + 4];", Some(5), vec![9, 5]),
            ("A[i + 6] = A[i] + A[i + 5];", Some(34), vec![6, 1]),
            ("A[i] = A[i - 1] * A[i - 1];", Some(34), vec![1, 1]),
            // Reads of the written slot itself, or of later slots.
            ("A[i] = A[i] * A[i + 2];", Some(34), vec![]),
            ("B[i] = A[i - 3] * A[i + 3];", Some(34), vec![]),
            // Stride 0: the written slot itself (a reduction), or apart
            // from the reads.
            ("A[1] = A[1] + B[i];", Some(34), vec![1]),
            ("A[1] = A[3] + B[i];", Some(34), vec![]),
            // Unequal strides: overlapping slots, or apart.
            ("A[5] = A[i] + B[i];", None, vec![]),
            ("A[1] = A[i] + B[i];", Some(34), vec![]),
            ("A[i] = A[5] + B[i];", None, vec![]),
            ("A[i] = A[1] + B[i];", Some(34), vec![]),
            // Negative strides: `A[41 − i]` was written two instances ago.
            ("A[39 - i] = A[41 - i] * 0.25;", Some(34), vec![2]),
            ("A[39 - i] = A[37 - i] * 0.25;", Some(34), vec![]),
            ("A[2 * i] = A[i] + 1.0;", None, vec![]),
            ("A[i] = A[2 * i + 40] - 1.0;", Some(34), vec![]),
            // A distance of the range's length or more reads no value the
            // range writes.
            ("A[i + 40] = A[i];", Some(34), vec![40]),
            // The gap is no whole number of strides.
            ("A[2 * i] = A[2 * i - 3];", Some(34), vec![]),
        ] {
            assert_eq!(strip(stmt, range), Some((len, carries)), "{stmt}");
        }
        // Capped at `STRIP_MAX`, and never longer than the range.
        let wide = "array W[4096]; for i = 0 to 1 { W[i] = W[i + 1]; }";
        let text = format!("param N; {wide}");
        let program = crate::parse(&text).expect("parses");
        let info = &program.statements()[0];
        let lowered = LoweredStmt::new(&info.stmt, |r| {
            Access::new(r, 0, &["i"], &HashMap::new()).map_err(|_| ())
        })
        .expect("lowers");
        let mut cursors = Vec::new();
        let extents = [4096];
        assert!(lowered.place(&[], (0, 4000), |_| Some((&extents[..], 0)), &mut cursors));
        let strips = lowered.strips(&cursors, 4001);
        assert_eq!(strips.map(|s| s.len), Some(STRIP_MAX));
        assert_eq!(strip("A[i] = B[i];", (5, 5)), Some((Some(1), vec![])));
    }

    /// A subscript, a parameter fold or a range that leaves `i128` places
    /// no cursor and evaluates to `None`; it never wraps into the array.
    #[test]
    fn overflowing_arithmetic_places_nothing() {
        let big = 1i128 << 126;
        assert_eq!(strip(&format!("A[{big} * i] = 7.0;"), (4, 4)), None);
        // `4 · 2^126` wraps to 0: both ends would look inside.
        assert_eq!(strip(&format!("A[{big} * i] = 7.0;"), (0, 4)), None);
        assert_eq!(strip("A[2 * i] = 7.0;", (0, i128::MAX)), None);
        assert_eq!(eval_row(&[big, 2], &[1]), Some(big + 2));
        assert_eq!(eval_row(&[big, big], &[2]), None);
        assert_eq!(eval_row(&[i128::MAX, 1], &[1]), None);
        let aff = Aff::var("N") * big;
        let params = HashMap::from([("N".to_owned(), 4)]);
        let mut row = [0; 1];
        assert_eq!(
            lower_aff(&aff, &[], &params, &mut row),
            Err(Unlowered::Overflow)
        );
        assert_eq!(
            lower_aff(&aff, &[], &HashMap::new(), &mut row),
            Err(Unlowered::Unbound("N"))
        );
    }
}
