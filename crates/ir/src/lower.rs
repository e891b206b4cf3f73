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
//! * a range whose instances cannot see one another's writes runs in
//!   *strips* ([`LoweredStmt::strip_len`], [`LoweredStmt::eval_strip`]).
//!
//! # Strips
//!
//! [`LoweredStmt::strip_len`] derives a placed range's flow-dependence
//! distance `d`: the least `k − j > 0` at which instance `k` reads an
//! element of the written array that instance `j` writes (equal strides
//! solved exactly; a stride-0 read of the written stride-0 slot, or
//! overlapping slots of unequal strides, count as 1). Any `d` consecutive
//! instances read nothing the others write, so [`LoweredStmt::eval_strip`]
//! may run up to `min(d,` [`STRIP_MAX`]`)` of them one op at a time over
//! columns before the caller writes them in instance order. Each instance
//! performs the same `f64` operations in the same order as
//! [`LoweredStmt::eval`] (no reassociation, no fused multiply-add), so
//! results are bit-identical. Distance 1 keeps the per-instance loop, the
//! path that also finds a range's first failing instance. Execution
//! arithmetic is checked: a row or cursor whose arithmetic leaves `i128`
//! is `None` or [`NO_SLOT`], never a wrapped subscript.
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

/// The most instances one strip holds: a strip's columns are
/// `STRIP_MAX × stack depth` values.
pub const STRIP_MAX: usize = 256;

/// Appends the code of `e` to `code`, and its accesses to `accesses`;
/// returns the deepest the value stack gets while it runs, `depth` values
/// being on the stack before it.
fn lower_expr<E>(
    e: &ScalarExpr,
    access: &mut impl FnMut(&ArrayRef) -> Result<Access, E>,
    accesses: &mut Vec<Access>,
    code: &mut Vec<Op>,
    depth: usize,
) -> Result<usize, E> {
    Ok(match e {
        ScalarExpr::Lit(v) => {
            code.push(Op::Lit(*v));
            depth + 1
        }
        ScalarExpr::Read(r) => {
            code.push(Op::Read(accesses.len()));
            accesses.push(access(r)?);
            depth + 1
        }
        ScalarExpr::Bin(op, a, b) => {
            let left = lower_expr(a, access, accesses, code, depth)?;
            let right = lower_expr(b, access, accesses, code, depth + 1)?;
            code.push(Op::Bin(*op));
            left.max(right)
        }
        ScalarExpr::Neg(a) => {
            let deepest = lower_expr(a, access, accesses, code, depth)?;
            code.push(Op::Neg);
            deepest
        }
        ScalarExpr::Call(_, args) => {
            let mut deepest = depth + 1;
            for (k, a) in args.iter().enumerate() {
                deepest = deepest.max(lower_expr(a, access, accesses, code, depth + k)?);
            }
            code.push(Op::Call(args.len()));
            deepest
        }
    })
}

/// A statement as it is executed.
#[derive(Clone, Debug)]
pub struct LoweredStmt {
    /// The reads in evaluation order, then the write.
    pub accesses: Vec<Access>,
    code: Vec<Op>,
    /// The deepest the value stack gets while `code` runs.
    depth: usize,
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
        let depth = lower_expr(&stmt.rhs, &mut access, &mut accesses, &mut code, 0)?;
        accesses.push(access(&stmt.write)?);
        Ok(LoweredStmt {
            accesses,
            code,
            depth,
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

    /// How many consecutive instances of a range of `count` may run as one
    /// strip, from the `cursors` [`Self::place`] put inside every array
    /// over it: the range's flow-dependence distance (see the module
    /// documentation), capped at [`STRIP_MAX`] and at `count`. One means
    /// instance by instance.
    pub fn strip_len(&self, cursors: &[Cursor], count: usize) -> usize {
        let write = self.write();
        let w = cursors[write];
        // The lowest and highest slot a cursor visits over the range.
        let span = |c: Cursor| {
            let last = c.ahead(count.saturating_sub(1));
            (c.slot.min(last), c.slot.max(last))
        };
        let distance = |r: Cursor| {
            if r.stride != w.stride {
                let ((rlo, rhi), (wlo, whi)) = (span(r), span(w));
                return if rlo <= whi && wlo <= rhi { 1 } else { count };
            }
            // Instance `k` reads slot `r + k·s`, which instance `j` writes
            // when `(k − j)·s = w − r`.
            let gap = w.slot as isize - r.slot as isize;
            match (gap, w.stride) {
                (0, 0) => 1,
                (_, 0) => count,
                (gap, s) if gap % s == 0 && gap / s > 0 => (gap / s) as usize,
                _ => count,
            }
        };
        let same = |n: &usize| self.accesses[*n].array == self.accesses[write].array;
        (0..write)
            .filter(same)
            .map(|n| distance(cursors[n]))
            .fold(count.min(STRIP_MAX), usize::min)
    }

    /// Evaluates the right-hand sides of the next `len` instances under
    /// `cursors` (`len` at most [`Self::strip_len`]) and returns their
    /// values in instance order: each op runs once over columns of `len`
    /// values in `cols`, a read gathering from `memory(n)` by slot. The
    /// caller writes the values and then skips the cursors past the strip.
    pub fn eval_strip<'c, 'm>(
        &self,
        cursors: &[Cursor],
        len: usize,
        cols: &'c mut Vec<f64>,
        memory: impl Fn(usize) -> &'m [f64],
    ) -> &'c [f64] {
        cols.resize(self.depth * len, 0.0);
        let mut top = 0;
        for &op in &self.code {
            match op {
                Op::Lit(v) => cols[top * len..][..len].fill(v),
                Op::Read(n) => {
                    let (col, from) = (&mut cols[top * len..][..len], memory(n));
                    let c = cursors[n];
                    match c.stride {
                        0 => col.fill(from[c.slot]),
                        1 => col.copy_from_slice(&from[c.slot..][..len]),
                        _ => col
                            .iter_mut()
                            .zip(c.slots(len))
                            .for_each(|(v, at)| *v = from[at]),
                    }
                }
                Op::Bin(op) => {
                    top -= 1;
                    let (a, b) = cols[(top - 1) * len..][..2 * len].split_at_mut(len);
                    let pairs = a.iter_mut().zip(&*b);
                    match op {
                        BinOp::Add => pairs.for_each(|(a, b)| *a += b),
                        BinOp::Sub => pairs.for_each(|(a, b)| *a -= b),
                        BinOp::Mul => pairs.for_each(|(a, b)| *a *= b),
                        BinOp::Div => pairs.for_each(|(a, b)| *a /= b),
                    }
                    continue;
                }
                Op::Neg => {
                    cols[(top - 1) * len..][..len]
                        .iter_mut()
                        .for_each(|v| *v = -*v);
                    continue;
                }
                Op::Call(n) => {
                    top -= n;
                    for i in 0..len {
                        let args = (top..top + n).map(|c| cols[c * len + i]);
                        cols[top * len + i] = eval_intrinsic(args);
                    }
                }
            }
            top += 1;
        }
        &cols[..len]
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

    /// The strip of `stmt` over `i = lo … hi`, in arrays `A[120]`,
    /// `B[120]` (array numbers 0 and 1), or `None` when a cursor leaves.
    fn strip(stmt: &str, (lo, hi): (i128, i128)) -> Option<usize> {
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
        inside.then(|| lowered.strip_len(&cursors, usize::try_from(hi - lo + 1).expect("a range")))
    }

    #[test]
    fn strips_are_the_flow_dependence_distance() {
        let range = (3, 36);
        for (stmt, want) in [
            ("A[i] = A[i - 1] * 0.5 + B[i];", 1),
            ("A[i] = A[i - 2] * 0.5 + B[i];", 2),
            ("A[i] = f(A[i - 3], A[i]) - B[i];", 3),
            // Reads of the written slot itself, or of later slots.
            ("A[i] = A[i] * A[i + 2];", 34),
            ("B[i] = A[i - 3] * A[i + 3];", 34),
            // Stride 0: the written slot itself, or apart from the reads.
            ("A[1] = A[1] + B[i];", 1),
            ("A[1] = A[i] + B[i];", 34),
            ("A[i] = A[1] + B[i];", 34),
            // Negative strides: `A[41 − i]` was written two instances ago.
            ("A[39 - i] = A[41 - i] * 0.25;", 2),
            ("A[39 - i] = A[37 - i] * 0.25;", 34),
            // Unequal strides: overlapping slots, or apart.
            ("A[2 * i] = A[i] + 1.0;", 1),
            ("A[i] = A[2 * i + 40] - 1.0;", 34),
            // A distance of the range's length or more is no dependence.
            ("A[i + 40] = A[i];", 34),
        ] {
            assert_eq!(strip(stmt, range), Some(want), "{stmt}");
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
        assert_eq!(lowered.strip_len(&cursors, 4001), STRIP_MAX);
        assert_eq!(strip("A[i] = B[i];", (5, 5)), Some(1));
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
