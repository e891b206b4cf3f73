//! Sequential reference interpreter.
//!
//! Runs an affine [`Program`] directly, producing the final array contents.
//! This is the correctness oracle for the whole compiler: the distributed
//! SPMD execution must compute exactly the same values.
//!
//! With tracing enabled the interpreter also records, for every dynamic read
//! instance, the write instance that produced the value read — the
//! brute-force ground truth that the Last Write Tree analysis
//! (`dmc-dataflow`) is tested against.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;

use crate::aff::Aff;
use crate::lower::{
    eval_row, lower_aff, Access, Columns, Cursor, LoweredStmt, Unlowered, NO_ARRAY, NO_SLOT,
};
use crate::program::{ArrayRef, Node, Program, ScalarExpr};

/// Errors raised while interpreting a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A subscript fell outside the declared extents.
    OutOfBounds {
        /// Array name.
        array: String,
        /// The offending subscript values.
        idx: Vec<i128>,
    },
    /// A referenced array was never declared.
    UndeclaredArray(String),
    /// A parameter was not bound to a value.
    UnboundParam(String),
    /// A subscript or an extent of the array left the `i128` range.
    ArrayOverflow {
        /// Array name.
        array: String,
    },
    /// A bound of the loop left the `i128` range.
    LoopOverflow {
        /// The loop variable.
        var: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds { array, idx } => {
                write!(f, "subscript {idx:?} out of bounds for array {array}")
            }
            ExecError::UndeclaredArray(a) => write!(f, "array {a} was not declared"),
            ExecError::UnboundParam(p) => write!(f, "parameter {p} has no value"),
            ExecError::ArrayOverflow { array } => {
                write!(f, "a subscript or extent of array {array} overflows i128")
            }
            ExecError::LoopOverflow { var } => write!(f, "a bound of loop {var} overflows i128"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Dense storage for one array.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayStore {
    extents: Vec<i128>,
    data: Vec<f64>,
}

impl ArrayStore {
    /// Allocates an array with the given extents, filled by `init`
    /// (called with the multi-dimensional index of each element).
    pub fn new(extents: Vec<i128>, mut init: impl FnMut(&[i128]) -> f64) -> Self {
        let total: i128 = extents.iter().product::<i128>().max(0);
        let mut data = Vec::with_capacity(total as usize);
        let mut idx = vec![0i128; extents.len()];
        for _ in 0..total {
            data.push(init(&idx));
            // Advance the multi-index, last dimension fastest.
            for d in (0..extents.len()).rev() {
                idx[d] += 1;
                if idx[d] < extents[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        ArrayStore { extents, data }
    }

    /// The array extents.
    pub fn extents(&self) -> &[i128] {
        &self.extents
    }

    fn offset(&self, idx: &[i128]) -> Option<usize> {
        if idx.len() != self.extents.len() {
            return None;
        }
        let mut off: i128 = 0;
        for (d, &x) in idx.iter().enumerate() {
            if x < 0 || x >= self.extents[d] {
                return None;
            }
            off = off * self.extents[d] + x;
        }
        Some(off as usize)
    }

    /// Reads an element.
    pub fn get(&self, idx: &[i128]) -> Option<f64> {
        self.offset(idx).map(|o| self.data[o])
    }

    /// Writes an element; returns `false` when out of bounds.
    pub fn set(&mut self, idx: &[i128], v: f64) -> bool {
        match self.offset(idx) {
            Some(o) => {
                self.data[o] = v;
                true
            }
            None => false,
        }
    }

    /// Flat view of the data (row-major, last dimension fastest).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat view of the data, in the order of [`Self::as_slice`].
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// All arrays of a program instance.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Memory {
    arrays: HashMap<String, ArrayStore>,
}

impl Memory {
    /// Allocates memory for every array of `program` with parameter values
    /// `params`, initializing each element with [`default_init`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnboundParam`] if an extent references an
    /// unbound parameter, and [`ExecError::ArrayOverflow`] if an extent, or
    /// an array's number of elements, leaves `i128` or `usize`.
    pub fn allocate(program: &Program, params: &HashMap<String, i128>) -> Result<Self, ExecError> {
        let mut mem = Memory::default();
        for a in &program.arrays {
            let overflow = || ExecError::ArrayOverflow {
                array: a.name.clone(),
            };
            let mut extents = Vec::with_capacity(a.extents.len());
            for e in &a.extents {
                extents.push(eval_aff(e, &|v| params.get(v).copied(), params, overflow)?);
            }
            // A wrapped product would allocate fewer elements than the
            // extents address.
            extents
                .iter()
                .try_fold(1usize, |n, &e| {
                    n.checked_mul(usize::try_from(e.max(0)).ok()?)
                })
                .ok_or_else(overflow)?;
            let name = a.name.clone();
            let store = ArrayStore::new(extents, |idx| default_init(&name, idx));
            mem.arrays.insert(name, store);
        }
        Ok(mem)
    }

    /// Access an array by name.
    pub fn array(&self, name: &str) -> Option<&ArrayStore> {
        self.arrays.get(name)
    }

    /// Mutable access to an array by name.
    pub fn array_mut(&mut self, name: &str) -> Option<&mut ArrayStore> {
        self.arrays.get_mut(name)
    }

    /// Iterates over `(name, store)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ArrayStore)> {
        self.arrays.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// The deterministic default initial value of `array[idx]`: a small,
/// well-conditioned number that depends on the array name and every
/// subscript, so value-flow bugs cannot hide behind symmetric data.
pub fn default_init(array: &str, idx: &[i128]) -> f64 {
    let mut h: i128 = array.bytes().map(|b| b as i128).sum::<i128>() % 97;
    for (d, &x) in idx.iter().enumerate() {
        h = (h * 31 + x * (d as i128 * 7 + 3)) % 10_007;
    }
    1.0 + (h as f64) / 10_007.0
}

/// One dynamic write instance: the statement and the values of its
/// enclosing loop variables, outermost first.
pub type WriterId = (usize, Vec<i128>);

/// One recorded dynamic read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadEvent {
    /// Statement performing the read.
    pub stmt: usize,
    /// Loop index values of the reading instance (outermost first).
    pub iter: Vec<i128>,
    /// Index of the read within the statement's `rhs.reads()` list.
    pub read_no: usize,
    /// The array and concrete subscripts read.
    pub array: String,
    /// Concrete subscript values.
    pub idx: Vec<i128>,
    /// The dynamic write instance whose value was read, or `None` when the
    /// value was live-in (written outside the program) — the paper's ⊥.
    pub writer: Option<WriterId>,
}

/// The full dynamic data-flow trace of one execution.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Every dynamic read, in execution order.
    pub reads: Vec<ReadEvent>,
}

/// Evaluation of intrinsic calls: a fixed deterministic combination so that
/// programs with opaque `f(...)` bodies are runnable and comparable.
///
/// Public so that other execution engines (the distributed-machine
/// simulator) compute bit-identical results.
pub fn eval_intrinsic(args: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = 0.25;
    let mut w = 0.618;
    for a in args {
        acc += a * w;
        w *= 0.618;
    }
    acc
}

/// The value of `e`, its names looked up in term order; a term or partial
/// sum that leaves `i128` is `overflow()`.
fn eval_aff(
    e: &Aff,
    lookup: &dyn Fn(&str) -> Option<i128>,
    params: &HashMap<String, i128>,
    overflow: impl Fn() -> ExecError,
) -> Result<i128, ExecError> {
    let mut acc = e.constant_term();
    for (v, c) in e.terms() {
        let val = lookup(v)
            .or_else(|| params.get(v).copied())
            .ok_or_else(|| ExecError::UnboundParam(v.to_owned()))?;
        acc = c
            .checked_mul(val)
            .and_then(|term| acc.checked_add(term))
            .ok_or_else(&overflow)?;
    }
    Ok(acc)
}

/// A statement of the lowered loop tree.
struct StmtCode {
    code: LoweredStmt,
    /// Per access, the array's name.
    names: Vec<String>,
    /// Per access, what evaluating it raises once its subscripts are
    /// evaluated: a name no subscript can be lowered with (an unbound name,
    /// a parameter term that overflows), or an undeclared array. Raised
    /// when an instance reaches the access, so a zero-trip loop hides it.
    faults: Vec<Option<ExecError>>,
}

impl StmtCode {
    /// What access `n` raises at iteration `env ++ [x]` when its cursor has
    /// no slot, in the tree walk's order: its subscripts, then its fault,
    /// then the bounds check.
    #[cold]
    fn fault(&self, n: usize, env: &[i128], x: i128) -> ExecError {
        let array = self.names[n].clone();
        match self.code.accesses[n].subscripts(env, x) {
            None => ExecError::ArrayOverflow { array },
            Some(idx) => self.faults[n]
                .clone()
                .unwrap_or(ExecError::OutOfBounds { array, idx }),
        }
    }
}

/// A loop of the lowered tree: its bounds as rows over the enclosing loops.
struct LoopCode {
    var: String,
    /// The lower and the upper bound, or what lowering each raised.
    bounds: (Result<Vec<i128>, ExecError>, Result<Vec<i128>, ExecError>),
    body: Vec<Code>,
}

enum Code {
    Loop(LoopCode),
    Stmt(StmtCode),
}

/// What the tree walk raises where a form could not be lowered: the
/// unbound name, or `overflow()`.
fn raised(e: Unlowered<'_>, overflow: impl FnOnce() -> ExecError) -> ExecError {
    match e {
        Unlowered::Unbound(v) => ExecError::UnboundParam(v.to_owned()),
        Unlowered::Overflow => overflow(),
    }
}

/// Lowers `nodes`, which `loops` (outermost first) enclose; an array's
/// number is its place in `arrays`.
fn lower_nodes<'a>(
    nodes: &'a [Node],
    loops: &mut Vec<&'a str>,
    arrays: &[(String, ArrayStore)],
    params: &HashMap<String, i128>,
) -> Vec<Code> {
    let mut out = Vec::with_capacity(nodes.len());
    for node in nodes {
        out.push(match node {
            Node::Loop(l) => {
                let row = |aff| {
                    let mut row = vec![0; loops.len() + 1];
                    lower_aff(aff, loops, params, &mut row).map_err(|e| {
                        raised(e, || ExecError::LoopOverflow { var: l.var.clone() })
                    })?;
                    Ok(row)
                };
                let bounds = (row(&l.lower), row(&l.upper));
                loops.push(&l.var);
                let body = lower_nodes(&l.body, loops, arrays, params);
                loops.pop();
                Code::Loop(LoopCode {
                    var: l.var.clone(),
                    bounds,
                    body,
                })
            }
            Node::Stmt(s) => {
                let (mut names, mut faults) = (Vec::new(), Vec::new());
                // The tree walk evaluates the subscripts, then looks the
                // array up: an unbound name is raised first.
                let code = LoweredStmt::new(s, |r| {
                    let array = arrays.iter().position(|(name, _)| *name == r.array);
                    let array = array.unwrap_or(NO_ARRAY);
                    let (access, fault) = match Access::new(r, array, loops, params) {
                        Err(e) => {
                            let overflow = || ExecError::ArrayOverflow {
                                array: r.array.clone(),
                            };
                            (Access::unresolved(loops.len()), Some(raised(e, overflow)))
                        }
                        Ok(access) if array == NO_ARRAY => {
                            let fault = ExecError::UndeclaredArray(r.array.clone());
                            (access, Some(fault))
                        }
                        Ok(access) => (access, None),
                    };
                    names.push(r.array.clone());
                    faults.push(fault);
                    Ok::<_, Infallible>(access)
                });
                let Ok(code) = code;
                Code::Stmt(StmtCode {
                    code,
                    names,
                    faults,
                })
            }
        });
    }
    out
}

/// What [`run`] executes against: the arrays by number, and the scratch an
/// instance reuses.
struct Exec {
    /// `(name, store)` in declaration order, out of [`Memory`]'s map.
    stores: Vec<(String, ArrayStore)>,
    /// Values of the enclosing loops, outermost first.
    env: Vec<i128>,
    cursors: Vec<Cursor>,
    stack: Vec<f64>,
    /// A strip's columns.
    cols: Columns,
}

impl Exec {
    fn exec(&mut self, nodes: &[Code]) -> Result<(), ExecError> {
        for node in nodes {
            match node {
                Code::Stmt(s) => self.run_stmt(s, None)?,
                Code::Loop(l) => {
                    let bound = |row: &Result<Vec<i128>, ExecError>| {
                        let row = row.as_ref().map_err(Clone::clone)?;
                        eval_row(row, &self.env)
                            .ok_or_else(|| ExecError::LoopOverflow { var: l.var.clone() })
                    };
                    let (lo, hi) = (bound(&l.bounds.0)?, bound(&l.bounds.1)?);
                    if lo > hi {
                        continue;
                    }
                    // A loop around one statement runs it as one range.
                    if let [Code::Stmt(s)] = &l.body[..] {
                        self.run_stmt(s, Some((lo, hi)))?;
                        continue;
                    }
                    for x in lo..=hi {
                        self.env.push(x);
                        self.exec(&l.body)?;
                        self.env.pop();
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs `s` at `env`, which binds every loop around it, or over `range`
    /// of its innermost loop at `env`, which binds the others.
    fn run_stmt(&mut self, s: &StmtCode, range: Option<(i128, i128)>) -> Result<(), ExecError> {
        let (lo, hi) = range.unwrap_or((0, 0));
        let stores = &self.stores;
        let array = |a: usize| stores.get(a).map(|(_, store)| (store.extents(), 0));
        let inside = s.code.place(&self.env, (lo, hi), array, &mut self.cursors);
        // A range that leaves an array fails at some instance; running the
        // instances one by one finds the first failure in execution order.
        if lo < hi && !inside {
            for x in lo..=hi {
                self.run_stmt(s, Some((x, x)))?;
            }
            return Ok(());
        }
        let accesses = &s.code.accesses;
        let write = s.code.write();
        let count = hi
            .checked_sub(lo)
            .and_then(|d| usize::try_from(d).ok()?.checked_add(1));
        // A range of two or more instances (inside every array, by now)
        // runs in strips, unless it must run instance by instance.
        let strips = count
            .filter(|&c| c > 1)
            .and_then(|count| Some((count, s.code.strips(&self.cursors, count)?)));
        if let Some((count, strips)) = strips {
            for at in (0..count).step_by(strips.len) {
                let len = strips.len.min(count - at);
                let stores = &mut self.stores;
                let memory = |n: usize| &stores[accesses[n].array].1.data[..];
                let values = s
                    .code
                    .eval_strip(&self.cursors, strips, len, &mut self.cols, memory);
                let out = &mut stores[accesses[write].array].1.data;
                for (slot, &value) in self.cursors[write].slots(len).zip(values) {
                    out[slot] = value;
                }
                self.cursors.iter_mut().for_each(|c| c.skip(len));
            }
            return Ok(());
        }
        for x in lo..=hi {
            let (stores, cursors, env) = (&mut self.stores, &self.cursors, &self.env);
            // The element under cursor `n`, or what the tree walk raises
            // for that access at this instance.
            let slot = |n: usize| match cursors[n].slot {
                NO_SLOT => Err(s.fault(n, env, x)),
                slot => Ok(slot),
            };
            let value = s.code.eval(&mut self.stack, |n| {
                let at = slot(n)?;
                Ok(stores[accesses[n].array].1.data[at])
            })?;
            let at = slot(write)?;
            stores[accesses[write].array].1.data[at] = value;
            self.cursors.iter_mut().for_each(Cursor::step);
        }
        Ok(())
    }
}

/// Runs `program` sequentially with the given parameter values and returns
/// the final memory.
///
/// The program is lowered once ([`crate::lower`]): loop bounds and
/// subscripts to rows over loop slots with the parameters folded in,
/// right-hand sides to postfix code, arrays to numbers. An instance then
/// costs no hashing, no string comparison and no allocation, and raises
/// exactly what the tree walk of [`run_traced`] raises for it.
///
/// # Errors
///
/// Propagates [`ExecError`] on out-of-bounds accesses or unbound names.
pub fn run(program: &Program, params: &HashMap<String, i128>) -> Result<Memory, ExecError> {
    let mut mem = Memory::allocate(program, params)?;
    // A redeclared name is one array (the map holds its last declaration).
    let stores: Vec<(String, ArrayStore)> = program
        .arrays
        .iter()
        .filter_map(|decl| mem.arrays.remove_entry(&decl.name))
        .collect();
    let code = lower_nodes(&program.body, &mut Vec::new(), &stores, params);
    let mut exec = Exec {
        stores,
        env: Vec::new(),
        cursors: Vec::new(),
        stack: Vec::new(),
        cols: Columns::default(),
    };
    exec.exec(&code)?;
    mem.arrays.extend(exec.stores);
    Ok(mem)
}

/// The tree-walking interpreter behind [`run_traced`]: names looked up per
/// access, every read attributed to its writer. Independent of
/// [`crate::lower`], which makes it the reference [`run`] is tested against.
struct Interp<'a> {
    params: &'a HashMap<String, i128>,
    mem: Memory,
    env: Vec<(String, i128)>,
    trace: Trace,
    last_writer: HashMap<(String, Vec<i128>), WriterId>,
}

impl Interp<'_> {
    fn lookup(&self, v: &str) -> Option<i128> {
        self.env.iter().rev().find(|(n, _)| n == v).map(|&(_, x)| x)
    }

    fn subscripts(&self, r: &ArrayRef) -> Result<Vec<i128>, ExecError> {
        let overflow = || ExecError::ArrayOverflow {
            array: r.array.clone(),
        };
        r.idx
            .iter()
            .map(|a| eval_aff(a, &|v| self.lookup(v), self.params, overflow))
            .collect()
    }

    fn read(
        &mut self,
        r: &ArrayRef,
        stmt: usize,
        iter: &[i128],
        read_no: usize,
    ) -> Result<f64, ExecError> {
        let idx = self.subscripts(r)?;
        let store = self
            .mem
            .array(&r.array)
            .ok_or_else(|| ExecError::UndeclaredArray(r.array.clone()))?;
        let v = store.get(&idx).ok_or_else(|| ExecError::OutOfBounds {
            array: r.array.clone(),
            idx: idx.clone(),
        })?;
        let writer = self
            .last_writer
            .get(&(r.array.clone(), idx.clone()))
            .cloned();
        self.trace.reads.push(ReadEvent {
            stmt,
            iter: iter.to_vec(),
            read_no,
            array: r.array.clone(),
            idx,
            writer,
        });
        Ok(v)
    }

    fn eval(
        &mut self,
        e: &ScalarExpr,
        stmt: usize,
        iter: &[i128],
        read_no: &mut usize,
    ) -> Result<f64, ExecError> {
        match e {
            ScalarExpr::Lit(v) => Ok(*v),
            ScalarExpr::Read(r) => {
                let n = *read_no;
                *read_no += 1;
                self.read(r, stmt, iter, n)
            }
            ScalarExpr::Bin(op, a, b) => {
                let x = self.eval(a, stmt, iter, read_no)?;
                let y = self.eval(b, stmt, iter, read_no)?;
                Ok(op.apply(x, y))
            }
            ScalarExpr::Neg(a) => Ok(-self.eval(a, stmt, iter, read_no)?),
            ScalarExpr::Call(_, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, stmt, iter, read_no)?);
                }
                Ok(eval_intrinsic(vals))
            }
        }
    }
}

/// Runs `program` sequentially and also records the exact producing write
/// of every dynamic read (the analysis ground truth).
///
/// # Errors
///
/// Propagates [`ExecError`] on out-of-bounds accesses or unbound names.
pub fn run_traced(
    program: &Program,
    params: &HashMap<String, i128>,
) -> Result<(Memory, Trace), ExecError> {
    let mut interp = Interp {
        params,
        mem: Memory::allocate(program, params)?,
        env: Vec::new(),
        trace: Trace::default(),
        last_writer: HashMap::new(),
    };
    run_with_static_ids(&mut interp, &program.body, &mut 0)?;
    Ok((interp.mem, interp.trace))
}

/// Executes nodes but numbers statements statically (textual order), so a
/// statement keeps the same id across iterations.
fn run_with_static_ids(
    interp: &mut Interp<'_>,
    nodes: &[Node],
    next_id: &mut usize,
) -> Result<(), ExecError> {
    for node in nodes {
        match node {
            Node::Loop(l) => {
                let overflow = || ExecError::LoopOverflow { var: l.var.clone() };
                let lo = eval_aff(&l.lower, &|v| interp.lookup(v), interp.params, overflow)?;
                let hi = eval_aff(&l.upper, &|v| interp.lookup(v), interp.params, overflow)?;
                let id_at_entry = *next_id;
                let mut id_after = id_at_entry;
                if lo > hi {
                    // Still must advance the numbering past the body.
                    skip_count(&l.body, &mut id_after);
                    *next_id = id_after;
                    continue;
                }
                for x in lo..=hi {
                    interp.env.push((l.var.clone(), x));
                    let mut id = id_at_entry;
                    run_with_static_ids(interp, &l.body, &mut id)?;
                    id_after = id;
                    interp.env.pop();
                }
                *next_id = id_after;
            }
            Node::Stmt(s) => {
                let stmt_id = *next_id;
                *next_id += 1;
                let iter: Vec<i128> = interp.env.iter().map(|&(_, x)| x).collect();
                let mut read_no = 0;
                let v = interp.eval(&s.rhs, stmt_id, &iter, &mut read_no)?;
                let idx = interp.subscripts(&s.write)?;
                let store = interp
                    .mem
                    .array_mut(&s.write.array)
                    .ok_or_else(|| ExecError::UndeclaredArray(s.write.array.clone()))?;
                if !store.set(&idx, v) {
                    return Err(ExecError::OutOfBounds {
                        array: s.write.array.clone(),
                        idx,
                    });
                }
                interp
                    .last_writer
                    .insert((s.write.array.clone(), idx), (stmt_id, iter));
            }
        }
    }
    Ok(())
}

fn skip_count(nodes: &[Node], next_id: &mut usize) {
    for node in nodes {
        match node {
            Node::Loop(l) => skip_count(&l.body, next_id),
            Node::Stmt(_) => *next_id += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::program::ArrayRef;

    fn params(pairs: &[(&str, i128)]) -> HashMap<String, i128> {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    /// Figure 2: `for t = 0..T { for i = 3..N { X[i] = X[i-3]; } }`
    fn figure2() -> Program {
        let mut p = Program::new(["T", "N"]);
        p.declare_array("X", vec![Aff::var("N") + Aff::constant(1)]);
        p.body = vec![for_loop(
            "t",
            0,
            Aff::var("T"),
            vec![for_loop(
                "i",
                3,
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
    fn figure2_executes_the_shift() {
        let p = figure2();
        let env = params(&[("T", 4), ("N", 10)]);
        let mem = run(&p, &env).unwrap();
        let x = mem.array("X").unwrap();
        // After enough iterations everything equals a rotation of the first
        // three initial values: X[i] ends as init(X, [i mod 3]).
        for i in 0..=10i128 {
            let expect = default_init("X", &[i % 3]);
            assert_eq!(x.get(&[i]).unwrap(), expect, "i={i}");
        }
    }

    #[test]
    fn trace_matches_paper_lwt_for_figure2() {
        // Paper Figure 3: reads with i_r <= 5 in the first outer iteration
        // read live-in data; otherwise the writer is [t, i-3] of the same
        // statement — with the (t,i) lexicographic refinement: for i_r in
        // 3..5 the writer is iteration [t_r - 1, i_r + ... ]? No: the paper's
        // LWT says M1 (live-in) iff i_r <= 5 and t_r == 0 is NOT required —
        // X[0..2] are never written, so reads of X[ir-3] for ir in 3..=5
        // are always live-in; all other reads see writer [tw, iw] with
        // iw == ir - 3 in the SAME outer iteration if it came later...
        // The ground truth here is the trace itself; assert its shape.
        let p = figure2();
        let env = params(&[("T", 3), ("N", 12)]);
        let (_, trace) = run_traced(&p, &env).unwrap();
        for ev in &trace.reads {
            let (t, i) = (ev.iter[0], ev.iter[1]);
            if i <= 5 {
                assert_eq!(ev.writer, None, "t={t} i={i} reads X[{}] live-in", i - 3);
            } else {
                // Writer is the same statement at [t', i-3]; since i-3 >= 3
                // was written every outer iteration, the last write is in
                // the *current* outer iteration (i-3 < i executes earlier).
                assert_eq!(ev.writer, Some((0, vec![t, i - 3])), "t={t} i={i}");
            }
        }
    }

    #[test]
    fn imperfect_nesting_static_ids() {
        // for i { A[i] = 1; for j { B[j] = A[i]; } }
        let mut p = Program::new(["N"]);
        p.declare_array("A", vec![Aff::var("N")]);
        p.declare_array("B", vec![Aff::var("N")]);
        p.body = vec![for_loop(
            "i",
            0,
            Aff::var("N") - Aff::constant(1),
            vec![
                assign(ArrayRef::new("A", vec![Aff::var("i")]), lit(1.0)),
                for_loop(
                    "j",
                    0,
                    Aff::var("N") - Aff::constant(1),
                    vec![assign(
                        ArrayRef::new("B", vec![Aff::var("j")]),
                        read("A", vec![Aff::var("i")]),
                    )],
                ),
            ],
        )];
        let env = params(&[("N", 4)]);
        let (mem, trace) = run_traced(&p, &env).unwrap();
        assert_eq!(mem.array("B").unwrap().get(&[2]).unwrap(), 1.0);
        // Every read of A[i] must be attributed to statement 0 at [i].
        for ev in &trace.reads {
            assert_eq!(ev.stmt, 1);
            assert_eq!(ev.writer, Some((0, vec![ev.iter[0]])));
        }
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut p = Program::new(["N"]);
        p.declare_array("A", vec![Aff::var("N")]);
        p.body = vec![assign(ArrayRef::new("A", vec![Aff::var("N")]), lit(0.0))];
        let env = params(&[("N", 4)]);
        match run(&p, &env) {
            Err(ExecError::OutOfBounds { array, idx }) => {
                assert_eq!(array, "A");
                assert_eq!(idx, vec![4]);
            }
            other => panic!("expected out of bounds, got {other:?}"),
        }
    }

    #[test]
    fn zero_trip_loops_and_numbering() {
        // for i = 0 to -1 { A[0] = 9; }  A[1] = 2;  — first loop never runs,
        // statement ids stay in textual order.
        let mut p = Program::new(["N"]);
        p.declare_array("A", vec![Aff::var("N")]);
        p.body = vec![
            for_loop(
                "i",
                0,
                -1,
                vec![assign(ArrayRef::new("A", vec![Aff::constant(0)]), lit(9.0))],
            ),
            assign(ArrayRef::new("A", vec![Aff::constant(1)]), lit(2.0)),
        ];
        let env = params(&[("N", 4)]);
        let (mem, trace) = run_traced(&p, &env).unwrap();
        assert_eq!(
            mem.array("A").unwrap().get(&[0]).unwrap(),
            default_init("A", &[0])
        );
        assert_eq!(mem.array("A").unwrap().get(&[1]).unwrap(), 2.0);
        assert!(trace.reads.is_empty());
    }

    #[test]
    fn intrinsic_call_is_deterministic() {
        let mut p = Program::new(["N"]);
        p.declare_array("A", vec![Aff::var("N")]);
        p.body = vec![assign(
            ArrayRef::new("A", vec![Aff::constant(0)]),
            call("f", vec![lit(1.0), lit(2.0)]),
        )];
        let env = params(&[("N", 2)]);
        let m1 = run(&p, &env).unwrap();
        let m2 = run(&p, &env).unwrap();
        assert_eq!(
            m1.array("A").unwrap().get(&[0]),
            m2.array("A").unwrap().get(&[0])
        );
    }

    /// `run` (lowered) against `run_traced` (tree walk): the same error, or
    /// the same bits in every element.
    fn assert_same(p: &Program, env: &HashMap<String, i128>) -> Result<Memory, ExecError> {
        let lowered = run(p, env);
        let walked = run_traced(p, env).map(|(mem, _)| mem);
        match (&lowered, &walked) {
            (Err(a), Err(b)) => assert_eq!(a, b, "{p}"),
            (Ok(a), Ok(b)) => {
                assert_eq!(a.arrays.len(), b.arrays.len(), "{p}");
                for (name, x) in a.iter() {
                    let y = b.array(name).expect("same arrays");
                    assert_eq!(x.extents(), y.extents(), "{name} of {p}");
                    let bits = |s: &ArrayStore| -> Vec<u64> {
                        s.as_slice().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(x), bits(y), "{name} of {p}");
                }
            }
            _ => panic!("lowered {lowered:?} but walked {walked:?} on {p}"),
        }
        lowered
    }

    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn pick<T: Copy>(&mut self, of: &[T]) -> T {
            of[self.below(of.len() as u64) as usize]
        }

        /// A bound (`subscript == false`) or a subscript: mostly `v + c`
        /// over the loops in scope, now and then a second variable, a
        /// coefficient or a parameter. A subscript is moved into the
        /// arrays' extents (`6N + 12`) eleven times in twelve and names
        /// the unbound `Q` once in forty.
        fn aff(&mut self, scope: &[&str], subscript: bool) -> Aff {
            let mut a = Aff::constant(self.pick(&[0, 0, 0, 1, 1, -1, 2]));
            if let Some(inner) = scope.last().filter(|_| self.below(8) != 0) {
                a = a + Aff::var(*inner) * self.pick(&[1, 1, 1, 1, -1, 2]);
            }
            if scope.len() > 1 && self.below(3) == 0 {
                a = a + Aff::var(scope[self.below(scope.len() as u64 - 1) as usize]);
            }
            if self.below(6) == 0 {
                a = a + Aff::var(self.pick(&["N", "M"])) * self.pick(&[1, -1]);
            }
            if subscript && self.below(12) != 0 {
                a = a + Aff::var("N") * 2 + Aff::constant(4);
            }
            if subscript && self.below(40) == 0 {
                a = a + Aff::var("Q");
            }
            a
        }

        fn array_ref(&mut self, scope: &[&str]) -> ArrayRef {
            match self.below(if scope.is_empty() { 20 } else { 60 }) {
                0 => ArrayRef::new("C", vec![self.aff(scope, true)]),
                1 => ArrayRef::new("A", vec![self.aff(scope, true), self.aff(scope, true)]),
                k if k % 2 == 0 => ArrayRef::new("A", vec![self.aff(scope, true)]),
                _ => ArrayRef::new("B", vec![self.aff(scope, true), self.aff(scope, true)]),
            }
        }

        fn expr(&mut self, scope: &[&str], depth: u32) -> ScalarExpr {
            use crate::program::BinOp::*;
            match self.below(if depth == 0 { 2 } else { 6 }) {
                0 => lit(self.below(7) as f64 * 0.375 - 1.0),
                1 => ScalarExpr::Read(self.array_ref(scope)),
                2 => ScalarExpr::Neg(Box::new(self.expr(scope, depth - 1))),
                3 => {
                    let n = self.below(4);
                    call("f", (0..n).map(|_| self.expr(scope, depth - 1)).collect())
                }
                _ => ScalarExpr::Bin(
                    self.pick(&[Add, Sub, Mul, Div]),
                    Box::new(self.expr(scope, depth - 1)),
                    Box::new(self.expr(scope, depth - 1)),
                ),
            }
        }

        /// A body at `scope`: statements, sibling loops and loops
        /// enclosing further statements, `budget` statements in all.
        fn body(&mut self, scope: &mut Vec<&'static str>, budget: &mut u32) -> Vec<Node> {
            const VARS: [&str; 3] = ["i", "j", "k"];
            let mut out = Vec::new();
            for _ in 0..1 + self.below(3) {
                if *budget == 0 {
                    break;
                }
                if scope.len() < 3 && self.below(3) != 0 {
                    // `M` as a loop variable shadows the parameter.
                    let var = if self.below(8) == 0 {
                        "M"
                    } else {
                        VARS[scope.len()]
                    };
                    let lower = self.aff(&scope[..scope.len().min(1)], false);
                    let upper = match self.below(8) {
                        0 => lower.clone() - Aff::constant(1),
                        1 | 2 if !scope.is_empty() => Aff::var(scope[0]) + Aff::constant(1),
                        _ => Aff::var("N") - Aff::constant(self.below(2) as i128),
                    };
                    scope.push(var);
                    let inner = self.body(scope, budget);
                    scope.pop();
                    out.push(for_loop(var, lower, upper, inner));
                } else {
                    *budget -= 1;
                    let write = self.array_ref(scope);
                    out.push(assign(write, self.expr(scope, 3)));
                }
            }
            out
        }
    }

    #[test]
    fn lowered_run_equals_tree_walk() {
        let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
        let (mut ok, mut oob, mut undeclared, mut unbound, mut instances) = (0, 0, 0, 0, 0usize);
        for _ in 0..3_000 {
            let mut p = Program::new(["N", "M"]);
            let extent = Aff::var("N") * 6 + Aff::constant(12);
            p.declare_array("A", vec![extent.clone()]);
            p.declare_array("B", vec![extent.clone(), extent + Aff::constant(1)]);
            let mut budget = 1 + rng.below(3) as u32;
            p.body = rng.body(&mut Vec::new(), &mut budget);
            let env = params(&[("N", 2 + rng.below(4) as i128), ("M", rng.below(3) as i128)]);
            match assert_same(&p, &env) {
                Ok(_) => {
                    ok += 1;
                    instances += run_traced(&p, &env).expect("ran").1.reads.len();
                }
                Err(ExecError::OutOfBounds { .. }) => oob += 1,
                Err(ExecError::UndeclaredArray(_)) => undeclared += 1,
                Err(ExecError::UnboundParam(_)) => unbound += 1,
                Err(e) => panic!("no value drawn overflows, but {e}"),
            }
        }
        // Every outcome is drawn often enough to mean something.
        assert!(
            ok > 300 && instances > 10_000,
            "{ok} ran, {instances} reads"
        );
        assert!(oob > 300, "{oob} out of bounds");
        assert!(undeclared > 20 && unbound > 20, "{undeclared} / {unbound}");
    }

    /// Subscript, bound and extent arithmetic is checked on both sides:
    /// `2^126 · 4` is an overflow, not a write of `A[0]`.
    #[test]
    fn overflowing_arithmetic_is_an_error_not_a_wrap() {
        let big = 1i128 << 126;
        let check = |text: &str| {
            let text = format!("param N; array A[4]; {text}");
            let env = params(&[("N", 4)]);
            assert_same(&crate::parse(&text).expect("parses"), &env)
        };
        let array = |a: &str| {
            Err(ExecError::ArrayOverflow {
                array: a.to_owned(),
            })
        };
        let var = |v: &str| Err(ExecError::LoopOverflow { var: v.to_owned() });
        assert_eq!(
            check(&format!("for i = 4 to 4 {{ A[{big} * i] = 7.0; }}")),
            array("A")
        );
        // A range whose end overflows fails at its first instance outside.
        assert_eq!(
            check(&format!("for i = 0 to 4 {{ A[{big} * i] = 7.0; }}")),
            Err(ExecError::OutOfBounds {
                array: "A".to_owned(),
                idx: vec![big],
            })
        );
        assert_eq!(check(&format!("A[0] = A[{big} * N];")), array("A"));
        assert_eq!(
            check(&format!("for i = 0 to {big} * N {{ A[0] = 1.0; }}")),
            var("i")
        );
        assert_eq!(
            check(&format!(
                "for i = 3 to 4 {{ for j = 0 to {big} * i {{ A[0] = 1.0; }} }}"
            )),
            var("j")
        );
        assert_eq!(check(&format!("array C[{big} * N];")), array("C"));
        // `2^64 · 2^64` elements: the product, not an extent, overflows.
        let side = 1i128 << 64;
        assert_eq!(check(&format!("array C[{side}][{side}];")), array("C"));
    }

    #[test]
    fn errors_are_raised_where_the_tree_walk_raises_them() {
        let env = params(&[("N", 4)]);
        let check = |body: &str| {
            let text = format!("param N, M; array A[N]; array B[N][N]; {body}");
            assert_same(&crate::parse(&text).expect("parses"), &env)
        };
        let oob = |array: &str, idx: &[i128]| {
            Err(ExecError::OutOfBounds {
                array: array.to_owned(),
                idx: idx.to_vec(),
            })
        };
        // The first failing instance in execution order, not the range's end.
        assert_eq!(check("for i = 0 to 9 { A[i] = 1.0; }"), oob("A", &[4]));
        assert_eq!(check("for i = 0 to 9 { A[3 - i] = 1.0; }"), oob("A", &[-1]));
        // Within an instance: reads in evaluation order, then the write.
        assert_eq!(
            check("for i = 3 to 4 { A[i + 1] = A[i + 2] - A[i + 3]; }"),
            oob("A", &[5])
        );
        assert_eq!(
            check("for i = 3 to 4 { A[i + 1] = f(1.0, A[i]); }"),
            oob("A", &[4])
        );
        // A wrong number of subscripts is out of bounds at its instance.
        assert_eq!(check("for i = 2 to 3 { A[i] = B[i]; }"), oob("B", &[2]));
        // Subscripts are evaluated before the array is looked up, and an
        // earlier read's bounds before a later read's names.
        let unbound = |v: &str| Err(ExecError::UnboundParam(v.to_owned()));
        let undeclared = |a: &str| Err(ExecError::UndeclaredArray(a.to_owned()));
        assert_eq!(check("A[0] = C[M];"), unbound("M"));
        assert_eq!(check("A[0] = C[1];"), undeclared("C"));
        assert_eq!(check("C[M] = A[0];"), unbound("M"));
        assert_eq!(check("A[0] = A[7] + C[M];"), oob("A", &[7]));
        assert_eq!(check("A[0] = C[0] + A[7];"), undeclared("C"));
        // A loop bound: lower first, on reaching the loop.
        assert_eq!(check("for i = M to Q { A[0] = 1.0; }"), unbound("M"));
        assert_eq!(
            check("A[9] = 1.0; for i = 0 to M { A[0] = 1.0; }"),
            oob("A", &[9])
        );
        // Nothing inside a zero-trip loop is evaluated.
        for hidden in [
            "C[0] = 1.0;",
            "A[M] = 1.0;",
            "A[0] = A[9];",
            "for j = 0 to M { A[0] = 1.0; }",
        ] {
            assert!(
                check(&format!("for i = 1 to 0 {{ {hidden} }}")).is_ok(),
                "{hidden}"
            );
            assert!(
                check(&format!("for i = 0 to 0 {{ {hidden} }}")).is_err(),
                "{hidden}"
            );
        }
        // A loop variable shadows a parameter, and an inner loop an outer.
        assert!(check("for N = 0 to N - 1 { A[N] = 2.0; }").is_ok());
        assert!(check("for M = 0 to 3 { for M = M to 3 { B[M][M] = B[M][M] / 3.0; } }").is_ok());
    }
}
