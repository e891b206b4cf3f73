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
use std::fmt;

use crate::aff::Aff;
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
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds { array, idx } => {
                write!(f, "subscript {idx:?} out of bounds for array {array}")
            }
            ExecError::UndeclaredArray(a) => write!(f, "array {a} was not declared"),
            ExecError::UnboundParam(p) => write!(f, "parameter {p} has no value"),
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
    /// unbound parameter.
    pub fn allocate(program: &Program, params: &HashMap<String, i128>) -> Result<Self, ExecError> {
        let mut mem = Memory::default();
        for a in &program.arrays {
            let mut extents = Vec::with_capacity(a.extents.len());
            for e in &a.extents {
                extents.push(eval_aff(e, &|v| params.get(v).copied(), params)?);
            }
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
pub fn eval_intrinsic(args: &[f64]) -> f64 {
    let mut acc = 0.25;
    let mut w = 0.618;
    for &a in args {
        acc += a * w;
        w *= 0.618;
    }
    acc
}

fn eval_aff(
    e: &Aff,
    lookup: &dyn Fn(&str) -> Option<i128>,
    params: &HashMap<String, i128>,
) -> Result<i128, ExecError> {
    let mut acc = e.constant_term();
    for (v, c) in e.terms() {
        let val = lookup(v)
            .or_else(|| params.get(v).copied())
            .ok_or_else(|| ExecError::UnboundParam(v.to_owned()))?;
        acc += c * val;
    }
    Ok(acc)
}

struct Interp<'a> {
    params: &'a HashMap<String, i128>,
    mem: Memory,
    env: Vec<(String, i128)>,
    trace: Option<Trace>,
    last_writer: HashMap<(String, Vec<i128>), WriterId>,
}

impl Interp<'_> {
    fn lookup(&self, v: &str) -> Option<i128> {
        self.env.iter().rev().find(|(n, _)| n == v).map(|&(_, x)| x)
    }

    fn subscripts(&self, r: &ArrayRef) -> Result<Vec<i128>, ExecError> {
        r.idx
            .iter()
            .map(|a| eval_aff(a, &|v| self.lookup(v), self.params))
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
        if let Some(t) = &mut self.trace {
            let writer = self
                .last_writer
                .get(&(r.array.clone(), idx.clone()))
                .cloned();
            t.reads.push(ReadEvent {
                stmt,
                iter: iter.to_vec(),
                read_no,
                array: r.array.clone(),
                idx,
                writer,
            });
        }
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
                Ok(eval_intrinsic(&vals))
            }
        }
    }
}

/// Runs `program` sequentially with the given parameter values and returns
/// the final memory.
///
/// # Errors
///
/// Propagates [`ExecError`] on out-of-bounds accesses or unbound names.
pub fn run(program: &Program, params: &HashMap<String, i128>) -> Result<Memory, ExecError> {
    Ok(run_impl(program, params, false)?.0)
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
    let (mem, trace) = run_impl(program, params, true)?;
    Ok((mem, trace.expect("tracing was enabled")))
}

fn run_impl(
    program: &Program,
    params: &HashMap<String, i128>,
    traced: bool,
) -> Result<(Memory, Option<Trace>), ExecError> {
    let mem = Memory::allocate(program, params)?;
    let mut interp = Interp {
        params,
        mem,
        env: Vec::new(),
        trace: traced.then(Trace::default),
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
                let lo = eval_aff(&l.lower, &|v| interp.lookup(v), interp.params)?;
                let hi = eval_aff(&l.upper, &|v| interp.lookup(v), interp.params)?;
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
                if interp.trace.is_some() {
                    interp
                        .last_writer
                        .insert((s.write.array.clone(), idx), (stmt_id, iter));
                }
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
}
