//! Strips against instances. `dmc_ir::interp::run` and the values-mode
//! simulator run a range of instances that cannot see one another's writes
//! in strips, op by op over columns (`dmc_ir::lower`). These checks hold the
//! strips, bit for bit, to the tree walk of `interp::run_traced` and the
//! values-mode run to the interpreter, on random single-statement nests,
//! on named cases of the strip rule and on carried reads (which a strip
//! takes from its own values); and they pin the first `MissingValue` a
//! values-mode LU run reports when a receive or a payload row is dropped,
//! and a values-mode stencil run when a halo receive is dropped, and the
//! known gap of a stale copy that values mode reads without error.

use std::collections::{BTreeMap, HashMap};

use dmc_core::{build_schedule, compile, CompileInput, Options};
use dmc_decomp::{CompDecomp, DataDecomp, ProcGrid};
use dmc_ir::builder::{assign, call, for_loop, lit};
use dmc_ir::interp::{self, Memory};
use dmc_ir::{Aff, ArrayRef, BinOp, Program, ScalarExpr};
use dmc_machine::{simulate, Action, InitialPlacement, MachineConfig, Schedule, SimError};

const LIMIT: usize = 2_000_000;

/// Every element of every array, as bits.
fn bits(mem: &Memory) -> BTreeMap<String, Vec<u64>> {
    mem.iter()
        .map(|(name, store)| {
            let bits = store.as_slice().iter().map(|v| v.to_bits()).collect();
            (name.to_owned(), bits)
        })
        .collect()
}

/// `run` ≡ `run_traced` on `program` at `N = n`, bit for bit; returns the
/// memory.
fn interpreted(what: &str, program: &Program, n: i128) -> Memory {
    interpreted_at(what, program, &HashMap::from([("N".to_owned(), n)]))
}

/// `run` ≡ `run_traced` on `program` under `env`, bit for bit; returns the
/// memory.
fn interpreted_at(what: &str, program: &Program, env: &HashMap<String, i128>) -> Memory {
    let run = interp::run(program, env).unwrap_or_else(|e| panic!("{what}: {e}"));
    let (walked, _) = interp::run_traced(program, env).expect("the tree walk agrees");
    assert_eq!(bits(&run), bits(&walked), "{what}: run against run_traced");
    run
}

/// The values-mode run of `program` with statement 0's loop `var` in
/// blocks of `block` on three processors equals the interpreter's memory
/// bit for bit. Returns whether the plan compiled.
fn simulated(what: &str, program: &Program, var: &str, block: i128, n: i128) -> bool {
    let input = CompileInput {
        program: program.clone(),
        comps: BTreeMap::from([(0, CompDecomp::block_1d(0, var, block))]),
        initial: HashMap::new(),
        grid: ProcGrid::line(3),
    };
    let Ok(compiled) = compile(input, Options::full()) else {
        return false;
    };
    let cfg = MachineConfig::ipsc860();
    let result =
        dmc_core::run(&compiled, &[n], &cfg, true, LIMIT).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mem = result.memory.expect("values mode");
    assert_eq!(
        bits(&mem),
        bits(&interpreted(what, program, n)),
        "{what}: simulator against interpreter"
    );
    true
}

struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    /// A number in `lo..=hi`.
    fn within(&mut self, lo: i128, hi: i128) -> i128 {
        lo + self.below((hi - lo + 1) as u64) as i128
    }
}

/// Loop values lie in `0..=7`, so `a·v + c + 17` with `a ∈ [−2, 2]`,
/// `c ∈ [−3, 3]` lies in `0..=34`: every drawn subscript is inside.
const EXTENT: i128 = 35;

/// A reference to `A`, `C` (one dimension) or `B` (two), each subscript
/// `a·v + c` over one of `vars`.
fn array_ref(rng: &mut XorShift, array: Option<&str>, vars: &[&str]) -> ArrayRef {
    let array = array.unwrap_or(["A", "B", "C"][rng.below(3) as usize]);
    let dims = if array == "B" { 2 } else { 1 };
    let idx = (0..dims)
        .map(|_| {
            let v = vars[rng.below(vars.len() as u64) as usize];
            Aff::var(v) * rng.within(-2, 2) + Aff::constant(rng.within(-3, 3) + 17)
        })
        .collect();
    ArrayRef::new(array, idx)
}

/// A right-hand side: reads (of the written array one time in two), in
/// place or not, literals, the four operators, negation and `f(…)`.
fn expr(rng: &mut XorShift, write: &str, vars: &[&str], depth: u32) -> ScalarExpr {
    match rng.below(if depth == 0 { 3 } else { 7 }) {
        0 => lit(rng.below(5) as f64 * 0.75 - 1.0),
        1 => ScalarExpr::Read(array_ref(rng, Some(write), vars)),
        2 => ScalarExpr::Read(array_ref(rng, None, vars)),
        3 => ScalarExpr::Neg(Box::new(expr(rng, write, vars, depth - 1))),
        4 => {
            let args = (0..rng.below(4)).map(|_| expr(rng, write, vars, depth - 1));
            call("f", args.collect())
        }
        _ => ScalarExpr::Bin(
            [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][rng.below(4) as usize],
            Box::new(expr(rng, write, vars, depth - 1)),
            Box::new(expr(rng, write, vars, depth - 1)),
        ),
    }
}

/// One statement in a nest of one or two loops over `0..=7` (bounds
/// drawn inside that).
fn nest(rng: &mut XorShift) -> Program {
    let mut p = Program::new(["N"]);
    p.declare_array("A", vec![Aff::constant(EXTENT)]);
    p.declare_array("B", vec![Aff::constant(EXTENT), Aff::constant(EXTENT)]);
    p.declare_array("C", vec![Aff::constant(EXTENT)]);
    let vars: &[&str] = if rng.below(2) == 0 {
        &["i"]
    } else {
        &["i", "j"]
    };
    let write = array_ref(rng, None, vars);
    let rhs = expr(rng, &write.array.clone(), vars, 3);
    let mut body = vec![assign(write, rhs)];
    for v in vars.iter().rev() {
        body = vec![for_loop(*v, rng.within(0, 2), rng.within(5, 7), body)];
    }
    p.body = body;
    p
}

#[test]
fn strips_equal_instances_on_random_nests() {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let (mut nests, mut planned) = (0, 0);
    for k in 0..150 {
        let program = nest(&mut rng);
        let what = format!("nest {k}: {program}");
        interpreted(&what, &program, 0);
        nests += 1;
        planned += usize::from(simulated(&what, &program, "i", 3, 0));
    }
    assert!(planned * 2 > nests, "{planned} of {nests} nests planned");
}

/// The distance rule's cases, each run on `A[120]`, `B[120]` over
/// `i = 3 … 36` and held to the tree walk and to a values-mode run with `i`
/// in blocks of 12.
#[test]
fn the_distance_rule_cases_equal_instances() {
    let cases = [
        ("distance 1", "A[i] = A[i - 1] * 0.5 + B[i];"),
        ("distance 2", "A[i] = A[i - 2] * 0.5 + B[i];"),
        ("distance 3", "A[i] = f(A[i - 3], A[i]) - B[i];"),
        ("in place", "A[i] = A[i] * A[i] - B[i];"),
        ("no dependence", "A[i] = A[i + 2] / 3.0 + A[i];"),
        ("cross-array", "B[i] = A[i - 3] * A[i + 3];"),
        ("stride-0 read and write of one slot", "A[1] = A[1] + B[i];"),
        ("stride-0 write", "A[1] = A[i] + B[i];"),
        ("negative strides", "A[39 - i] = A[41 - i] * 0.25 + 1.0;"),
        ("unequal overlapping strides", "A[2 * i] = A[i] + 1.0;"),
        ("unequal strides apart", "A[i] = A[2 * i + 40] - A[1];"),
    ];
    for (what, stmt) in cases {
        let text = format!("param N; array A[120]; array B[120]; for i = 3 to 36 {{ {stmt} }}");
        let program = dmc_ir::parse(&text).unwrap_or_else(|e| panic!("{what}: {e:?}"));
        assert!(simulated(what, &program, "i", 12, 0), "{what} plans");
    }
}

/// Carried reads — a read of the element written `d` instances earlier,
/// which a strip takes from its own values — on `A[120]`, `B[120]` over
/// `i = 3 … 36` (`N = 40`), each held to the tree walk and to a
/// values-mode run with `i` in blocks of 12: the carry on either side of
/// an operator, beside an anti-dependent read, at distance 2, at a
/// distance that cuts the strips, twice in one product, under negation
/// and inside `f(…)`, along a reversed subscript, and carrying NaN and
/// −0.0.
#[test]
fn carried_reads_equal_instances() {
    let cases = [
        ("a reduction", "A[0] = A[0] + B[i];"),
        ("the carry as the left operand", "A[i] = A[i - 1] * 0.75;"),
        (
            "the carry as the right operand, beside an anti-dependent read",
            "A[i] = A[i + 1] - A[i - 1];",
        ),
        ("distance 2", "A[i] = A[i - 2] + A[i + 3];"),
        ("distance 5, strips of 5", "A[i + 5] = A[i] * 0.5 + B[i];"),
        ("distances 1 and 6", "A[i + 6] = A[i] - A[i + 5];"),
        ("two carried reads", "A[i] = A[i - 1] * A[i - 1];"),
        ("a carry under negation", "A[i] = -A[i - 1] + B[i];"),
        ("a carry inside f", "A[i] = f(B[i], A[i - 1], 0.5) * 0.75;"),
        (
            "two carries inside f",
            "A[i] = f(A[i - 2], B[i] - A[i - 1], A[i + 1]);",
        ),
        ("a reversed subscript", "A[N - i] = A[N - i + 1] + 1.0;"),
        ("a NaN operand", "A[i] = A[i - 1] * (0.0 / 0.0) + B[i];"),
        ("−0.0 operands", "A[i] = A[i - 1] * -0.0 + -0.0;"),
    ];
    for (what, stmt) in cases {
        let text = format!("param N; array A[120]; array B[120]; for i = 3 to 36 {{ {stmt} }}");
        let program = dmc_ir::parse(&text).unwrap_or_else(|e| panic!("{what}: {e:?}"));
        assert!(simulated(what, &program, "i", 12, 40), "{what} plans");
    }
}

/// The relaxation stencil `X[i] = c · (X[i] + X[i − 1] + X[i + 1])`, an
/// in-place recurrence with a carried read, in blocks of 8 on three
/// processors, each of which starts with its block of `X` only.
fn stencil_input() -> CompileInput {
    let program = dmc_ir::parse(
        "param T, N; array X[N + 1];
         for t = 0 to T { for i = 1 to N - 1 { X[i] = 0.25 * (X[i] + X[i - 1] + X[i + 1]); } }",
    )
    .expect("the stencil parses");
    CompileInput {
        program,
        comps: BTreeMap::from([(0, CompDecomp::block_1d(0, "i", 8))]),
        initial: HashMap::from([("X".to_string(), DataDecomp::block_1d("X", 1, 0, 8))]),
        grid: ProcGrid::line(3),
    }
}

/// A values-mode stencil run (T = 3, N = 23) missing one of processor
/// 1's first two halo receives reports the element execution order first
/// misses: `X[7]` at the block's first element (the carried read's first
/// slot), `X[16]` at its last. Both errors were recorded before strips
/// carried reads.
/// The stencil's values-mode plan at T = 3, N = 23, checked whole against
/// the interpreter, and a values-mode run of any schedule of it.
struct StencilRun {
    program: Program,
    env: HashMap<String, i128>,
    grid: ProcGrid,
    initial: InitialPlacement,
    schedule: Schedule,
    /// The interpreter's memory.
    want: Memory,
}

impl StencilRun {
    fn new() -> Self {
        let input = stencil_input();
        let program = input.program.clone();
        let initial = InitialPlacement::Owned(input.initial.clone());
        let grid = input.grid.clone();
        let compiled = compile(input, Options::full()).expect("the stencil compiles");
        let schedule = build_schedule(&compiled, &[3, 23], true, LIMIT).expect("the stencil plans");
        let env = HashMap::from([("T".to_owned(), 3), ("N".to_owned(), 23)]);
        let want = interpreted_at("the stencil", &program, &env);
        let run = StencilRun {
            program,
            env,
            grid,
            initial,
            schedule,
            want,
        };
        let full = run.simulate(&run.schedule).expect("the whole plan runs");
        assert_eq!(bits(&full), bits(&run.want));
        run
    }

    fn simulate(&self, schedule: &Schedule) -> Result<Memory, SimError> {
        let cfg = MachineConfig::ipsc860();
        simulate(
            &self.program,
            &self.env,
            &self.grid,
            schedule,
            &cfg,
            &self.initial,
            true,
        )
        .map(|r| r.memory.expect("values mode"))
    }

    /// Each receive of the plan as (processor, action index).
    fn receives(&self) -> Vec<(usize, usize)> {
        (self.schedule.procs.iter().enumerate())
            .flat_map(|(p, actions)| {
                (0..actions.len())
                    .filter(|&a| matches!(actions[a], Action::Recv { .. }))
                    .map(move |a| (p, a))
            })
            .collect()
    }

    /// The plan without the given receive.
    fn without(&self, (p, a): (usize, usize)) -> Schedule {
        let mut dropped = self.schedule.clone();
        dropped.procs[p].remove(a);
        dropped
    }
}

#[test]
fn a_dropped_halo_receive_misses_the_same_element() {
    let run = StencilRun::new();
    let missing = |proc, i| SimError::MissingValue {
        proc,
        array: "X".into(),
        idx: vec![i],
        stmt: 0,
    };
    let recvs: Vec<(usize, usize)> = (run.receives().into_iter())
        .filter(|&(p, _)| p == 1)
        .collect();
    for (nth, want) in [(0, missing(1, 7)), (1, missing(1, 16))] {
        let got = (run.simulate(&run.without(recvs[nth]))).expect_err("a value is missing");
        assert_eq!(got, want, "receive {nth} of processor 1 dropped");
    }
}

/// A known gap: values mode refuses a read only of an element a processor
/// holds no copy of, and reads a stale copy without error. Dropping each
/// of the stencil plan's 16 receives in turn, 4 runs fail with
/// `MissingValue` (processor 0's first receive, processor 1's first two,
/// processor 2's first) and the other 12 return `Ok` with a memory that
/// differs from the interpreter's: only that comparison shows the plan
/// short. Without processor 1's last receive, `X[15..=22]` come out
/// wrong. A simulator that refused stale reads would flip this test.
#[test]
fn known_gap_a_stale_copy_passes_values_mode() {
    let run = StencilRun::new();
    let want = run.want.array("X").expect("X").as_slice().to_vec();
    let receives = run.receives();
    let (mut refused, mut wrong) = (Vec::new(), Vec::new());
    for &(p, a) in &receives {
        let nth = receives.iter().filter(|r| r.0 == p && r.1 < a).count();
        match run.simulate(&run.without((p, a))) {
            Err(SimError::MissingValue { .. }) => refused.push((p, nth)),
            Err(e) => panic!("receive {nth} of processor {p} dropped: {e}"),
            Ok(got) => {
                let got = got.array("X").expect("X").as_slice().to_vec();
                let moved: Vec<usize> = (0..want.len())
                    .filter(|&i| got[i].to_bits() != want[i].to_bits())
                    .collect();
                wrong.push(((p, nth), moved));
            }
        }
    }
    assert_eq!(receives.len(), 16);
    assert_eq!(refused, [(0, 0), (1, 0), (1, 1), (2, 0)]);
    assert_eq!(wrong.len(), 12);
    assert!(
        wrong.iter().all(|(_, moved)| !moved.is_empty()),
        "{wrong:?}"
    );
    let last_of_p1 = receives.iter().filter(|r| r.0 == 1).count() - 1;
    let (_, moved) = (wrong.iter())
        .find(|(at, _)| *at == (1, last_of_p1))
        .expect("processor 1's last receive runs without error");
    assert_eq!(*moved, (15..=22).collect::<Vec<usize>>());
}

/// Figure 11's LU kernel with the paper's cyclic decomposition.
fn lu_input(nproc: i128) -> CompileInput {
    let program = dmc_ir::parse(
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
    .expect("LU parses");
    CompileInput {
        program,
        comps: BTreeMap::from([
            (0, CompDecomp::cyclic_1d(0, "i2")),
            (1, CompDecomp::cyclic_1d(1, "i2")),
        ]),
        initial: HashMap::from([("X".to_string(), DataDecomp::cyclic_1d("X", 2, 0))]),
        grid: ProcGrid::line(nproc),
    }
}

/// A values-mode LU run (N = 24, P = 4) missing one receive, or one row
/// of a payload, reports the element execution order first misses: the
/// last row's element is the end of a strip's reads, the middle row's the
/// thirteenth of a strip of 24 (both statement 1, whose rows run in
/// strips), and the receive's is statement 0's first read.
#[test]
fn a_dropped_receive_or_payload_row_misses_the_same_element() {
    let input = lu_input(4);
    let program = input.program.clone();
    let initial = InitialPlacement::Owned(input.initial.clone());
    let grid = input.grid.clone();
    let compiled = compile(input, Options::full()).expect("LU compiles");
    let schedule = build_schedule(&compiled, &[24], true, LIMIT).expect("LU plans");
    let env = HashMap::from([("N".to_owned(), 24)]);
    let run = |schedule| {
        let cfg = MachineConfig::ipsc860();
        simulate(&program, &env, &grid, schedule, &cfg, &initial, true)
            .expect_err("a value is missing")
    };
    let missing = |idx: [i128; 2], stmt| SimError::MissingValue {
        proc: 1,
        array: "X".into(),
        idx: idx.to_vec(),
        stmt,
    };

    let mut dropped = schedule.clone();
    let recv = dropped.procs[1]
        .iter()
        .position(|a| matches!(a, Action::Recv { .. }))
        .expect("processor 1 receives");
    dropped.procs[1].remove(recv);
    assert_eq!(run(&dropped), missing([0, 0], 0));

    // The last row of the first payload of two rows, the middle row of the
    // longest.
    let mut dropped = schedule.clone();
    let payload = dropped
        .messages
        .iter_mut()
        .filter_map(|m| m.payload.as_mut())
        .find(|p| p.len() > 1)
        .expect("a payload of two rows");
    payload.rows.truncate(payload.rows.len() - payload.width);
    assert_eq!(run(&dropped), missing([4, 24], 1));

    let mut dropped = schedule.clone();
    let payload = dropped
        .messages
        .iter_mut()
        .filter_map(|m| m.payload.as_mut())
        .max_by_key(|p| p.len())
        .expect("a payload");
    assert_eq!(payload.len(), 24);
    let middle = payload.len() / 2 * payload.width;
    payload.rows.drain(middle..middle + payload.width);
    assert_eq!(run(&dropped), missing([0, 13], 1));
}
