//! The seeded corpus of small programs behind `symbolic_corpus`,
//! `store_cold` and `store_warm`, and the two fixed kernels (Figure 11 LU,
//! the relaxation stencil) behind `lu_plan` and `verify_values`.
//!
//! A corpus request is one of six program families × a block or cyclic
//! computation decomposition × a processor count × an option set, at tiny
//! concrete parameters (N ≈ block · P). About a quarter of the requests
//! are *variants* of an earlier one — the same program on another grid, or
//! the same shape with another right-hand-side constant — so a `Session`
//! sees the stage reuse it exists for.
//!
//! What the seed decides. The *shapes* (family, decomposition, P, options,
//! which requests are variants of which) are drawn once from
//! [`SHAPE_SEED`], a constant: `sim_makespan_ns` and `plan_words` are
//! exact metrics, so they must not move with `--seed`. The seed draws what
//! the plan does not depend on: every program's floating-point constants
//! (so source text, fingerprints, store keys and computed values all
//! differ between seeds) and the order in which requests are served.

use std::collections::{BTreeMap, HashMap};

use dmc_core::{CompileInput, Options};
use dmc_decomp::{CompDecomp, DataDecomp, ProcGrid};
use dmc_ir::Program;

/// xorshift64* — small, fast, good enough to draw a corpus.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // splitmix64 step: decorrelates small seeds and never yields the
        // all-zero state xorshift cannot leave.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n` small; modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }

    /// A constant in 0.125..0.325 with three decimals, as source text
    /// (three of them sum below one, so stencil sweeps stay bounded).
    fn constant(&mut self) -> String {
        format!("0.{:03}", 125 + self.below(200))
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for k in (1..items.len()).rev() {
            items.swap(k, self.below(k + 1));
        }
    }
}

/// The constant that draws the corpus shapes; see the module docs.
const SHAPE_SEED: u64 = 0x1993_0611;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    /// Figure 2: `X[i] = c * X[i - k]`, k = `variant`.
    Shift,
    /// Figure 8: the uniformly generated group `f(X[i], …, X[i - 3])`.
    Group,
    /// 3-point stencil with stride `variant`.
    Stencil,
    /// Transpose read `B[i][j] = c * A[j][i]`: a dense initial
    /// redistribution (Theorem 4).
    Transpose,
    /// Figure 11 LU.
    Lu,
    /// Triangular forward substitution.
    TriSolve,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dist {
    Block(i128),
    Cyclic,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OptSet {
    Full,
    Naive,
    LocationCentric,
}

/// Everything about a request that the plan depends on.
#[derive(Clone, Copy, Debug)]
struct Shape {
    family: Family,
    /// Shift distance (1..=3) or stencil stride (1..=2); unused elsewhere.
    variant: i128,
    dist: Dist,
    nproc: i128,
    opts: OptSet,
    /// Requests with equal `program` share their source text: a grid
    /// variant keeps its base's id, a constant variant gets a fresh one.
    program: usize,
}

impl Family {
    /// Families the location-centric baseline is drawn for: it needs
    /// initial data decompositions, and on LU its values-mode result does
    /// not match the interpreter (see README, "Inputs left out").
    fn location_centric(self) -> bool {
        self == Family::Transpose
    }

    /// Largest N the family is run at: keeps every request "small" even at
    /// block 32 × P 8 (LU and the triangular solve are O(N³) / O(N²)).
    fn max_n(self) -> i128 {
        match self {
            Family::Lu => 19,
            Family::TriSolve => 39,
            Family::Transpose => 23,
            Family::Shift | Family::Group | Family::Stencil => 255,
        }
    }
}

fn draw_shape(rng: &mut Rng, program: usize) -> Shape {
    let family = rng.pick(&[
        Family::Shift,
        Family::Group,
        Family::Stencil,
        Family::Transpose,
        Family::Lu,
        Family::TriSolve,
    ]);
    let variant = match family {
        Family::Shift => 1 + rng.below(3) as i128,
        Family::Stencil => 1 + rng.below(2) as i128,
        _ => 0,
    };
    let dist = rng.pick(&[
        Dist::Block(4),
        Dist::Block(8),
        Dist::Block(16),
        Dist::Block(32),
        Dist::Cyclic,
    ]);
    let nproc = rng.pick(&[2, 3, 4, 6, 8]);
    let mut opts = rng.pick(&[
        OptSet::Full,
        OptSet::Full,
        OptSet::Naive,
        OptSet::LocationCentric,
    ]);
    if opts == OptSet::LocationCentric && !family.location_centric() {
        opts = OptSet::Full;
    }
    Shape {
        family,
        variant,
        dist,
        nproc,
        opts,
        program,
    }
}

/// The first `n` corpus shapes. A prefix of a longer corpus is the same
/// list, so `store_*` serve exactly the first requests of
/// `symbolic_corpus`.
fn shapes(n: usize) -> Vec<Shape> {
    let mut rng = Rng::new(SHAPE_SEED);
    let mut out: Vec<Shape> = Vec::with_capacity(n);
    let mut programs = 0;
    while out.len() < n {
        let fresh = |programs: &mut usize| {
            *programs += 1;
            *programs - 1
        };
        let shape = if !out.is_empty() && rng.below(4) == 0 {
            let mut shape = out[rng.below(out.len())];
            if rng.below(2) == 0 {
                // Grid variant: same program, another processor count.
                let others: Vec<i128> = [2, 3, 4, 6, 8]
                    .into_iter()
                    .filter(|&p| p != shape.nproc)
                    .collect();
                shape.nproc = rng.pick(&others);
            } else {
                // Constant variant: same shape, another program text.
                shape.program = fresh(&mut programs);
            }
            shape
        } else {
            let program = fresh(&mut programs);
            draw_shape(&mut rng, program)
        };
        out.push(shape);
    }
    out
}

/// One request as the harness serves it: source text plus everything
/// `CompileInput` needs besides the parsed program.
#[derive(Clone, Debug)]
pub struct Request {
    /// Position in the unshuffled corpus: identifies the shape, so
    /// anything keyed by it is the same for every seed.
    pub shape_index: usize,
    pub label: String,
    pub source: String,
    pub comps: BTreeMap<usize, CompDecomp>,
    pub initial: HashMap<String, DataDecomp>,
    pub nproc: i128,
    pub options: Options,
    pub params: Vec<i128>,
}

impl Request {
    pub fn input(&self, program: Program) -> CompileInput {
        CompileInput {
            program,
            comps: self.comps.clone(),
            initial: self.initial.clone(),
            grid: ProcGrid::line(self.nproc),
        }
    }

    /// Parameter bindings by name, as the interpreter takes them.
    pub fn env(&self, program: &Program) -> HashMap<String, i128> {
        program
            .params
            .iter()
            .cloned()
            .zip(self.params.iter().copied())
            .collect()
    }
}

pub const LU_SOURCE: &str = "param N; array X[N + 1][N + 1];
for i1 = 0 to N {
  for i2 = i1 + 1 to N {
    X[i2][i1] = X[i2][i1] / X[i1][i1];
    for i3 = i1 + 1 to N {
      X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
    }
  }
}
";

fn comp(stmt: usize, var: &str, dist: Dist) -> CompDecomp {
    match dist {
        Dist::Block(b) => CompDecomp::block_1d(stmt, var, b),
        Dist::Cyclic => CompDecomp::cyclic_1d(stmt, var),
    }
}

fn data(array: &str, ndim: usize, dist: Dist) -> DataDecomp {
    match dist {
        Dist::Block(b) => DataDecomp::block_1d(array, ndim, 0, b),
        Dist::Cyclic => DataDecomp::cyclic_1d(array, ndim, 0),
    }
}

fn materialize(shape_index: usize, shape: &Shape, c: &str) -> Request {
    // N ≈ block · P: every processor owns one block (three elements when
    // cyclic), capped per family.
    let per_proc = match shape.dist {
        Dist::Block(b) => b,
        Dist::Cyclic => 3,
    };
    let n = (per_proc * shape.nproc - 1).min(shape.family.max_n());
    let k = shape.variant;
    let mut comps = BTreeMap::new();
    let mut initial = HashMap::new();
    let (source, params) = match shape.family {
        Family::Shift => {
            comps.insert(0, comp(0, "i", shape.dist));
            (
                format!(
                    "param T, N; array X[N + 1];
for t = 0 to T {{ for i = {k} to N {{ X[i] = {c} * X[i - {k}]; }} }}\n"
                ),
                vec![2, n],
            )
        }
        Family::Group => {
            comps.insert(0, comp(0, "i", shape.dist));
            (
                format!(
                    "param T, N; array X[N + 1];
for t = 0 to T {{ for i = 3 to N {{ X[i] = {c} * f(X[i], X[i - 1], X[i - 2], X[i - 3]); }} }}\n"
                ),
                vec![2, n],
            )
        }
        Family::Stencil => {
            comps.insert(0, comp(0, "i", shape.dist));
            (
                format!(
                    "param T, N; array X[N + 1];
for t = 0 to T {{ for i = {k} to N - {k} {{ X[i] = {c} * (X[i] + X[i - {k}] + X[i + {k}]); }} }}\n"
                ),
                vec![2, n],
            )
        }
        Family::Transpose => {
            comps.insert(0, comp(0, "i", shape.dist));
            initial.insert("A".to_owned(), data("A", 2, shape.dist));
            (
                format!(
                    "param N; array A[N][N]; array B[N][N];
for i = 0 to N - 1 {{ for j = 0 to N - 1 {{ B[i][j] = {c} * A[j][i]; }} }}\n"
                ),
                vec![n + 1],
            )
        }
        Family::Lu => {
            comps.insert(0, comp(0, "i2", shape.dist));
            comps.insert(1, comp(1, "i2", shape.dist));
            initial.insert("X".to_owned(), data("X", 2, shape.dist));
            // LU has no constant to draw; a comment keeps constant
            // variants textually distinct.
            (format!("# {c}\n{LU_SOURCE}"), vec![n])
        }
        Family::TriSolve => {
            comps.insert(0, comp(0, "i", shape.dist));
            (
                format!(
                    "param N; array L[N][N]; array Y[N];
for i = 1 to N - 1 {{ for j = 0 to i - 1 {{ Y[i] = Y[i] - {c} * L[i][j] * Y[j]; }} }}\n"
                ),
                vec![n + 1],
            )
        }
    };
    let options = match shape.opts {
        OptSet::Full => Options::full(),
        OptSet::Naive => Options::naive(),
        OptSet::LocationCentric => Options::location_centric(),
    };
    Request {
        shape_index,
        label: format!(
            "{:?}{k}/{:?}/P{}/{:?}",
            shape.family, shape.dist, shape.nproc, shape.opts
        ),
        source,
        comps,
        initial,
        nproc: shape.nproc,
        options,
        params,
    }
}

/// The first `n` corpus requests, with constants and serving order drawn
/// from `seed`.
pub fn requests(seed: u64, n: usize) -> Vec<Request> {
    let shapes = shapes(n);
    let mut rng = Rng::new(seed);
    let programs = shapes.iter().map(|s| s.program).max().map_or(0, |m| m + 1);
    let constants: Vec<String> = (0..programs).map(|_| rng.constant()).collect();
    let mut out: Vec<Request> = shapes
        .iter()
        .enumerate()
        .map(|(k, s)| materialize(k, s, &constants[s.program]))
        .collect();
    rng.shuffle(&mut out);
    out
}

/// A fixed-kernel request for `lu_plan` / `verify_values`.
pub fn lu_request(n: i128, nproc: i128) -> Request {
    let shape = Shape {
        family: Family::Lu,
        variant: 0,
        dist: Dist::Cyclic,
        nproc,
        opts: OptSet::Full,
        program: 0,
    };
    let mut r = materialize(0, &shape, "paper");
    r.params = vec![n];
    r.label = format!("lu/N{n}/P{nproc}");
    r
}

/// The relaxation stencil, block-decomposed, with its coefficient drawn
/// from `rng` (the plan does not depend on it).
pub fn stencil_request(rng: &mut Rng, block: i128, nproc: i128, t: i128, n: i128) -> Request {
    let shape = Shape {
        family: Family::Stencil,
        variant: 1,
        dist: Dist::Block(block),
        nproc,
        opts: OptSet::Full,
        program: 0,
    };
    let mut r = materialize(0, &shape, &rng.constant());
    r.params = vec![t, n];
    r.label = format!("stencil/B{block}/P{nproc}/T{t}/N{n}");
    r
}
