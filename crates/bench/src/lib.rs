//! The `dmc` harness library: the paper's programs (Figure 2, Figure 8,
//! Figure 11 LU, the §2.2 motivating examples) with their decompositions,
//! one registry of the workloads every subcommand measures, and one
//! battery per subcommand. A battery returns `Ok` with its report lines or
//! `Err` naming the first invariant that failed; `dmc check` runs them
//! all in one process, and the integration tests run them at test sizes.
//!
//! - [`explain`]: one capture per workload feeds the Chrome trace, the
//!   explain report (critical path, hotspots) and the collapsed stack.
//! - [`profile`]: the engine's work ledger folded per attribution context
//!   into the Hotspots section and the collapsed stack.
//! - [`store`]: the persistent store, cold to warm, evicting, corrupted.
//! - [`snapshot`]: the deterministic `BENCH_pipeline.json` golden,
//!   including a processor-count sweep through one session.

use std::collections::{BTreeMap, HashMap};

use dmc_core::CompileInput;
use dmc_decomp::{CompDecomp, DataDecomp, ProcGrid};
use dmc_ir::Program;

/// Figure 2's program: `for t { for i { X[i] = X[i-3] } }`.
pub fn figure2_program() -> Program {
    dmc_ir::parse(
        "param T, N; array X[N + 1];
         for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
    )
    .expect("figure 2 parses")
}

/// Figure 2 compiled input: block-32 computation on a linear grid.
pub fn figure2_input(nproc: i128) -> CompileInput {
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::block_1d(0, "i", 32));
    CompileInput {
        program: figure2_program(),
        comps,
        initial: HashMap::new(),
        grid: ProcGrid::line(nproc),
    }
}

/// Figure 11's LU decomposition kernel.
pub fn lu_program() -> Program {
    dmc_ir::parse(
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
    .expect("LU parses")
}

/// LU compiled input: the paper's cyclic computation and data
/// decomposition (§7) on a linear grid of `nproc` physical processors.
pub fn lu_input(nproc: i128) -> CompileInput {
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::cyclic_1d(0, "i2"));
    comps.insert(1, CompDecomp::cyclic_1d(1, "i2"));
    let mut initial = HashMap::new();
    initial.insert("X".to_string(), DataDecomp::cyclic_1d("X", 2, 0));
    CompileInput {
        program: lu_program(),
        comps,
        initial,
        grid: ProcGrid::line(nproc),
    }
}

/// §2.2.2's X/Y example where value-centric analysis transfers each value
/// once while the location-centric baseline re-fetches per outer iteration.
pub fn xy_input(nproc: i128) -> CompileInput {
    let program = dmc_ir::parse(
        "param N; array X[N + 2]; array Y[N + 2];
         for i = 0 to N {
           X[i] = 1.5;
           for j = 1 to N {
             Y[j] = Y[j] + X[j - 1];
           }
         }",
    )
    .expect("xy parses");
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::block_1d(0, "i", 4));
    comps.insert(1, CompDecomp::block_1d(1, "j", 4));
    let mut initial = HashMap::new();
    initial.insert("X".to_string(), DataDecomp::block_1d("X", 1, 0, 4));
    initial.insert("Y".to_string(), DataDecomp::block_1d("Y", 1, 0, 4));
    CompileInput {
        program,
        comps,
        initial,
        grid: ProcGrid::line(nproc),
    }
}

/// The 3-point relaxation stencil with block decomposition.
pub fn stencil_input(block: i128, nproc: i128) -> CompileInput {
    let program = dmc_ir::parse(
        "param T, N; array X[N + 1];
         for t = 0 to T {
           for i = 1 to N - 1 {
             X[i] = 0.25 * (X[i] + X[i - 1] + X[i + 1]);
           }
         }",
    )
    .expect("stencil parses");
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::block_1d(0, "i", block));
    CompileInput {
        program,
        comps,
        initial: HashMap::new(),
        grid: ProcGrid::line(nproc),
    }
}

/// One benchmark workload: an input generator with the processor count
/// and parameter values it is measured at.
pub struct Workload {
    /// Short name (`--workload` argument, snapshot key).
    pub name: &'static str,
    /// The standard processor count.
    pub nproc: i128,
    /// Builds the compile input for a processor count.
    pub input: fn(i128) -> CompileInput,
    /// The standard parameter values, in the program's `param` order.
    pub params: Vec<i128>,
}

/// The workload set every subcommand and the snapshot share.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "lu",
            nproc: 8,
            input: lu_input,
            params: vec![48],
        },
        Workload {
            name: "stencil",
            nproc: 4,
            input: |nproc| stencil_input(32, nproc),
            params: vec![4, 127],
        },
        Workload {
            name: "figure2",
            nproc: 4,
            input: figure2_input,
            params: vec![3, 127],
        },
        Workload {
            name: "xy",
            nproc: 4,
            input: xy_input,
            params: vec![47],
        },
    ]
}

/// The registry at test sizes: the same four workloads, small enough for
/// the batteries to run in a debug-build integration test.
pub fn test_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "lu",
            nproc: 4,
            input: lu_input,
            params: vec![16],
        },
        Workload {
            name: "stencil",
            nproc: 4,
            input: |nproc| stencil_input(16, nproc),
            params: vec![3, 63],
        },
        Workload {
            name: "figure2",
            nproc: 4,
            input: figure2_input,
            params: vec![3, 63],
        },
        Workload {
            name: "xy",
            nproc: 4,
            input: xy_input,
            params: vec![15],
        },
    ]
}

/// The registry workload called `name`; an unknown name is an error
/// listing the known ones.
pub fn workload(name: &str) -> Result<Workload, String> {
    let all = workloads();
    let names: Vec<&str> = all.iter().map(|w| w.name).collect();
    let list = names.join(", ");
    all.into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("no such workload {name:?} ({list})"))
}

/// The workloads a `--workload` argument names: one by name, or every
/// one for `all` or no argument.
pub fn select(which: Option<&str>) -> Result<Vec<Workload>, String> {
    match which {
        None | Some("all") => Ok(workloads()),
        Some(name) => workload(name).map(|w| vec![w]),
    }
}

/// Returns `Err(format!(...))` from the enclosing battery unless `cond`
/// holds: the one way a battery reports a failed invariant. (Declared
/// before the battery modules, so it is in scope in each of them.)
macro_rules! ensure {
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(format!($($fmt)*));
        }
    };
}

/// The element limit every battery plans and simulates under.
pub(crate) const LIMIT: usize = 50_000_000;

pub mod explain;
pub mod profile;
pub mod snapshot;
pub mod store;
