//! The paper's §7 evaluation: LU decomposition with a cyclic decomposition
//! (Figures 11–14).
//!
//! Prints the Last Write Trees (Figure 12), the generated computation and
//! aggregated communication code (Figure 13 artifacts), verifies the
//! distributed execution against the sequential interpreter at a small
//! size, prints the aggregation level the planner used for each
//! communication set, and then reproduces the Figure 14 performance
//! series — all through one compilation [`Session`], so the
//! processor-count series reuses every grid-independent analysis stage
//! instead of recompiling from scratch.
//!
//! ```sh
//! cargo run --release --example lu              # default sizes
//! cargo run --release --example lu -- 128 256   # explicit matrix sizes
//! ```

use std::collections::{BTreeMap, HashMap};

use dmc_core::{build_schedule, CompileInput, Compiled, Options, Session};
use dmc_decomp::{CompDecomp, DataDecomp, ProcGrid};
use dmc_machine::MachineConfig;
use dmc_obs::Value;

const LU_SRC: &str = "param N; array X[N + 1][N + 1];
for i1 = 0 to N {
  for i2 = i1 + 1 to N {
    X[i2][i1] = X[i2][i1] / X[i1][i1];
    for i3 = i1 + 1 to N {
      X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
    }
  }
}";

fn lu_input(nproc: i128) -> CompileInput {
    let program = dmc_ir::parse(LU_SRC).expect("LU parses");
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::cyclic_1d(0, "i2"));
    comps.insert(1, CompDecomp::cyclic_1d(1, "i2"));
    let mut initial = HashMap::new();
    initial.insert("X".to_string(), DataDecomp::cyclic_1d("X", 2, 0));
    CompileInput {
        program,
        comps,
        initial,
        grid: ProcGrid::line(nproc),
    }
}

/// The scaled iPSC/860 model used for the Figure 14 series: the paper ran
/// N = 1024/2048; we run smaller N and slow the processor by the linear
/// scale factor 2048/N_max so the communication-to-computation ratio of
/// the large-scale experiment is preserved (see EXPERIMENTS.md).
fn scaled_config(scale: f64) -> MachineConfig {
    let mut c = MachineConfig::ipsc860();
    c.flop_time *= scale;
    c
}

/// The legality split each communication set of `compiled` is planned at
/// for size `n`: the last split its `schedule.split` events name, or the
/// paper's level (0) without one.
fn legality_splits(compiled: &Compiled, n: i128) -> Vec<u64> {
    dmc_obs::start_capture();
    build_schedule(compiled, &[n], false, 10_000_000).expect("schedules");
    let trace = dmc_obs::finish_capture();
    let mut splits = vec![0; compiled.comm.len()];
    for r in trace.lanes.iter().flat_map(|l| &l.records) {
        if let ("schedule.split", Some(&Value::UInt(set)), Some(&Value::UInt(split))) =
            (r.name, r.get("set"), r.get("split"))
        {
            splits[set as usize] = splits[set as usize].max(split);
        }
    }
    splits
}

fn main() {
    let args: Vec<i128> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let sizes: Vec<i128> = if args.is_empty() {
        vec![128, 256]
    } else {
        args
    };

    // --- Figure 12: the LWT for the read X[i1][i3] ---
    let program = dmc_ir::parse(LU_SRC).expect("LU parses");
    let lwt = dmc_dataflow::build_lwt(&program, 1, 2).expect("analysis succeeds");
    println!("=== Figure 12: Last Write Tree for X[i1][i3] ===\n{lwt}");

    // --- Figure 13 artifacts: generated computation code ---
    let stmts = program.statements();
    let comp2 = CompDecomp::cyclic_1d(1, "i2");
    let code =
        dmc_codegen::computation_code(&program, &stmts[1], &comp2).expect("codegen succeeds");
    println!("=== Figure 13 (excerpt): computation code for S2, cyclic p = i2 ===");
    println!("{}", dmc_codegen::render(&code));

    // Local memory: the paper allocates ((N+P)/P) x (N+1) per processor.
    let comp1 = CompDecomp::cyclic_1d(0, "i2");
    let lb = dmc_codegen::bounding_box(&program, "X", &[(&stmts[0], &comp1), (&stmts[1], &comp2)])
        .expect("memory analysis succeeds")
        .expect("X is touched");
    let env = |v: &str| match v {
        "p0" => 5,
        "N" => 64,
        _ => 0,
    };
    println!(
        "local memory on virtual processor 5 at N=64: {} elements (full matrix {})",
        lb.size_at(&env),
        65 * 65
    );

    // --- correctness at a small size ---
    // One session carries the whole example: the processor-count series
    // below reuses every grid-independent analysis stage from this first
    // compile (the grid only enters the stage keys at the optimization
    // stage).
    let mut session = Session::new();
    let compiled = session
        .compile(lu_input(4), Options::full())
        .expect("compilation succeeds");
    let r = session
        .run(
            &compiled,
            &[24],
            &MachineConfig::ipsc860(),
            true,
            10_000_000,
        )
        .expect("simulation succeeds");
    let mut env = HashMap::new();
    env.insert("N".to_string(), 24i128);
    let seq = dmc_ir::interp::run(&compiled.input.program, &env).expect("sequential run");
    let a = r
        .memory
        .as_ref()
        .expect("values")
        .array("X")
        .expect("X")
        .as_slice();
    let b = seq.array("X").expect("X").as_slice();
    assert!(a
        .iter()
        .zip(b)
        .all(|(x, y)| x == y || (x.is_nan() && y.is_nan())));
    println!("\nN=24, P=4: distributed LU matches the sequential interpreter ✓\n");

    // --- aggregation legality: where each set leaves the paper's level ---
    // Split 0 is the paper's aggregation level; each split more cuts a
    // set's messages one send-iteration component finer.
    println!("=== legality split per communication set (N=24, P=4) ===");
    for (k, split) in legality_splits(&compiled, 24).into_iter().enumerate() {
        let cs = &compiled.comm[k];
        println!(
            "set {k} ({} read by S{}): split {split}",
            cs.array, cs.read_stmt
        );
    }
    println!();

    // --- Figure 14: performance series ---
    println!("=== Figure 14: LU performance (simulated iPSC/860, scaled) ===");
    println!(
        "{:>6} {:>4} {:>12} {:>10} {:>9} {:>10}",
        "N", "P", "time (s)", "MFLOPS", "speedup", "messages"
    );
    let nmax = *sizes.iter().max().expect("nonempty sizes");
    let scale = (2048 / nmax).max(1) as f64;
    for &n in &sizes {
        let mut t1 = None;
        for p in [1i128, 2, 4, 8, 16, 32] {
            let compiled = session
                .compile(lu_input(p), Options::full())
                .expect("compilation succeeds");
            let r = session
                .run(&compiled, &[n], &scaled_config(scale), false, 500_000_000)
                .expect("simulation succeeds");
            let t = r.stats.time;
            if t1.is_none() {
                t1 = Some(t);
            }
            println!(
                "{:>6} {:>4} {:>12.4} {:>10.1} {:>9.2} {:>10}",
                n,
                p,
                t,
                r.stats.mflops(),
                r.stats.speedup_vs(t1.expect("set")),
                r.stats.messages
            );
        }
    }
    let s = session.stats();
    println!(
        "\nsession stage graph over the whole series: {} hit(s), {} miss(es) \
         ({:.0}% of stage lookups served from the store)",
        s.stage_hits,
        s.stage_misses,
        100.0 * s.stage_hits as f64 / (s.stage_hits + s.stage_misses).max(1) as f64
    );
}
