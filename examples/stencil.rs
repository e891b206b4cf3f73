//! A 3-point relaxation stencil (the paper's §2.2.1 example of overlapped
//! data decompositions): blocked computation with halo exchange derived
//! value-centrically, plus the effect of each §6 optimization on traffic.
//!
//! ```sh
//! cargo run --release --example stencil
//! ```

use std::collections::{BTreeMap, HashMap};

use dmc_core::{build_schedule, compile, run, CompileInput, Options};
use dmc_decomp::{CompDecomp, DataDecomp, DimMap, ProcGrid};
use dmc_ir::Aff;
use dmc_machine::MachineConfig;

const SRC: &str = "param T, N; array X[N + 1];
for t = 0 to T {
  for i = 1 to N - 1 {
    X[i] = 0.25 * (X[i] + X[i - 1] + X[i + 1]);
  }
}";

fn input(block: i128, nproc: i128, overlap: bool) -> CompileInput {
    let program = dmc_ir::parse(SRC).expect("stencil parses");
    let mut comps = BTreeMap::new();
    comps.insert(0, CompDecomp::block_1d(0, "i", block));
    let mut initial = HashMap::new();
    let map = if overlap {
        DimMap::block(Aff::var("a0"), block).with_overlap(1, 1)
    } else {
        DimMap::block(Aff::var("a0"), block)
    };
    initial.insert("X".to_string(), DataDecomp::from_maps("X", 1, vec![map]));
    CompileInput {
        program,
        comps,
        initial,
        grid: ProcGrid::line(nproc),
    }
}

fn main() {
    let (t, n) = (7i128, 255i128);

    // Correctness first.
    let compiled = compile(input(32, 8, false), Options::full()).expect("compiles");
    let r = run(
        &compiled,
        &[t, n],
        &MachineConfig::ipsc860(),
        true,
        10_000_000,
    )
    .expect("simulates");
    let mut env = HashMap::new();
    env.insert("T".to_string(), t);
    env.insert("N".to_string(), n);
    let seq = dmc_ir::interp::run(&compiled.input.program, &env).expect("sequential");
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
        .all(|(x, y)| x == y || (x - y).abs() < 1e-12));
    println!("T={t}, N={n}, P=8: distributed stencil matches the sequential interpreter ✓\n");

    // Traffic under different option sets.
    println!("{:<44} {:>10} {:>10}", "configuration", "messages", "words");
    let cases: Vec<(&str, Options, bool)> = vec![
        ("full optimizer", Options::full(), false),
        (
            "no aggregation",
            {
                let mut o = Options::full();
                o.aggregate = false;
                o
            },
            false,
        ),
        (
            "no self-reuse elimination",
            {
                let mut o = Options::full();
                o.self_reuse = false;
                o
            },
            false,
        ),
        (
            "full + overlapped initial decomposition",
            Options::full(),
            true,
        ),
        (
            "location-centric baseline",
            Options::location_centric(),
            false,
        ),
    ];
    for (name, options, overlap) in cases {
        let compiled = compile(input(32, 8, overlap), options).expect("compiles");
        let plan = build_schedule(&compiled, &[t, n], false, 10_000_000).expect("plans");
        let (msgs, _, words) = plan.message_stats();
        println!("{name:<44} {msgs:>10} {words:>10}");
    }
    println!("\nEvery border value flows exactly once per sweep in all configurations —");
    println!("the stencil is already minimal traffic. The overlapped initial decomposition");
    println!("removes only the t=0 live-in transfers; produced halo values still flow.");
}
