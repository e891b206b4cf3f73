//! Schedule golden test: the planner's output is pinned byte for byte.
//!
//! For the four benchmark workloads × the shipped option presets ×
//! {timing, values}, the `dmc_ir::fp` fingerprint of the `Schedule`'s
//! `Debug` text must equal the constant recorded from the commit before
//! the planner moved onto the compiled scan kernel. The text covers
//! per-message item order and per-processor action order, which the
//! aggregate counts (`plan_words`, simulated makespan) do not see.
//!
//! Workloads are replicated locally (dmc-bench depends on dmc-core, so
//! these tests cannot import it).

use std::collections::{BTreeMap, HashMap};

use dmc_core::{build_schedule, compile, CompileInput, Options};
use dmc_decomp::{CompDecomp, DataDecomp, ProcGrid};

const LIMIT: usize = 50_000_000;

fn input(
    source: &str,
    comps: Vec<CompDecomp>,
    initial: Vec<DataDecomp>,
    nproc: i128,
) -> CompileInput {
    CompileInput {
        program: dmc_ir::parse(source).expect("parses"),
        comps: comps.into_iter().enumerate().collect::<BTreeMap<_, _>>(),
        initial: initial
            .into_iter()
            .map(|d| (d.array.clone(), d))
            .collect::<HashMap<_, _>>(),
        grid: ProcGrid::line(nproc),
    }
}

/// Figure 11's LU kernel, cyclic, on 8 processors.
fn lu() -> CompileInput {
    input(
        "param N; array X[N + 1][N + 1];
         for i1 = 0 to N {
           for i2 = i1 + 1 to N {
             X[i2][i1] = X[i2][i1] / X[i1][i1];
             for i3 = i1 + 1 to N {
               X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
             }
           }
         }",
        vec![
            CompDecomp::cyclic_1d(0, "i2"),
            CompDecomp::cyclic_1d(1, "i2"),
        ],
        vec![DataDecomp::cyclic_1d("X", 2, 0)],
        8,
    )
}

/// The 3-point relaxation stencil, block 32, on 4 processors.
fn stencil() -> CompileInput {
    input(
        "param T, N; array X[N + 1];
         for t = 0 to T {
           for i = 1 to N - 1 {
             X[i] = 0.25 * (X[i] + X[i - 1] + X[i + 1]);
           }
         }",
        vec![CompDecomp::block_1d(0, "i", 32)],
        vec![],
        4,
    )
}

/// Figure 2's program, block 32, on 4 processors.
fn figure2() -> CompileInput {
    input(
        "param T, N; array X[N + 1];
         for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        vec![CompDecomp::block_1d(0, "i", 32)],
        vec![],
        4,
    )
}

/// §2.2.2's X/Y example, block 4, on 4 processors.
fn xy() -> CompileInput {
    input(
        "param N; array X[N + 2]; array Y[N + 2];
         for i = 0 to N {
           X[i] = 1.5;
           for j = 1 to N {
             Y[j] = Y[j] + X[j - 1];
           }
         }",
        vec![
            CompDecomp::block_1d(0, "i", 4),
            CompDecomp::block_1d(1, "j", 4),
        ],
        vec![
            DataDecomp::block_1d("X", 1, 0, 4),
            DataDecomp::block_1d("Y", 1, 0, 4),
        ],
        4,
    )
}

fn schedule_fp(input: &CompileInput, options: Options, params: &[i128], values: bool) -> String {
    let compiled = compile(input.clone(), options).expect("compiles");
    let schedule = build_schedule(&compiled, params, values, LIMIT).expect("schedules");
    let mut h = dmc_ir::fp::Fp::new();
    h.str(&format!("{schedule:?}"));
    h.finish().to_string()
}

/// `(workload, preset, timing fingerprint, values fingerprint)`, recorded
/// at the parent commit.
const GOLDEN: [(&str, &str, &str, &str); 10] = [
    (
        "lu",
        "full",
        "d0b3806f3d519fdcabb31f19c236d409",
        "114b9118a875f950f822a6d1c50f21e9",
    ),
    (
        "lu",
        "naive",
        "b035c703e32a87bdbf2ea987042bff1c",
        "db91151ad33c85840ca8ea615743be72",
    ),
    (
        "lu",
        "location_centric",
        "94e8323955aa31533114fdb2031d0149",
        "f09e9c18b5f4839d5f4de72a5255d1c2",
    ),
    (
        "stencil",
        "full",
        "f7aaacd2f364c4ca23c79baf7c44521b",
        "648f699d1aee4ac3110e7dc6fee95627",
    ),
    (
        "stencil",
        "naive",
        "f7aaacd2f364c4ca23c79baf7c44521b",
        "648f699d1aee4ac3110e7dc6fee95627",
    ),
    (
        "figure2",
        "full",
        "1c0fa8d7a0ca6da27994b87a69d4f309",
        "7668c8eea2cc1a5f38ad841118ab8ec0",
    ),
    (
        "figure2",
        "naive",
        "854b7e4122e23ab614cee1b740d4be98",
        "f0c1ff3db76827c8c3098f2003d8bc6b",
    ),
    (
        "xy",
        "full",
        "ffb6fdbca5fd82c90074121b09a9e648",
        "b19daa156bcf2711cdd16b01749d8923",
    ),
    (
        "xy",
        "naive",
        "02be061d6ab918c75b6577755d01178a",
        "653660bc7ef9073cbe3831a7b1ac865e",
    ),
    (
        "xy",
        "location_centric",
        "9dd52d2b6ea49d5535a393970874cd60",
        "465f1937c94c651e35737a4221754c17",
    ),
];

#[test]
fn schedules_match_the_recorded_fingerprints() {
    let workloads: [(&str, CompileInput, Vec<i128>); 4] = [
        ("lu", lu(), vec![48]),
        ("stencil", stencil(), vec![4, 127]),
        ("figure2", figure2(), vec![3, 127]),
        ("xy", xy(), vec![47]),
    ];
    let presets = [
        ("full", Options::full()),
        ("naive", Options::naive()),
        ("location_centric", Options::location_centric()),
    ];
    let mut got = Vec::new();
    for (name, input, params) in &workloads {
        for (preset, options) in &presets {
            // The location-centric strategy needs a data decomposition
            // for every array read; stencil and figure2 declare none.
            if *preset == "location_centric" && input.initial.is_empty() {
                continue;
            }
            got.push((
                *name,
                *preset,
                schedule_fp(input, *options, params, false),
                schedule_fp(input, *options, params, true),
            ));
        }
    }
    let want: Vec<(&str, &str, String, String)> = GOLDEN
        .iter()
        .map(|&(w, p, t, v)| (w, p, t.to_owned(), v.to_owned()))
        .collect();
    assert_eq!(got, want, "a schedule's Debug text moved");
}
