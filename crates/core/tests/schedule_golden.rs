//! Schedule golden test: the planner's output is pinned byte for byte.
//!
//! For the four benchmark workloads × the shipped option presets ×
//! {timing, values}, the `dmc_ir::fp` fingerprint of the `Schedule`'s
//! `Debug` text must equal the constant recorded from the commit before
//! the planner moved onto the compiled scan kernel. The text covers
//! per-message item order and per-processor action order, which the
//! aggregate counts (`plan_words`, simulated makespan) do not see.
//!
//! A fingerprint says a schedule has not moved, not that it is right: every
//! values-mode schedule pinned here is also simulated, and the merged
//! memory must equal `dmc_ir::interp::run` bit for bit. A values-mode
//! schedule the planner refuses is pinned as that refusal.
//!
//! Workloads are replicated locally (dmc-bench depends on dmc-core, so
//! these tests cannot import it).

use std::collections::{BTreeMap, HashMap};

use dmc_core::{build_schedule, compile, CompileError, CompileInput, Compiled, Options};
use dmc_decomp::{CompDecomp, DataDecomp, ProcGrid};
use dmc_ir::fp::{fnv1a128, Fingerprint, FNV_OFFSET};
use dmc_machine::{simulate, InitialPlacement, MachineConfig, Schedule};

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

/// FNV-1a/128 of the schedule's `Debug` text, framed as the pins were
/// recorded: a `0x05` string marker, then the text's length as 8
/// little-endian bytes, then the text.
fn fingerprint(schedule: &Schedule) -> String {
    let text = format!("{schedule:?}");
    let h = fnv1a128(FNV_OFFSET, &[0x05]);
    let h = fnv1a128(h, &(text.len() as u64).to_le_bytes());
    Fingerprint(fnv1a128(h, text.as_bytes())).to_string()
}

/// Runs `schedule` in values mode and requires the merged memory to be
/// the sequential interpreter's, bit for bit.
fn assert_computes_the_program(
    compiled: &Compiled,
    schedule: &Schedule,
    params: &[i128],
    what: &str,
) {
    let input = &compiled.input;
    let env: HashMap<String, i128> = input
        .program
        .params
        .iter()
        .cloned()
        .zip(params.iter().copied())
        .collect();
    let placement = if input.initial.is_empty() {
        InitialPlacement::Replicated
    } else {
        InitialPlacement::Owned(input.initial.clone())
    };
    let config = MachineConfig::ipsc860();
    let run = simulate(
        &input.program,
        &env,
        &input.grid,
        schedule,
        &config,
        &placement,
        true,
    )
    .unwrap_or_else(|e| panic!("{what}: {e}"));
    let got = run.memory.expect("values mode returns memory");
    let want = dmc_ir::interp::run(&input.program, &env).expect("interprets");
    for (name, seq) in want.iter() {
        let dist = got.array(name).expect("same arrays");
        assert_eq!(dist.extents(), seq.extents(), "{what}: {name} extents");
        for (k, (x, y)) in dist.as_slice().iter().zip(seq.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: {name} flat index {k}: distributed {x} vs sequential {y}"
            );
        }
    }
}

/// The timing- and values-mode fingerprints of one configuration; the
/// values-mode schedule is checked against the interpreter before it is
/// fingerprinted, and a refused one reads `refused: <array>`.
fn schedule_fps(
    input: &CompileInput,
    options: Options,
    params: &[i128],
    what: &str,
) -> (String, String) {
    let compiled = compile(input.clone(), options).expect("compiles");
    let timing = build_schedule(&compiled, params, false, LIMIT).expect("schedules");
    let values = match build_schedule(&compiled, params, true, LIMIT) {
        Ok(schedule) => {
            assert_computes_the_program(&compiled, &schedule, params, what);
            fingerprint(&schedule)
        }
        Err(CompileError::LocationCentricValues(array)) => format!("refused: {array}"),
        Err(e) => panic!("{what}: {e}"),
    };
    (fingerprint(&timing), values)
}

/// `(workload, preset, timing fingerprint, values fingerprint)`. The `lu`,
/// `stencil` and `figure2` rows are as recorded before the planner moved
/// onto the compiled scan kernel. The `xy` rows were re-recorded once, when
/// `compute_blocks` stopped batching `X[i] = 1.5`'s whole `i` range ahead
/// of the `j` loop that `i` also encloses (one block per iteration there:
/// the old fingerprints pinned schedules that computed the wrong `Y`). The
/// two location-centric rows fetch an array their program writes, which a
/// values-mode schedule refuses. Every values fingerprint was re-recorded
/// once more when a message's payload became one table (array, writer, row
/// width, flat rows) instead of per-item name, subscripts and stamp: each
/// payload's rows expand, row by row, to the items pinned before, and no
/// action list moved.
const GOLDEN: [(&str, &str, &str, &str); 10] = [
    (
        "lu",
        "full",
        "d0b3806f3d519fdcabb31f19c236d409",
        "ea04bdcd92607876318d29e5ea2d34a0",
    ),
    (
        "lu",
        "naive",
        "b035c703e32a87bdbf2ea987042bff1c",
        "fb5b3812e63efaf86422e1d4ce2da4e9",
    ),
    (
        "lu",
        "location_centric",
        "94e8323955aa31533114fdb2031d0149",
        "refused: X",
    ),
    (
        "stencil",
        "full",
        "f7aaacd2f364c4ca23c79baf7c44521b",
        "21ddd986a6b35311619319ce11d91e52",
    ),
    (
        "stencil",
        "naive",
        "f7aaacd2f364c4ca23c79baf7c44521b",
        "21ddd986a6b35311619319ce11d91e52",
    ),
    (
        "figure2",
        "full",
        "1c0fa8d7a0ca6da27994b87a69d4f309",
        "22eb5d9759d18c80c823857e5361f859",
    ),
    (
        "figure2",
        "naive",
        "854b7e4122e23ab614cee1b740d4be98",
        "a504eccf04d40daa6064709ffe1da2a3",
    ),
    (
        "xy",
        "full",
        "de2a4beda80f95b81649f2d8d5862b5d",
        "126dc10b6968fa7bd5b866e3fae95046",
    ),
    (
        "xy",
        "naive",
        "e9d5777a7c154e45f4b6ef9c67bff756",
        "8ffc75d6bffcd3a2d7b1262edd8acb70",
    ),
    (
        "xy",
        "location_centric",
        "e75be9d50f4ab49eb7028fa671723202",
        "refused: X",
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
            let what = format!("{name} / {preset}");
            let (timing, values) = schedule_fps(input, *options, params, &what);
            got.push((*name, *preset, timing, values));
        }
    }
    let want: Vec<(&str, &str, String, String)> = GOLDEN
        .iter()
        .map(|&(w, p, t, v)| (w, p, t.to_owned(), v.to_owned()))
        .collect();
    assert_eq!(got, want, "a schedule's Debug text moved");
}
