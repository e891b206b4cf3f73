//! Two-process warm start: the persistent artifact store must carry a
//! session's artifacts across process boundaries. The first `dmc store`
//! process serves every registry workload into an empty cache directory;
//! a second process with cold memory must serve at least half of its
//! stage lookups from disk, recompute nothing and load every artifact the
//! first one computed. The schedules left in the store are then the
//! one-shot plans of the same requests.

use std::path::{Path, PathBuf};

use dmc_core::{build_schedule, compile, Artifact, ArtifactStore, Options, StageId};
use dmc_store::DiskStore;

/// The element limit the harness plans under.
const LIMIT: usize = 50_000_000;

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `dmc store` over the store at `cache_dir` and returns its stdout.
fn run_store(cache_dir: &Path) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dmc"))
        .args(["store", "--cache-dir", cache_dir.to_str().unwrap()])
        .output()
        .expect("dmc store runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "dmc store failed:\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `(hits, disk hits, misses)` from the summary line
/// `served N workload(s): H stage hit(s) (D from disk), M miss(es)`.
fn summary_counts(stdout: &str) -> (u64, u64, u64) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("served "))
        .unwrap_or_else(|| panic!("no summary line in:\n{stdout}"));
    // The count is the word immediately before each marker.
    let grab = |marker: &str| -> u64 {
        let end = line
            .find(marker)
            .unwrap_or_else(|| panic!("bad summary line: {line}"));
        let word = line[..end].rsplit([' ', '(']).next().unwrap_or_default();
        word.parse()
            .unwrap_or_else(|_| panic!("bad summary line: {line}"))
    };
    (grab(" stage hit(s)"), grab(" from disk"), grab(" miss(es)"))
}

#[test]
fn second_process_serves_from_disk_byte_identically() {
    let cache = tmpdir("warm-start-cache");

    // Process 1: cold store. Everything computed is written through; no
    // disk hits are possible.
    let cold_out = run_store(&cache);
    let (_, cold_disk, cold_misses) = summary_counts(&cold_out);
    assert_eq!(
        cold_disk, 0,
        "cold process cannot hit the disk layer:\n{cold_out}"
    );
    assert!(
        cold_misses > 0,
        "cold process must compute something:\n{cold_out}"
    );

    // Process 2: cold memory, warm store. At least half of all stage
    // lookups must be served from disk and nothing recomputed.
    let warm_out = run_store(&cache);
    let (warm_hits, warm_disk, warm_misses) = summary_counts(&warm_out);
    assert_eq!(
        warm_misses, 0,
        "warm process recomputed a stage:\n{warm_out}"
    );
    assert!(
        2 * warm_disk >= warm_hits + warm_misses,
        "warm process served only {warm_disk}/{} lookups from disk:\n{warm_out}",
        warm_hits + warm_misses
    );
    // Store what a request loads: every stage the first process computed
    // (and wrote through), the second one reads back — once, the memory
    // layer serves the repeats. A stage nobody reads fails here.
    assert_eq!(
        warm_disk, cold_misses,
        "the warm process loaded {warm_disk} of the {cold_misses} artifact(s) the cold one \
         stored:\n{warm_out}"
    );

    // What both processes served is what the one-shot pipeline plans: the
    // store holds one schedule per workload, each equal to its plan.
    let mut store = DiskStore::open(&cache, None).expect("reopen the store");
    let mut stored: Vec<_> = store
        .keys()
        .into_iter()
        .filter(|&(stage, _)| stage == StageId::Schedule)
        .map(|(stage, key)| match store.load(stage, key) {
            Some(Artifact::Schedule(s)) => s,
            other => panic!("schedule key {key} holds {other:?}"),
        })
        .collect();
    let workloads = dmc_bench::workloads();
    assert_eq!(stored.len(), workloads.len(), "one schedule per workload");
    for w in &workloads {
        let compiled = compile((w.input)(w.nproc), Options::full()).expect("compiles");
        let plan = build_schedule(&compiled, &w.params, false, LIMIT).expect("plans");
        let at = stored
            .iter()
            .position(|s| *s == plan)
            .unwrap_or_else(|| panic!("{}: no stored schedule equals its plan", w.name));
        stored.swap_remove(at);
    }
}
