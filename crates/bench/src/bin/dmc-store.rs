//! Persistent artifact store harness: populates, inspects and — with
//! `--check` — end-to-end-verifies the on-disk stage cache
//! ([`dmc_store::DiskStore`]) behind compilation sessions.
//!
//! ```sh
//! # Populate/refresh a cache directory with a full workload sweep:
//! cargo run --release -p dmc-bench --bin dmc-store -- --cache-dir target/dmc-cache
//!
//! # Verify the store end to end (cold vs warm, eviction, corruption):
//! cargo run --release -p dmc-bench --bin dmc-store -- --check
//! ```
//!
//! `--check` clears its cache directory (default `target/dmc-store-check`,
//! override with `--cache-dir`) and asserts, over all four benchmark
//! workloads:
//!
//! 1. **Cold→warm byte identity.** A fresh process (cold memory) serving
//!    the same requests against the populated store produces
//!    byte-identical schedules, recomputes nothing, serves at least
//!    half of its stage lookups from disk (in practice: all of them) and
//!    loads exactly what the cold pass wrote — as many artifacts, as many
//!    bytes: a stage no request reads back fails here.
//! 2. **The index is a log, and a short one.** Eight more warm sweeps,
//!    each through a fresh open of the same directory, stay
//!    byte-identical; each appends exactly one `index.tsv` line per disk
//!    hit unless it compacts, the file never holds more than
//!    `2 × entries + 1024` lines, and a final reopen finds the same
//!    entry set — the count-based guard that a load costs O(1).
//! 3. **Eviction correctness.** Under a deliberately tiny byte bound the
//!    store honors the bound, evicts deterministically, and a partially
//!    warm session still compiles byte-identically.
//! 4. **Corruption is a miss.** With every artifact file bit-flipped, a
//!    fresh session still produces byte-identical schedules — corrupt
//!    payloads are quarantined and recomputed, never trusted.
//!
//! Exit codes: 0 clean, 1 check failure, 2 usage error.

use std::path::{Path, PathBuf};
use std::process::exit;

use dmc_bench::{usage_error, workloads};
use dmc_core::{Options, Session};
use dmc_store::DiskStore;

const LIMIT: usize = 50_000_000;

fn fail(msg: String) -> ! {
    eprintln!("dmc-store: {msg}");
    exit(1);
}

macro_rules! check {
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            fail(format!($($fmt)*));
        }
    };
}

const USAGE: &str = "usage: dmc-store [--cache-dir PATH] [--max-bytes N] [--check]
  default mode populates PATH (required) with a workload sweep;
  --check clears PATH (default target/dmc-store-check) and
  verifies cold/warm identity, eviction and corruption handling";

fn open_store(dir: &Path, max_bytes: Option<u64>) -> DiskStore {
    match DiskStore::open(dir, max_bytes) {
        Ok(s) => s,
        Err(e) => fail(format!("cannot open store at {}: {e}", dir.display())),
    }
}

/// Serves every workload through one session backed by `store`, and
/// returns the canonical schedule renderings plus the session's stats.
fn sweep(store: DiskStore) -> (Vec<String>, dmc_core::SessionStats, dmc_core::StoreStats) {
    let mut session = Session::new();
    session.attach_store(Box::new(store));
    let mut schedules = Vec::new();
    for w in workloads() {
        let outcome = session
            .serve(
                w.name,
                (w.input)(w.nproc),
                Options::full(),
                &w.params,
                LIMIT,
            )
            .unwrap_or_else(|e| fail(format!("{}: serve failed: {e:?}", w.name)));
        schedules.push(format!("{:?}", outcome.schedule));
    }
    let stats = session.stats().clone();
    let store_stats = session.store_stats().expect("store attached");
    (schedules, stats, store_stats)
}

/// Record lines in the store's `index.tsv` (the header is not one).
fn index_lines(dir: &Path) -> u64 {
    match std::fs::read_to_string(dir.join("index.tsv")) {
        Ok(text) => (text.lines().count() as u64).saturating_sub(1),
        Err(e) => fail(format!("cannot read index.tsv: {e}")),
    }
}

/// Flips one payload byte in every artifact file under `shards/`.
fn corrupt_all(dir: &Path) -> usize {
    let mut corrupted = 0;
    let shards = match std::fs::read_dir(dir.join("shards")) {
        Ok(d) => d,
        Err(e) => fail(format!("cannot list shards: {e}")),
    };
    for shard in shards.filter_map(|e| e.ok()) {
        let Ok(files) = std::fs::read_dir(shard.path()) else {
            continue;
        };
        for f in files.filter_map(|e| e.ok()) {
            let path = f.path();
            let Ok(mut bytes) = std::fs::read(&path) else {
                continue;
            };
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            if std::fs::write(&path, &bytes).is_ok() {
                corrupted += 1;
            }
        }
    }
    corrupted
}

fn run_check(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);

    // Pass 1: cold store, cold memory — everything is computed and
    // written through.
    let (cold_schedules, cold_stats, cold_store) = sweep(open_store(dir, None));
    check!(
        cold_store.bytes_written > 0 && cold_store.entries > 0,
        "cold pass wrote nothing to the store"
    );
    check!(
        cold_stats.stage_disk_hits == 0,
        "cold pass cannot hit the disk layer"
    );
    check!(
        cold_store.corrupt == 0,
        "cold pass flagged corruption in its own writes"
    );
    println!(
        "cold: {} entries, {} payload bytes, {} stage miss(es)",
        cold_store.entries, cold_store.bytes, cold_stats.stage_misses
    );

    // Pass 2: warm store, cold memory — a fresh process must re-serve
    // everything from disk, byte-identically.
    let (warm_schedules, warm_stats, warm_store) = sweep(open_store(dir, None));
    check!(
        warm_schedules == cold_schedules,
        "warm-start schedules diverge from the cold pass"
    );
    check!(
        warm_stats.stage_misses == 0,
        "warm start recomputed {} stage(s)",
        warm_stats.stage_misses
    );
    let lookups = warm_stats.stage_hits + warm_stats.stage_misses;
    check!(
        2 * warm_stats.stage_disk_hits >= lookups,
        "only {}/{} warm lookups served from disk (need >= half)",
        warm_stats.stage_disk_hits,
        lookups
    );
    check!(
        warm_store.corrupt == 0,
        "warm pass flagged corruption in a clean store"
    );
    // Store what a request loads: every artifact the cold pass wrote, the
    // warm pass of the same requests reads back.
    check!(
        warm_store.hits == cold_store.entries && warm_store.bytes_read == cold_store.bytes_written,
        "warm pass loaded {} artifact(s) / {} byte(s) of the {} / {} the cold pass wrote",
        warm_store.hits,
        warm_store.bytes_read,
        cold_store.entries,
        cold_store.bytes_written
    );
    println!(
        "warm: byte-identical schedules, {}/{} lookups from disk, 0 recomputed, \
         {} byte(s) read = written",
        warm_stats.stage_disk_hits, lookups, warm_store.bytes_read
    );

    // Index sweep: the index is an append-only log, so a warm sweep may
    // add one line per disk hit and nothing else, and compaction keeps
    // the file within a constant of twice the entry set.
    let entries = open_store(dir, None).keys();
    let line_bound = 2 * entries.len() as u64 + 1024;
    let mut lines = index_lines(dir);
    for round in 1..=8 {
        let (schedules, stats, store) = sweep(open_store(dir, None));
        check!(
            schedules == cold_schedules,
            "index sweep {round}: schedules diverge from the cold pass"
        );
        check!(
            stats.stage_misses == 0 && store.corrupt == 0,
            "index sweep {round}: {} stage(s) recomputed, {} corrupt",
            stats.stage_misses,
            store.corrupt
        );
        let now = index_lines(dir);
        check!(
            now <= line_bound,
            "index sweep {round}: index.tsv holds {now} lines, over 2 x {} entries + 1024",
            entries.len()
        );
        let appended = lines + store.hits;
        let compacted = now < appended && now >= store.entries;
        check!(
            now == appended || compacted,
            "index sweep {round}: {} disk hit(s) took index.tsv from {lines} to {now} lines",
            store.hits
        );
        lines = now;
    }
    check!(
        open_store(dir, None).keys() == entries,
        "index sweeps changed the entry set"
    );
    println!(
        "index: 8 warm sweeps byte-identical, index.tsv at {lines} line(s) for {} entries \
         (bound {line_bound}), entry set unchanged",
        entries.len()
    );

    // Pass 3: a tiny byte bound forces evictions; the bound must hold,
    // and a partially warm session must still compile byte-identically.
    let tiny_dir = dir.join("tiny");
    let bound = 16 * 1024;
    let (tiny_schedules, _, tiny_store) = sweep(open_store(&tiny_dir, Some(bound)));
    check!(
        tiny_schedules == cold_schedules,
        "schedules diverge under an evicting store"
    );
    check!(
        tiny_store.evictions > 0,
        "a {bound}-byte bound evicted nothing (store holds {} bytes)",
        tiny_store.bytes
    );
    check!(
        tiny_store.bytes <= bound,
        "store holds {} bytes, over the {bound}-byte bound",
        tiny_store.bytes
    );
    let (retiny_schedules, _, retiny_store) = sweep(open_store(&tiny_dir, Some(bound)));
    check!(
        retiny_schedules == cold_schedules,
        "schedules diverge warm-starting from an evicted store"
    );
    check!(
        retiny_store.bytes <= bound,
        "evicted store exceeded its bound on reuse"
    );
    println!(
        "eviction: bound {bound} held ({} bytes resident, {} eviction(s)), \
         schedules identical",
        tiny_store.bytes, tiny_store.evictions
    );

    // Pass 4: corrupt every artifact; a fresh session must quarantine,
    // recompute, and still match byte-for-byte.
    let flipped = corrupt_all(dir);
    check!(flipped > 0, "corruption pass found no artifact files");
    let (post_schedules, post_stats, post_store) = sweep(open_store(dir, None));
    check!(
        post_schedules == cold_schedules,
        "schedules diverge after corruption injection"
    );
    check!(
        post_store.corrupt > 0,
        "no corrupt loads counted after flipping {flipped} file(s)"
    );
    check!(
        post_stats.stage_disk_hits == 0,
        "a corrupted artifact was served as a disk hit"
    );
    let quarantined = open_store(dir, None)
        .quarantined()
        .map(|q| q.len())
        .unwrap_or(0);
    check!(
        quarantined >= post_store.corrupt as usize,
        "{} corrupt load(s) but only {} file(s) quarantined",
        post_store.corrupt,
        quarantined
    );
    println!(
        "corruption: {} corrupt load(s) all clean misses, {} file(s) quarantined, \
         schedules identical",
        post_store.corrupt, quarantined
    );
    println!("dmc-store check ok");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut cache_dir: Option<PathBuf> = None;
    let mut max_bytes: Option<u64> = None;
    let mut check = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cache-dir" => match args.next() {
                Some(p) => cache_dir = Some(PathBuf::from(p)),
                None => usage_error(USAGE),
            },
            "--max-bytes" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => max_bytes = Some(n),
                None => usage_error(USAGE),
            },
            "--check" => check = true,
            _ => usage_error(USAGE),
        }
    }

    if check {
        let dir = cache_dir.unwrap_or_else(|| PathBuf::from("target/dmc-store-check"));
        run_check(&dir);
        return;
    }

    let Some(dir) = cache_dir else {
        usage_error(USAGE)
    };
    let (_, stats, store_stats) = sweep(open_store(&dir, max_bytes));
    println!(
        "served {} workload(s): {} stage hit(s) ({} from disk), {} miss(es)",
        workloads().len(),
        stats.stage_hits,
        stats.stage_disk_hits,
        stats.stage_misses
    );
    println!(
        "store {}: {} entries, {} payload bytes ({} written, {} read), \
         {} eviction(s), {} corrupt",
        dir.display(),
        store_stats.entries,
        store_stats.bytes,
        store_stats.bytes_written,
        store_stats.bytes_read,
        store_stats.evictions,
        store_stats.corrupt
    );
}
