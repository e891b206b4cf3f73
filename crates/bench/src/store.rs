//! `dmc store`: the persistent artifact store ([`DiskStore`]) behind
//! compilation sessions, populated by a sweep of every workload.
//!
//! [`check`] is the battery. It clears its directory and asserts, over all
//! four workloads:
//!
//! 1. **Cold→warm byte identity.** A fresh session (cold memory) serving
//!    the same requests against the populated store produces
//!    byte-identical schedules, recomputes nothing, serves at least half
//!    of its stage lookups from disk (in practice: all of them) and loads
//!    exactly what the cold pass wrote — as many artifacts, as many bytes:
//!    a stage no request reads back fails here.
//! 2. **The index is a log, and a short one.** Eight more warm sweeps,
//!    each through a fresh open of the same directory, stay
//!    byte-identical; each appends exactly one `index.tsv` line per disk
//!    hit unless it compacts, the file never holds more than
//!    `2 × entries + 1024` lines, and a final reopen finds the same entry
//!    set — the count-based guard that a load costs O(1).
//! 3. **Eviction correctness.** Under a deliberately tiny byte bound the
//!    store honors the bound, evicts deterministically, and a partially
//!    warm session still compiles byte-identically.
//! 4. **Corruption is a miss.** With one payload byte of every resident
//!    frame flipped in the pack, a fresh session still produces
//!    byte-identical schedules — corrupt payloads are quarantined and
//!    recomputed, never trusted.

use std::fmt::Write as _;
use std::os::unix::fs::FileExt;
use std::path::Path;

use dmc_core::{Options, Session, SessionStats, StoreStats};
use dmc_store::DiskStore;

use crate::{workloads, LIMIT};

/// Opens the store at `dir`, bounded to `max_bytes` when given.
pub fn open(dir: &Path, max_bytes: Option<u64>) -> Result<DiskStore, String> {
    DiskStore::open(dir, max_bytes)
        .map_err(|e| format!("cannot open store at {}: {e}", dir.display()))
}

/// Serves every workload through one session backed by `store`, and
/// returns the canonical schedule renderings plus the session's stats.
pub fn sweep(store: DiskStore) -> Result<(Vec<String>, SessionStats, StoreStats), String> {
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
            .map_err(|e| format!("{}: serve failed: {e}", w.name))?;
        schedules.push(format!("{:?}", outcome.schedule));
    }
    let store_stats = session.store_stats().ok_or("no store attached")?;
    Ok((schedules, session.stats().clone(), store_stats))
}

/// Record lines in the store's `index.tsv` (the header is not one).
fn index_lines(dir: &Path) -> Result<u64, String> {
    let text = std::fs::read_to_string(dir.join("index.tsv"))
        .map_err(|e| format!("cannot read index.tsv: {e}"))?;
    Ok((text.lines().count() as u64).saturating_sub(1))
}

/// Flips one payload byte — the middle one — in every resident frame of
/// the store at `dir`, in place in its pack.
fn corrupt_all(dir: &Path) -> Result<usize, String> {
    let store = open(dir, None)?;
    let keys = store.keys();
    let Some(&(stage, key)) = keys.first() else {
        return Ok(0);
    };
    let pack = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(store.path_of(stage, key))
        .map_err(|e| format!("cannot open the pack: {e}"))?;
    let mut corrupted = 0;
    for (stage, key) in keys {
        let Some(payload) = store.payload_range(stage, key) else {
            continue;
        };
        let at = payload.start + (payload.end - payload.start) / 2;
        let mut byte = [0u8];
        if pack.read_exact_at(&mut byte, at).is_ok() && pack.write_all_at(&[!byte[0]], at).is_ok() {
            corrupted += 1;
        }
    }
    Ok(corrupted)
}

/// The battery: clears `dir`, then runs the four passes of the module
/// documentation in it. Returns one line per pass.
pub fn check(dir: &Path) -> Result<String, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut out = String::new();

    // Pass 1: cold store, cold memory — everything is computed and
    // written through.
    let (cold_schedules, cold_stats, cold_store) = sweep(open(dir, None)?)?;
    ensure!(
        cold_store.bytes_written > 0 && cold_store.entries > 0,
        "cold pass wrote nothing to the store"
    );
    ensure!(
        cold_stats.stage_disk_hits == 0,
        "cold pass cannot hit the disk layer"
    );
    ensure!(
        cold_store.corrupt == 0,
        "cold pass flagged corruption in its own writes"
    );
    let _ = writeln!(
        out,
        "cold: {} entries, {} payload bytes, {} stage miss(es)",
        cold_store.entries, cold_store.bytes, cold_stats.stage_misses
    );

    // Pass 2: warm store, cold memory — a fresh session must re-serve
    // everything from disk, byte-identically.
    let (warm_schedules, warm_stats, warm_store) = sweep(open(dir, None)?)?;
    ensure!(
        warm_schedules == cold_schedules,
        "warm-start schedules diverge from the cold pass"
    );
    ensure!(
        warm_stats.stage_misses == 0,
        "warm start recomputed {} stage(s)",
        warm_stats.stage_misses
    );
    let lookups = warm_stats.stage_hits + warm_stats.stage_misses;
    ensure!(
        2 * warm_stats.stage_disk_hits >= lookups,
        "only {}/{} warm lookups served from disk (need >= half)",
        warm_stats.stage_disk_hits,
        lookups
    );
    ensure!(
        warm_store.corrupt == 0,
        "warm pass flagged corruption in a clean store"
    );
    // Store what a request loads: every artifact the cold pass wrote, the
    // warm pass of the same requests reads back.
    ensure!(
        warm_store.hits == cold_store.entries && warm_store.bytes_read == cold_store.bytes_written,
        "warm pass loaded {} artifact(s) / {} byte(s) of the {} / {} the cold pass wrote",
        warm_store.hits,
        warm_store.bytes_read,
        cold_store.entries,
        cold_store.bytes_written
    );
    let _ = writeln!(
        out,
        "warm: byte-identical schedules, {}/{} lookups from disk, 0 recomputed, \
         {} byte(s) read = written",
        warm_stats.stage_disk_hits, lookups, warm_store.bytes_read
    );

    // Index sweep: the index is an append-only log, so a warm sweep may
    // add one line per disk hit and nothing else, and compaction keeps
    // the file within a constant of twice the entry set.
    let entries = open(dir, None)?.keys();
    let line_bound = 2 * entries.len() as u64 + 1024;
    let mut lines = index_lines(dir)?;
    for round in 1..=8 {
        let (schedules, stats, store) = sweep(open(dir, None)?)?;
        ensure!(
            schedules == cold_schedules,
            "index sweep {round}: schedules diverge from the cold pass"
        );
        ensure!(
            stats.stage_misses == 0 && store.corrupt == 0,
            "index sweep {round}: {} stage(s) recomputed, {} corrupt",
            stats.stage_misses,
            store.corrupt
        );
        let now = index_lines(dir)?;
        ensure!(
            now <= line_bound,
            "index sweep {round}: index.tsv holds {now} lines, over 2 x {} entries + 1024",
            entries.len()
        );
        let appended = lines + store.hits;
        let compacted = now < appended && now >= store.entries;
        ensure!(
            now == appended || compacted,
            "index sweep {round}: {} disk hit(s) took index.tsv from {lines} to {now} lines",
            store.hits
        );
        lines = now;
    }
    ensure!(
        open(dir, None)?.keys() == entries,
        "index sweeps changed the entry set"
    );
    let _ = writeln!(
        out,
        "index: 8 warm sweeps byte-identical, index.tsv at {lines} line(s) for {} entries \
         (bound {line_bound}), entry set unchanged",
        entries.len()
    );

    // Pass 3: a tiny byte bound forces evictions; the bound must hold,
    // and a partially warm session must still compile byte-identically.
    let tiny_dir = dir.join("tiny");
    let bound = 16 * 1024;
    let (tiny_schedules, _, tiny_store) = sweep(open(&tiny_dir, Some(bound))?)?;
    ensure!(
        tiny_schedules == cold_schedules,
        "schedules diverge under an evicting store"
    );
    ensure!(
        tiny_store.evictions > 0,
        "a {bound}-byte bound evicted nothing (store holds {} bytes)",
        tiny_store.bytes
    );
    ensure!(
        tiny_store.bytes <= bound,
        "store holds {} bytes, over the {bound}-byte bound",
        tiny_store.bytes
    );
    let (retiny_schedules, _, retiny_store) = sweep(open(&tiny_dir, Some(bound))?)?;
    ensure!(
        retiny_schedules == cold_schedules,
        "schedules diverge warm-starting from an evicted store"
    );
    ensure!(
        retiny_store.bytes <= bound,
        "evicted store exceeded its bound on reuse"
    );
    let _ = writeln!(
        out,
        "eviction: bound {bound} held ({} bytes resident, {} eviction(s)), \
         schedules identical",
        tiny_store.bytes, tiny_store.evictions
    );

    // Pass 4: corrupt every artifact; a fresh session must quarantine,
    // recompute, and still match byte-for-byte.
    let flipped = corrupt_all(dir)?;
    ensure!(flipped > 0, "corruption pass found no resident frames");
    let (post_schedules, post_stats, post_store) = sweep(open(dir, None)?)?;
    ensure!(
        post_schedules == cold_schedules,
        "schedules diverge after corruption injection"
    );
    ensure!(
        post_store.corrupt > 0,
        "no corrupt loads counted after flipping {flipped} frame(s)"
    );
    ensure!(
        post_stats.stage_disk_hits == 0,
        "a corrupted artifact was served as a disk hit"
    );
    let quarantined = open(dir, None)?.quarantined().map_or(0, |q| q.len());
    ensure!(
        quarantined >= post_store.corrupt as usize,
        "{} corrupt load(s) but only {} file(s) quarantined",
        post_store.corrupt,
        quarantined
    );
    let _ = write!(
        out,
        "corruption: {} corrupt load(s) all clean misses, {} file(s) quarantined, \
         schedules identical",
        post_store.corrupt, quarantined
    );
    Ok(out)
}
