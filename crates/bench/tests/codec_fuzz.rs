//! Hostile bytes into the artifact codecs: every registry workload is
//! served at its test size through a store that records each artifact it
//! is handed (all four stages), its values-mode schedule is built through
//! the same session (so payload tables are recorded too, not only the
//! timing-mode schedules `serve` stores), and each recorded payload is then mutated
//! by bit flips, byte overwrites and truncations. A mutated payload must
//! decode to an error or to an artifact that re-encodes to exactly the
//! mutated bytes: decoding never panics, and the codec accepts one
//! encoding per value, so a misread cannot hide behind a round trip. The
//! program texts are mutated the same ways — the registry's, printed,
//! and one of each corpus family — and by token and numeral insertions
//! besides: each mutant parses to a program that prints and re-parses to
//! itself, or is a `ParseError`, never a panic. And so is a populated
//! `DiskStore`'s `index.tsv`, with its own tokens: each mutant opens (or
//! is an I/O error), replays to the same keys when opened again, and
//! serves every key the bytes stored under it, or a miss.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

use dmc_bench::test_workloads;
use dmc_core::{Artifact, ArtifactStore, CompileInput, Options, Session, StageId, StoreStats};
use dmc_ir::fp::Fingerprint;
use dmc_store::DiskStore;

/// Mutations per recorded payload, of each of the three kinds.
const MUTATIONS: usize = 256;

/// A stage and the payload stored for it.
type Payload = (StageId, Vec<u8>);

/// A store that serves nothing and keeps the payload of every store; the
/// test holds one clone while the session owns another.
#[derive(Debug, Default, Clone)]
struct Recording(Arc<Mutex<Vec<Payload>>>);

impl ArtifactStore for Recording {
    fn load(&mut self, _: StageId, _: Fingerprint) -> Option<Artifact> {
        None
    }
    fn contains(&mut self, _: StageId, _: Fingerprint) -> bool {
        false
    }
    fn store(&mut self, stage: StageId, _: Fingerprint, artifact: &Artifact) {
        let payload = artifact.encode_payload(stage);
        self.0.lock().unwrap().push((stage, payload));
    }
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }
}

/// xorshift64* — the repo's dependency-free test PRNG.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n.max(1) as u64) as usize
    }
}

/// Mutates `bytes` in place by the `n`th of the three kinds: a bit flip,
/// a byte overwrite or a truncation.
fn mutate(bytes: &mut Vec<u8>, n: usize, rng: &mut XorShift) {
    let at = rng.below(bytes.len());
    match n % 3 {
        0 => bytes[at] ^= 1 << rng.below(8),
        1 => bytes[at] = rng.below(256) as u8,
        _ => bytes.truncate(at),
    }
}

/// What the registry's test-size requests leave: the payload of every
/// artifact they store. Recorded once and shared by the tests.
fn recorded() -> &'static Vec<Payload> {
    static RECORDED: OnceLock<Vec<Payload>> = OnceLock::new();
    RECORDED.get_or_init(record)
}

fn record() -> Vec<Payload> {
    let recording = Recording::default();
    let mut session = Session::new();
    session.attach_store(Box::new(recording.clone()));
    for w in test_workloads() {
        let input = (w.input)(w.nproc);
        let program = session
            .parse(&input.program.to_string())
            .unwrap_or_else(|e| panic!("{}: printed program parses: {e}", w.name));
        let input = CompileInput { program, ..input };
        let served = session
            .serve(w.name, input, Options::full(), &w.params, 50_000_000)
            .unwrap_or_else(|e| panic!("{}: serves: {e}", w.name));
        session
            .build_schedule(&served.compiled, &w.params, true, 50_000_000)
            .unwrap_or_else(|e| panic!("{}: values-mode schedule: {e}", w.name));
    }
    drop(session);
    let payloads = std::mem::take(&mut *recording.0.lock().unwrap());
    payloads
}

#[test]
fn mutated_payloads_never_panic_and_decode_only_canonically() {
    let payloads = recorded();
    let stages: BTreeSet<u8> = payloads.iter().map(|(s, _)| s.tag()).collect();
    assert_eq!(
        stages,
        StageId::ALL.map(StageId::tag).into(),
        "every stage recorded"
    );
    let tables = payloads
        .iter()
        .filter(|(stage, _)| *stage == StageId::Schedule)
        .filter(
            |(stage, bytes)| match Artifact::decode_payload(*stage, bytes) {
                Ok(Artifact::Schedule(s)) => s.messages.iter().any(|m| m.payload.is_some()),
                _ => false,
            },
        )
        .count();
    assert_eq!(
        tables,
        test_workloads().len(),
        "a values-mode schedule per workload"
    );
    let mut rng = XorShift(0x5EED_C0DEC);
    let (mut decoded, mut refused) = (0, 0);
    for (stage, bytes) in payloads {
        for n in 0..3 * MUTATIONS {
            let mut m = bytes.clone();
            mutate(&mut m, n, &mut rng);
            match Artifact::decode_payload(*stage, &m) {
                Ok(artifact) => {
                    assert!(
                        artifact.encode_payload(*stage) == m,
                        "{stage:?}: mutation {n} of a {}-byte payload decoded to a value \
                         that re-encodes to other bytes",
                        bytes.len()
                    );
                    decoded += 1;
                }
                Err(_) => refused += 1,
            }
        }
    }
    // Not vacuous: some mutations land in values and decode, most break
    // the structure.
    assert!(
        decoded > 0 && refused > decoded,
        "{decoded} decoded, {refused} refused"
    );
}

/// One program of each corpus family (`benchmark/src/corpus.rs`), with
/// the constant the benchmark draws fixed.
const CORPUS: [&str; 6] = [
    "param T, N; array X[N + 1];
for t = 0 to T { for i = 2 to N { X[i] = 0.25 * X[i - 2]; } }
",
    "param T, N; array X[N + 1];
for t = 0 to T { for i = 3 to N { X[i] = 0.25 * f(X[i], X[i - 1], X[i - 2], X[i - 3]); } }
",
    "param T, N; array X[N + 1];
for t = 0 to T { for i = 1 to N - 1 { X[i] = 0.25 * (X[i] + X[i - 1] + X[i + 1]); } }
",
    "param N; array A[N][N]; array B[N][N];
for i = 0 to N - 1 { for j = 0 to N - 1 { B[i][j] = 0.25 * A[j][i]; } }
",
    "# 0.25
param N; array X[N + 1][N + 1];
for i1 = 0 to N {
  for i2 = i1 + 1 to N {
    X[i2][i1] = X[i2][i1] / X[i1][i1];
    for i3 = i1 + 1 to N {
      X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
    }
  }
}
",
    "param N; array L[N][N]; array Y[N];
for i = 1 to N - 1 { for j = 0 to i - 1 { Y[i] = Y[i] - 0.25 * L[i][j] * Y[j]; } }
",
];

/// What [`mutate_text`] inserts into a program: tokens, and numerals at
/// and past the ends of `i128` and of a finite `f64`.
const SNIPPETS: [&str; 12] = [
    "170141183460469231731687303715884105727",
    "170141183460469231731687303715884105728",
    "999999999999999999999999999999999999999999",
    "0.",
    "- ",
    " * N",
    "for i = 0 to N { ",
    "}",
    "[i]",
    ";",
    " to ",
    "(",
];

/// Mutates a text by the `n`th of four kinds: the three of [`mutate`], or
/// one to three insertions from `snippets`.
fn mutate_text(text: &mut Vec<u8>, n: usize, rng: &mut XorShift, snippets: &[&str]) {
    if n % 4 < 3 {
        mutate(text, n, rng);
    } else {
        for _ in 0..=rng.below(3) {
            let at = rng.below(text.len() + 1);
            let snippet = snippets[rng.below(snippets.len())];
            text.splice(at..at, snippet.bytes());
        }
    }
}

#[test]
fn mutated_programs_parse_and_reprint_or_refuse_without_panic() {
    let registry = test_workloads()
        .into_iter()
        .map(|w| (w.input)(w.nproc).program.to_string());
    let texts: Vec<String> = registry.chain(CORPUS.map(str::to_owned)).collect();
    let mut rng = XorShift(0x5EED_9A25);
    let (mut parsed, mut refused) = (0, 0);
    for text in &texts {
        dmc_ir::parse(text).expect("the unmutated program parses");
        for n in 0..4 * MUTATIONS {
            let mut m = text.clone().into_bytes();
            mutate_text(&mut m, n, &mut rng, &SNIPPETS);
            let m = String::from_utf8_lossy(&m);
            match dmc_ir::parse(&m) {
                Ok(program) => {
                    let printed = program.to_string();
                    let again = dmc_ir::parse(&printed).unwrap_or_else(|e| {
                        panic!("mutant {m:?} prints as {printed:?}, which does not parse: {e}")
                    });
                    assert_eq!(again, program, "mutant {m:?} reprints as {printed:?}");
                    parsed += 1;
                }
                Err(_) => refused += 1,
            }
        }
    }
    // Not vacuous: some mutations land in a constant, a comment or a
    // bound and parse, most break the program.
    assert!(
        parsed > 0 && refused > parsed,
        "{parsed} parsed, {refused} refused"
    );
}

/// What [`mutate_text`] inserts into a store's `index.tsv`: its
/// separators, a tombstone, the header, and numerals at and past the ends
/// of a sequence number (`u64`), a stage tag (`u8`) and a key (`u128`).
const INDEX_SNIPPETS: [&str; 12] = [
    "\t",
    "\n",
    "-",
    "\t-\n",
    "dmc-store v1\n",
    "0",
    "256",
    "18446744073709551615",
    "18446744073709551616",
    "ffffffffffffffffffffffffffffffff",
    "fffffffffffffffffffffffffffffffff",
    "\r",
];

#[test]
fn mutated_store_indexes_open_and_serve_only_stored_bytes() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("index-fuzz");
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = Session::new();
    session.attach_store(Box::new(DiskStore::open(&dir, None).expect("open store")));
    for w in test_workloads() {
        let input = (w.input)(w.nproc);
        session
            .serve(w.name, input, Options::full(), &w.params, 50_000_000)
            .unwrap_or_else(|e| panic!("{}: serves: {e}", w.name));
    }
    drop(session);

    // What was stored: every key's payload, read through a sound index.
    let index = dir.join("index.tsv");
    let log = std::fs::read(&index).expect("the index");
    let mut store = DiskStore::open(&dir, None).expect("reopen store");
    let stored: BTreeMap<_, _> = store
        .keys()
        .into_iter()
        .map(|(stage, key)| {
            let artifact = store.load(stage, key).expect("a stored artifact loads");
            ((stage, key), artifact.encode_payload(stage))
        })
        .collect();
    drop(store);
    assert!(stored.len() > 8, "{} entries stored", stored.len());

    let mut rng = XorShift(0x5EED_1DE7);
    let (mut served, mut missed) = (0, 0);
    for n in 0..4 * MUTATIONS {
        let mut m = log.clone();
        mutate_text(&mut m, n, &mut rng, &INDEX_SNIPPETS);
        std::fs::write(&index, &m).expect("write the mutant");
        let Ok(first) = DiskStore::open(&dir, None) else {
            continue;
        };
        let keys = first.keys();
        drop(first);
        let mut store = DiskStore::open(&dir, None).expect("reopen a replayed index");
        assert_eq!(store.keys(), keys, "mutant {n} replays to other keys");
        let asked: BTreeSet<_> = keys.into_iter().chain(stored.keys().copied()).collect();
        for (stage, key) in asked {
            match store.load(stage, key) {
                Some(artifact) => {
                    assert!(
                        stored.get(&(stage, key)) == Some(&artifact.encode_payload(stage)),
                        "mutant {n}: {stage:?} {key:?} serves bytes it was not stored with"
                    );
                    served += 1;
                }
                None => missed += 1,
            }
        }
    }
    // Not vacuous: most mutants keep most entries, some lose some.
    assert!(
        served > missed && missed > 0,
        "{served} served, {missed} missed"
    );

    // The artifact files are untouched: the sound index serves them all.
    std::fs::write(&index, &log).expect("restore the index");
    let mut store = DiskStore::open(&dir, None).expect("reopen store");
    for ((stage, key), bytes) in &stored {
        let artifact = store.load(*stage, *key).expect("still stored");
        assert!(
            artifact.encode_payload(*stage) == *bytes,
            "{stage:?} {key:?}"
        );
    }
    assert!(store.quarantined().expect("the quarantine").is_empty());
}
