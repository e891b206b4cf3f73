//! Store keys and payloads are pinned at this build. Shown without a
//! committed directory: one small request is served into an empty
//! [`DiskStore`], and every artifact it leaves must sit under the key, and
//! hold the payload, recorded below. A key is the FNV-1a/128 of a key-kind
//! byte and the stage's inputs in their codec encodings, so it follows the
//! IR's encoding: a change to a `Codec` impl of the IR or of a
//! decomposition's key bytes moves these keys, and orphans the entries of
//! every existing store directory (a bounded store evicts them, an
//! unbounded one keeps them until it is cleared). An equal payload
//! fingerprint means this build writes exactly the bytes recorded for
//! `CODEC_VERSION` 4. A directory written at an earlier codec version no
//! longer serves: each load of one of its frames is a miss that tombstones
//! it.

use std::os::unix::fs::FileExt;

use dmc_bench::figure2_input;
use dmc_core::{ArtifactStore, CompileInput, Options, Session};
use dmc_store::DiskStore;

const FIGURE2_SRC: &str = "param T, N; array X[N + 1];
for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }";

/// `(stage tag, key fingerprint, FNV-1a/128 of the payload)` of what this
/// test's request stores: `parse`, `lwt`, `opt` and `schedule` (the
/// retired tags 1, 3 and 5 are never reused). The keys were recorded when
/// stage keys became hashes of codec bytes; each moved then from its
/// tagged-stream value, and the `opt` and `schedule` keys lost their inner
/// links. The payload fingerprints are those of `CODEC_VERSION` 4 (varint
/// integers, sparse constraint rows, a values-mode payload as one table)
/// and did not move with the keys.
const ARTIFACTS: [(u8, u128, u128); 4] = [
    (
        0,
        0xfe8da73796e1ff6e26fe46ff3a64f895,
        0x9922892eba5383df9d5e5134008792f1,
    ),
    (
        2,
        0x1d1f1cb3b668b8a8754bb09131ceb371,
        0x92301259c7b6cc8dd70bb894e5ce77e8,
    ),
    (
        4,
        0x95e9ddbe2d3e0b7d1703f8e9639ba7ff,
        0xe6f1f5fae3584ee24293e19cb6a15d5a,
    ),
    (
        6,
        0x7f73a081be068ca63bcce55349078989,
        0x20c217c5934a18272f64e544bf74976b,
    ),
];

#[test]
fn surviving_stages_keep_their_keys_and_payloads() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("store-compat");
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = Session::new();
    session.attach_store(Box::new(DiskStore::open(&dir, None).expect("open store")));
    let program = session.parse(FIGURE2_SRC).expect("figure 2 parses");
    let input = CompileInput {
        program,
        ..figure2_input(4)
    };
    session
        .serve("figure2", input, Options::full(), &[3, 127], 50_000_000)
        .expect("serves");
    drop(session);

    let mut store = DiskStore::open(&dir, None).expect("reopen store");
    let mut stored = Vec::new();
    for (stage, key) in store.keys() {
        // The 16 bytes after a frame's payload are its fingerprint; a load
        // re-derives it from the payload and rejects a mismatch.
        let payload = store.payload_range(stage, key).expect("a resident frame");
        let pack = std::fs::File::open(store.path_of(stage, key)).expect("the pack");
        let mut fp = [0u8; 16];
        pack.read_exact_at(&mut fp, payload.end)
            .expect("the frame's trailing fingerprint");
        assert!(store.load(stage, key).is_some(), "{stage:?} verifies");
        stored.push((stage.tag(), key.0, u128::from_le_bytes(fp)));
    }
    assert_eq!(stored, ARTIFACTS);
}
