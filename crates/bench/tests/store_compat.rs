//! Store keys are stable across codec versions, and payloads are pinned
//! at the current one. Shown without a committed directory: one small
//! request is served into an empty [`DiskStore`], and every artifact it
//! leaves must sit under the key, and hold the payload, recorded below.
//! An equal key means a directory written by an earlier build is looked
//! up where it was; an equal payload fingerprint means this build writes
//! exactly the bytes recorded for `CODEC_VERSION` 4. A directory written
//! at an earlier codec version no longer serves: its files are found
//! under the same keys, and each load of one is a miss that removes it.

use dmc_bench::figure2_input;
use dmc_core::{ArtifactStore, CompileInput, Options, Session};
use dmc_store::DiskStore;

const FIGURE2_SRC: &str = "param T, N; array X[N + 1];
for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }";

/// `(stage tag, key fingerprint, FNV-1a/128 of the payload)` of what this
/// test's request stores. The keys were recorded at commit 9b36833, the
/// last with seven stages, less the three retired tags' lines (1
/// `stmt-info`, 3 `commsets`, 5 `aggregate`); one has moved since: the
/// `schedule` key (stage 6) took a fresh outer tag when the planner began
/// deciding aggregation legality per chunk instead of by a dry run, so no
/// store serves a plan of the old rule. Keys do not depend on the codec.
/// The payload fingerprints are those of `CODEC_VERSION` 4 (varint
/// integers, sparse constraint rows, a values-mode payload as one table).
/// All four moved from version 3 by their version byte alone: this
/// request stores a timing-mode schedule, which carries no payload. Every
/// one moved from versions 1 and 2, and none moved with the planner's
/// rule, since Figure 2's plan is the same under both.
const SEVEN_STAGE_ARTIFACTS: [(u8, u128, u128); 4] = [
    (
        0,
        0x0840bf8585df581e69f48e49810d9057,
        0x9922892eba5383df9d5e5134008792f1,
    ),
    (
        2,
        0x65c0d40bfd5d6bbfadf0a32d517f83ef,
        0x92301259c7b6cc8dd70bb894e5ce77e8,
    ),
    (
        4,
        0x4f0bcf57fc8685d23220ae112ad3db8b,
        0xe6f1f5fae3584ee24293e19cb6a15d5a,
    ),
    (
        6,
        0xf3e0cc22b2f19bd5dc25e34bb206e69d,
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
        // The file's last 16 bytes are the payload fingerprint; a load
        // re-derives it from the payload and rejects a mismatch.
        let bytes = std::fs::read(store.path_of(stage, key)).expect("artifact file");
        let mut fp = [0u8; 16];
        fp.copy_from_slice(&bytes[bytes.len() - 16..]);
        assert!(store.load(stage, key).is_some(), "{stage:?} verifies");
        stored.push((stage.tag(), key.0, u128::from_le_bytes(fp)));
    }
    assert_eq!(stored, SEVEN_STAGE_ARTIFACTS);
}
