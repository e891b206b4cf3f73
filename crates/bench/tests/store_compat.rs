//! A store directory written before the stage graph went from seven
//! stages to four still serves the stages that remain, except the
//! `schedule` stage, whose key changed with the planner's legality rule.
//! Shown without a committed directory: one small request is served into
//! an empty [`DiskStore`], and every artifact it leaves must sit under the
//! key, and hold the payload, recorded below. An equal key means the old
//! file is the one a lookup opens; an equal payload fingerprint means it
//! passes the integrity check and decodes to what a recompute would store.

use dmc_bench::figure2_input;
use dmc_core::{ArtifactStore, CompileInput, Options, Session};
use dmc_store::DiskStore;

const FIGURE2_SRC: &str = "param T, N; array X[N + 1];
for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }";

/// `(stage tag, key fingerprint, FNV-1a/128 of the payload)` of what this
/// test's request stored at commit 9b36833, the last with seven stages —
/// printed by this test body there, less the three retired tags' lines
/// (1 `stmt-info`, 3 `commsets`, 5 `aggregate`). One row has moved since:
/// the `schedule` key (stage 6) took a fresh outer tag when the planner
/// began deciding aggregation legality per chunk instead of by a dry run,
/// so no store serves a plan of the old rule. Figure 2's plan is the same
/// under both rules, so that row's payload fingerprint is unchanged.
const SEVEN_STAGE_ARTIFACTS: [(u8, u128, u128); 4] = [
    (
        0,
        0x0840bf8585df581e69f48e49810d9057,
        0x60dce9cc162c49cb15796ac76835713e,
    ),
    (
        2,
        0x65c0d40bfd5d6bbfadf0a32d517f83ef,
        0x3f5ab865982a59fc1c9b182d30635242,
    ),
    (
        4,
        0x4f0bcf57fc8685d23220ae112ad3db8b,
        0xccbd803b360bdfb5560b50a11113d735,
    ),
    (
        6,
        0xf3e0cc22b2f19bd5dc25e34bb206e69d,
        0x4195daf7bb9fb4debc4b6cdb48bd0496,
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
