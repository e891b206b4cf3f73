//! The pluggable artifact store behind [`Session`](crate::Session).
//!
//! A session's stage artifacts live behind the [`ArtifactStore`] trait:
//! a typed load/store interface keyed by ([`StageId`], [`Fingerprint`]).
//! The in-repo backend is the `dmc-store` crate's log-structured on-disk
//! `DiskStore`. A session keeps its own artifacts in a plain in-process
//! map and layers an attached backend under it: memory first, then disk,
//! with disk hits promoted into memory and every new artifact written
//! through to both.
//!
//! ## Payload framing
//!
//! [`Artifact::encode_payload`] frames every payload as
//!
//! ```text
//! [ CODEC_VERSION : u8 ][ stage tag : u8 ][ Codec body … ]
//! ```
//!
//! so a payload is self-describing down to the schema that produced it.
//! [`Artifact::decode_payload`] rejects version or stage mismatches
//! before touching the body; a backend treats any [`CodecError`] as a
//! miss (the artifact is recomputed), never as data. Bumping
//! [`CODEC_VERSION`] therefore invalidates every persisted artifact at
//! once — the versioning discipline that lets the codecs evolve without
//! risking a silent misparse of old bytes. (The disk store reads the
//! version byte itself, after its integrity check, so an artifact of an
//! older version is a plain miss there, not corruption.)

use std::sync::Arc;

use dmc_commgen::CommSet;
use dmc_dataflow::LastWriteTree;
use dmc_ir::fp::Fingerprint;
use dmc_ir::Program;
use dmc_machine::Schedule;
use dmc_polyhedra::codec::{decode_from_slice, Codec, CodecError, Enc};

use crate::session::stage;

/// The artifact payload schema version. Bumped whenever any [`Codec`]
/// impl changes its byte layout; every persisted artifact from an older
/// version then decodes as a clean miss.
///
/// History: 1, fixed-width integers (8-byte `u64`, 16-byte `i128`);
/// 2, LEB128 `u64` and zigzag LEB128 `i128`; 3, sparse constraint rows
/// (the memo caches' layout: non-zero coefficients only) and a
/// polyhedron's contradiction flag beside its row count; 4, a values-mode
/// message's payload as one table (array, writer, row width, flat rows of
/// writer iteration and subscripts) instead of per-item name, subscripts
/// and stamp.
pub const CODEC_VERSION: u8 = 4;

/// A stage in the session's compilation DAG, as a store key component.
/// The numeric [tag](StageId::tag) is part of the persisted payload
/// framing and of the on-disk file names, so a tag is never renumbered
/// and never reused. Tags 1, 3 and 5 are **retired**: they belonged to
/// the `stmt-info`, `commsets` and `aggregate` stages, whose artifacts
/// cost more to store than any request saved by loading them. A store
/// directory written while they existed still holds such entries; no
/// [`StageId`] names them, so they are never looked up and a bounded
/// store evicts them like any other entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StageId {
    /// Source text → [`Program`].
    Parse,
    /// One read's Last Write Tree.
    Lwt,
    /// One read's §6-optimized communication sets.
    Opt,
    /// The legality-refined machine schedule.
    Schedule,
}

impl StageId {
    /// Every stage, in pipeline order.
    pub const ALL: [StageId; 4] = [
        StageId::Parse,
        StageId::Lwt,
        StageId::Opt,
        StageId::Schedule,
    ];

    /// The stable numeric tag used in payload framing and store frames.
    pub fn tag(self) -> u8 {
        match self {
            StageId::Parse => 0,
            StageId::Lwt => 2,
            StageId::Opt => 4,
            StageId::Schedule => 6,
        }
    }

    /// The inverse of [`StageId::tag`]; `None` for a retired or unknown
    /// tag.
    pub fn from_tag(tag: u8) -> Option<StageId> {
        StageId::ALL.into_iter().find(|s| s.tag() == tag)
    }

    /// The stage name as it appears in stats and `stage.*` events.
    pub fn name(self) -> &'static str {
        match self {
            StageId::Parse => stage::PARSE,
            StageId::Lwt => stage::LWT,
            StageId::Opt => stage::OPT,
            StageId::Schedule => stage::SCHEDULE,
        }
    }
}

/// One cached stage output, shared out as [`Arc`] clones. The variant is
/// determined by the stage.
#[derive(Clone, Debug)]
pub enum Artifact {
    /// A parsed program (`parse`).
    Program(Arc<Program>),
    /// One read's Last Write Tree (`lwt`).
    Lwt(Arc<LastWriteTree>),
    /// One read's optimized communication sets (`opt`).
    CommSets(Arc<Vec<CommSet>>),
    /// A machine schedule (`schedule`).
    Schedule(Arc<Schedule>),
}

impl Artifact {
    /// Encodes the artifact as a framed, deterministic payload:
    /// `[CODEC_VERSION][stage tag][Codec body]`. Equal artifacts encode
    /// to equal bytes on every host and run.
    pub fn encode_payload(&self, stage: StageId) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(CODEC_VERSION);
        e.u8(stage.tag());
        match self {
            Artifact::Program(v) => v.encode(&mut e),
            Artifact::Lwt(v) => v.encode(&mut e),
            Artifact::CommSets(v) => v.encode(&mut e),
            Artifact::Schedule(v) => v.encode(&mut e),
        }
        e.into_bytes()
    }

    /// Decodes a framed payload back into the artifact for `stage`.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a version or stage-tag mismatch, a truncated or
    /// corrupt body, or trailing bytes. Callers treat every error as a
    /// store miss.
    pub fn decode_payload(stage: StageId, bytes: &[u8]) -> Result<Artifact, CodecError> {
        let [version, tag, body @ ..] = bytes else {
            return Err(CodecError::Truncated {
                need: 2,
                have: bytes.len(),
            });
        };
        if *version != CODEC_VERSION {
            return Err(CodecError::Invalid("codec version mismatch"));
        }
        if *tag != stage.tag() {
            return Err(CodecError::Invalid("stage tag mismatch"));
        }
        Ok(match stage {
            StageId::Parse => Artifact::Program(Arc::new(decode_from_slice(body)?)),
            StageId::Lwt => Artifact::Lwt(Arc::new(decode_from_slice(body)?)),
            StageId::Opt => Artifact::CommSets(Arc::new(decode_from_slice(body)?)),
            StageId::Schedule => Artifact::Schedule(Arc::new(decode_from_slice(body)?)),
        })
    }
}

/// Which layer of a layered store served an artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreSource {
    /// The session's own in-process map.
    Memory,
    /// An attached persistent backend.
    Disk,
}

/// Cumulative counters for one store backend. Everything here is a
/// deterministic function of the operation sequence the backend served,
/// so snapshots of these counters can be compared exactly across runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads that returned an artifact.
    pub hits: u64,
    /// Loads that found nothing.
    pub misses: u64,
    /// Loads that found bytes but rejected them (fingerprint mismatch or
    /// decode failure) — counted *in addition to* a miss.
    pub corrupt: u64,
    /// Entries evicted to honor the size bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Payload bytes currently resident.
    pub bytes: u64,
    /// Payload bytes written over the backend's lifetime.
    pub bytes_written: u64,
    /// Payload bytes read (and accepted) over the backend's lifetime.
    pub bytes_read: u64,
}

/// A typed artifact store: the backend interface behind a session. The
/// in-repo implementation is the `dmc-store` crate's `DiskStore`.
///
/// Implementations must be deterministic — the same operation sequence
/// produces the same loads, evictions and [`StoreStats`] on every run —
/// and must treat undecodable payloads as misses, never as data.
pub trait ArtifactStore: std::fmt::Debug + Send {
    /// Loads the artifact stored for `(stage, key)`, if any.
    fn load(&mut self, stage: StageId, key: Fingerprint) -> Option<Artifact>;

    /// Whether `(stage, key)` is present, without loading (or counting a
    /// hit or miss).
    fn contains(&mut self, stage: StageId, key: Fingerprint) -> bool;

    /// Stores an artifact under `(stage, key)`, replacing any previous
    /// entry.
    fn store(&mut self, stage: StageId, key: Fingerprint, artifact: &Artifact);

    /// The backend's cumulative counters.
    fn stats(&self) -> StoreStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_tags_round_trip() {
        for s in StageId::ALL {
            assert_eq!(StageId::from_tag(s.tag()), Some(s));
        }
        assert_eq!(StageId::ALL.map(StageId::tag), [0, 2, 4, 6]);
        // Retired tags (1, 3, 5) and unknown ones name no stage.
        for tag in [1, 3, 5, 7] {
            assert_eq!(StageId::from_tag(tag), None);
        }
    }

    #[test]
    fn payload_framing_round_trips_and_rejects_mismatches() {
        let p = dmc_ir::parse("param N; array A[N]; for i = 0 to N - 1 { A[i] = 1.0; }").unwrap();
        let art = Artifact::Program(Arc::new(p.clone()));
        let bytes = art.encode_payload(StageId::Parse);
        assert_eq!(bytes[0], CODEC_VERSION);
        assert_eq!(bytes[1], StageId::Parse.tag());
        let back = Artifact::decode_payload(StageId::Parse, &bytes).expect("decodes");
        match back {
            Artifact::Program(q) => assert_eq!(*q, p),
            other => panic!("wrong variant: {other:?}"),
        }
        // Wrong stage: the frame is rejected before the body is touched.
        assert!(Artifact::decode_payload(StageId::Lwt, &bytes).is_err());
        // Wrong version: a schema bump invalidates old payloads.
        let mut stale = bytes.clone();
        stale[0] ^= 0xFF;
        assert!(Artifact::decode_payload(StageId::Parse, &stale).is_err());
        // Truncation anywhere is an error, not a short value.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(Artifact::decode_payload(StageId::Parse, &bytes[..cut]).is_err());
        }
    }
}
