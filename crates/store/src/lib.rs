//! # dmc-store
//!
//! The persistent artifact store: an on-disk [`ArtifactStore`] backend for
//! [`dmc_core::Session`], so a fresh process warm-starts from the stage
//! artifacts earlier processes computed.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   index.tsv     # operation log: seq, stage, key, bytes, offset | -
//!   pack          # the artifacts: frames, appended
//!   quarantine/   # copies of corrupt frames, <tt>-<fp>.art
//! ```
//!
//! The store is log-structured, as in Bitcask: whatever the number of
//! entries, it is these two files and a directory. The **pack** holds one
//! frame per stored artifact, appended with a single `write_all` to a file
//! the store holds open for its lifetime:
//!
//! ```text
//! magic "DMCA" | format u8 | stage u8 | key fp 16B | len u64 | payload | payload fp 16B
//! ```
//!
//! where `payload` is the session's versioned codec framing
//! ([`Artifact::encode_payload`]) and `payload fp` is the FNV-1a/128 of
//! the payload bytes ([`dmc_ir::fp::fnv1a128`], no structural tagging:
//! the payload is already a canonical encoding). A load is one positioned
//! read (`pread`) of the frame the index names, on that same handle; the
//! store never reads the whole pack, so its memory is that of its index.
//!
//! `index.tsv` is an **append-only log**: the header line `dmc-store v2`,
//! then one line per mutation, written with a single `write_all` to a
//! file held open in append mode. A store or an LRU touch appends the
//! key's new state `seq\ttag\tfp\tbytes\toffset` (payload bytes, and where
//! the frame starts in the pack); a drop, eviction or quarantine appends a
//! tombstone `seq\ttag\tfp\t-`. [`DiskStore::open`] replays the log top to
//! bottom — the last line per key wins — so residency, recency and place
//! are all read off the one operation history, and a `load` or `store`
//! costs the same whether the store holds ten entries or ten thousand.
//!
//! The log is **compacted** — rewritten (write + rename) as one line per
//! resident entry, in sequence order — when it holds more than
//! `2 × entries + 1024` lines (checked at `open` and after every append),
//! and at `open` when it is missing, has a bad header, an unparsable line
//! or no trailing newline. A file with one line per entry and no
//! tombstones (what compaction writes) is itself a valid log.
//!
//! ## Dead bytes and compaction
//!
//! A frame no index record names is dead: an evicted, overwritten,
//! stale-codec or corrupt entry's, or one whose index line was lost. Dead
//! bytes stay in the pack until they exceed the live frames' bytes plus
//! 1 MiB; then (at `open` or after an append) the pack is **compacted**:
//! the live frames are copied in sequence order into a new file that is
//! renamed over the pack, and the log is rewritten to name their new
//! offsets. Both files' bytes are thus a pure function of the operation
//! history, and the pack stays within twice its live bytes plus a
//! constant.
//!
//! A directory in the per-file layout of earlier versions (one file per
//! artifact under `shards/`, staged through `tmp/`, and a `dmc-store v1`
//! index) opens as an empty store, and those two directories are removed:
//! the same one-time orphaning a key or codec change causes. Only a
//! `dmc-store v1` index vouches for them: under any other index (or none)
//! a `shards/` or `tmp/` in the root is not the store's and stays.
//!
//! ## Corruption is a miss
//!
//! [`DiskStore::load`] re-fingerprints every payload and fully decodes
//! it before trusting a single byte. Damage stays per entry:
//!
//! - A frame that names the requested key but fails its length,
//!   fingerprint or decode check counts as `corrupt`: its bytes are copied
//!   to `quarantine/` (for post-mortems; the store never reads them
//!   again), the entry is tombstoned, and the load reports a clean miss —
//!   the session recomputes the stage. A frame torn off at the pack's end
//!   fails its length check.
//! - An index record that names no frame of its key — an offset past the
//!   pack's end, at another key's frame or inside a frame, or a byte count
//!   a sound frame of the key disagrees with — is a fault of the index,
//!   not of a payload: a plain miss and a tombstone, nothing quarantined.
//!   A frame whose *header* is damaged (magic, format, stage or key bytes)
//!   cannot be told apart from such a misplaced record, so it too is a
//!   plain miss: `corrupt` counts damage to a frame's length, payload or
//!   trailing fingerprint only.
//! - A frame whose frame and payload fingerprint check out but whose
//!   payload starts with another [`dmc_core::CODEC_VERSION`] is not
//!   corrupt: an earlier build wrote it. It is a plain miss and a
//!   tombstone, so a codec bump turns an existing directory into misses
//!   that the next stores refill, not into a quarantine of every entry.
//!
//! The cache can therefore *never* alter compilation output, only its
//! speed; this is the safety argument for caching at all.
//!
//! A process that dies mid-append loses at most what was in flight. The
//! frame is appended before its index line: a torn frame has no line and
//! is dead bytes, and the next append starts after it. An unterminated
//! log fragment is discarded at the next `open`, which compacts the log so
//! the next record cannot fuse with it. A lost line costs recency, or
//! leaves a frame the index does not know; it cannot cost correctness,
//! because frames verify themselves.
//!
//! Compaction renames the new pack into place before it rewrites the log
//! to the new offsets. A crash between the two renames (or a failed log
//! rewrite) leaves a log whose records name the old offsets in the new
//! pack: nearly every record then misplaces, and the cache turns into
//! misses until the stores refill it. That costs the cache, never a
//! value. A live store whose log rewrite failed rewrites it at its next
//! commit, so it does not keep appending beside stale records.
//!
//! ## Deterministic LRU
//!
//! Recency is a logical sequence number carried by the log lines — never
//! a file mtime — so the eviction order is a pure function of the
//! operation history and replays identically on every filesystem, and so
//! do the bytes of `index.tsv` and of the pack (the compaction rules are
//! functions of the history too). Both loads and stores touch recency;
//! when a store pushes the resident payload bytes over the configured
//! bound, lowest-sequence entries are evicted until the bound holds again.
//! The bound is hard: the entry just written carries the highest sequence
//! number, so it goes last — a payload bigger than the whole bound is
//! simply never retained. Sequence numbers are unique, so there are no
//! ties to break.
//!
//! The store assumes a **single writer at a time** (the CLI tools open
//! it for one process's lifetime); it takes no locks. Two writers on one
//! directory cost recency, never correctness. Appends stay exact: the
//! pack is opened in append mode, so a frame lands at the file's real end
//! whatever the other writer appended, and its offset is read back from
//! the handle's position after the write, not from a cached length. Their
//! sequence numbers collide, so which entry is least recent is ambiguous
//! (compaction breaks ties by key); a compaction by one replaces the files
//! the other is appending to, so the other's later lines and frames are
//! lost; an entry one evicted is a plain miss for the other. Every such
//! outcome is a miss or a stale recency — a load still returns only bytes
//! that pass the frame, fingerprint and decode checks for the key asked
//! for.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read, Seek, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use dmc_core::{Artifact, ArtifactStore, StageId, StoreStats};
use dmc_ir::fp::{fnv1a128, Fingerprint, FNV_OFFSET};

/// The on-disk container format version (the outer framing, distinct
/// from [`dmc_core::CODEC_VERSION`], which versions the payload schema).
pub const FORMAT_VERSION: u8 = 1;

const MAGIC: &[u8; 4] = b"DMCA";
/// Bytes of framing around every payload: magic, format, stage, key
/// fingerprint, length, trailing payload fingerprint.
const HEADER_BYTES: usize = 4 + 1 + 1 + 16 + 8;
const TRAILER_BYTES: usize = 16;

/// First line of `index.tsv`; a file that starts with anything else is
/// not a log of this store.
const LOG_HEADER: &str = "dmc-store v2\n";
/// First line of the per-file layout's `index.tsv`: the sign that a
/// root's `shards/` and `tmp/` are that layout's leftovers.
const OLD_LOG_HEADER: &str = "dmc-store v1\n";
/// Lines the log may hold beyond two per resident entry before it is
/// compacted.
const LOG_SLACK_LINES: u64 = 1024;
/// Dead bytes the pack may hold beyond its live frames' bytes before it
/// is compacted.
const PACK_SLACK_BYTES: u64 = 1 << 20;

const INDEX_FILE: &str = "index.tsv";
const PACK_FILE: &str = "pack";

type Key = (u8, u128);

/// Where an entry's frame sits: its payload bytes and the frame's first
/// byte in the pack.
#[derive(Clone, Copy, Debug)]
struct Span {
    bytes: u64,
    offset: u64,
}

impl Span {
    /// The whole frame's bytes, if they fit a `u64`.
    fn frame_len(self) -> Option<u64> {
        self.bytes
            .checked_add((HEADER_BYTES + TRAILER_BYTES) as u64)
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    seq: u64,
    span: Span,
}

/// One line of the log: the state `key` is in from sequence number `seq`
/// on — resident with its frame at `span`, or (`None`) gone.
#[derive(Clone, Copy, Debug)]
struct Record {
    seq: u64,
    key: Key,
    span: Option<Span>,
}

impl Record {
    fn parse(line: &str) -> Option<Record> {
        let mut parts = line.split('\t');
        let seq = parts.next()?.parse::<u64>().ok()?;
        let tag = parts.next()?.parse::<u8>().ok()?;
        let fp = u128::from_str_radix(parts.next()?, 16).ok()?;
        let span = match parts.next()? {
            "-" => None,
            n => Some(Span {
                bytes: n.parse().ok()?,
                offset: parts.next()?.parse().ok()?,
            }),
        };
        Some(Record {
            seq,
            key: (tag, fp),
            span,
        })
    }

    fn write_line(&self, out: &mut String) {
        let (tag, fp) = self.key;
        let _ = write!(out, "{}\t{tag}\t{fp:032x}\t", self.seq);
        let _ = match self.span {
            Some(Span { bytes, offset }) => writeln!(out, "{bytes}\t{offset}"),
            None => writeln!(out, "-"),
        };
    }
}

/// What the log says: the resident entries, the next unused sequence
/// number and the resident payload bytes. Built by applying records in
/// log order, at `open` from the file and afterwards as they are written.
#[derive(Debug, Default)]
struct Index {
    entries: HashMap<Key, Entry>,
    next_seq: u64,
    bytes_total: u64,
}

impl Index {
    /// The last record of a key wins. The arithmetic saturates: only a
    /// forged log can carry numbers that overflow, and what it then costs
    /// is recency and an exact byte total.
    fn apply(&mut self, r: Record) {
        self.next_seq = self.next_seq.max(r.seq.saturating_add(1));
        if let Some(old) = self.entries.remove(&r.key) {
            self.bytes_total = self.bytes_total.saturating_sub(old.span.bytes);
        }
        if let Some(span) = r.span {
            self.entries.insert(r.key, Entry { seq: r.seq, span });
            self.bytes_total = self.bytes_total.saturating_add(span.bytes);
        }
    }

    /// The resident frames' bytes, framing included (saturating, as
    /// `bytes_total`).
    fn frame_bytes(&self) -> u64 {
        let framing = (HEADER_BYTES + TRAILER_BYTES) as u64;
        self.bytes_total
            .saturating_add(framing.saturating_mul(self.entries.len() as u64))
    }

    /// The resident entries, least recent first (ties, which only two
    /// writers can make, by key).
    fn resident(&self) -> Vec<(u64, Key, Span)> {
        let mut resident: Vec<_> = self
            .entries
            .iter()
            .map(|(&key, e)| (e.seq, key, e.span))
            .collect();
        resident.sort_unstable_by_key(|&(seq, key, _)| (seq, key));
        resident
    }

    /// Replays a log. Returns the index, the number of record lines read,
    /// and whether the text was a well-formed log: right header, every
    /// line a record, last line terminated. A wrong header restarts empty;
    /// bad lines and an unterminated last line (an append cut short) are
    /// skipped.
    fn replay(text: &str) -> (Index, u64, bool) {
        let mut index = Index::default();
        let Some(body) = text.strip_prefix(LOG_HEADER) else {
            return (index, 0, false);
        };
        let complete = &body[..body.rfind('\n').map_or(0, |at| at + 1)];
        let mut well_formed = complete.len() == body.len();
        let mut lines = 0;
        for line in complete.lines() {
            lines += 1;
            match Record::parse(line) {
                Some(record) => index.apply(record),
                None => well_formed = false,
            }
        }
        (index, lines, well_formed)
    }
}

/// The frame for `payload` under `key`.
fn frame((tag, fp): Key, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len() + TRAILER_BYTES);
    frame.extend_from_slice(MAGIC);
    frame.push(FORMAT_VERSION);
    frame.push(tag);
    frame.extend_from_slice(&fp.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&fnv1a128(FNV_OFFSET, payload).to_le_bytes());
    frame
}

/// The payload length a frame's header gives, if the header is one of
/// this format naming `(tag, fp)`.
fn names(frame: &[u8], (tag, fp): Key) -> Option<u64> {
    let header = frame.get(..HEADER_BYTES)?;
    let named = &header[..4] == MAGIC
        && header[4] == FORMAT_VERSION
        && header[5] == tag
        && header[6..22] == fp.to_le_bytes();
    let len: [u8; 8] = header[22..30].try_into().ok()?;
    named.then_some(u64::from_le_bytes(len))
}

/// The payload of a whole frame with a `len`-byte payload, if the frame
/// is exactly that long and its payload fingerprint holds.
fn verified_payload(frame: &[u8], len: u64) -> Option<&[u8]> {
    let len = usize::try_from(len).ok()?;
    if frame.len().checked_sub(HEADER_BYTES + TRAILER_BYTES) != Some(len) {
        return None;
    }
    let (payload, fp) = frame[HEADER_BYTES..].split_at(len);
    (fnv1a128(FNV_OFFSET, payload).to_le_bytes() == fp).then_some(payload)
}

/// What reading a key's frame found.
enum Found {
    /// The artifact, verified.
    Artifact(Artifact),
    /// A plain miss: no frame of the key where the index says (the index
    /// is at fault), or a sound frame of another codec version (an
    /// earlier build's).
    Miss,
    /// A frame of the key that fails its length, fingerprint or decode
    /// check: its bytes, for the quarantine.
    Corrupt(Vec<u8>),
}

/// Opens (creating if needed) a file of the store for reading and
/// appending.
fn open_appending(path: &Path) -> io::Result<fs::File> {
    fs::OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
}

/// The persistent log-structured store. See the [module docs](self) for
/// the layout, integrity, compaction and eviction disciplines.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    max_bytes: Option<u64>,
    index: Index,
    /// `index.tsv`, open for appending.
    log: fs::File,
    /// Record lines in `index.tsv`.
    log_lines: u64,
    /// The log still names offsets in a pack that compaction replaced
    /// (its rewrite failed): rewrite it at the next commit.
    log_stale: bool,
    /// The pack, open for positioned reads and appending.
    pack: fs::File,
    /// The pack's end as of this store's last append (or `open`): every
    /// frame the index names lies below it unless the index is at fault.
    pack_len: u64,
    hits: u64,
    misses: u64,
    corrupt: u64,
    evictions: u64,
    bytes_written: u64,
    bytes_read: u64,
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `root`, with an
    /// optional bound on resident payload bytes (`None` = unbounded).
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory tree, removing a per-file
    /// layout's directories (only under a `dmc-store v1` index), or
    /// reading or compacting the index or pack.
    /// An unparsable index is not an error: the store restarts empty (the
    /// frames it named are dead bytes).
    pub fn open(root: impl Into<PathBuf>, max_bytes: Option<u64>) -> io::Result<DiskStore> {
        let root = root.into();
        fs::create_dir_all(root.join("quarantine"))?;
        let mut log = open_appending(&root.join(INDEX_FILE))?;
        let mut bytes = Vec::new();
        log.read_to_end(&mut bytes)?;
        // Only a per-file layout's index vouches that `shards/` and `tmp/`
        // are the store's own; anywhere else they are left alone.
        if bytes.starts_with(OLD_LOG_HEADER.as_bytes()) {
            for old in ["shards", "tmp"] {
                let old = root.join(old);
                if old.exists() {
                    fs::remove_dir_all(old)?;
                }
            }
        }
        // Bytes that are not UTF-8 become lines that do not parse.
        let (index, log_lines, well_formed) = Index::replay(&String::from_utf8_lossy(&bytes));
        let pack = open_appending(&root.join(PACK_FILE))?;
        let pack_len = pack.metadata()?.len();
        let mut store = DiskStore {
            root,
            max_bytes,
            index,
            log,
            log_lines,
            log_stale: false,
            pack,
            pack_len,
            hits: 0,
            misses: 0,
            corrupt: 0,
            evictions: 0,
            bytes_written: 0,
            bytes_read: 0,
        };
        if store.pack_is_sparse() {
            store.compact()?;
        } else if !well_formed || store.log_is_long() {
            store.compact_log()?;
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Resident keys, sorted (stage tag, fingerprint) — a deterministic
    /// inventory for checks and reports. Entries under a retired stage
    /// tag stay in the index (and in [`StoreStats`]) until evicted, but
    /// have no [`StageId`] and are not listed.
    pub fn keys(&self) -> Vec<(StageId, Fingerprint)> {
        let mut keys: Vec<_> = self.index.entries.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .filter_map(|(tag, fp)| Some((StageId::from_tag(tag)?, Fingerprint(fp))))
            .collect()
    }

    /// Files currently quarantined, sorted by name.
    ///
    /// # Errors
    ///
    /// Any I/O error listing the quarantine directory.
    pub fn quarantined(&self) -> io::Result<Vec<PathBuf>> {
        let mut files: Vec<PathBuf> = fs::read_dir(self.root.join("quarantine"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        files.sort();
        Ok(files)
    }

    /// The file that holds a key's frame: the pack, for every key.
    pub fn path_of(&self, _stage: StageId, _key: Fingerprint) -> PathBuf {
        self.root.join(PACK_FILE)
    }

    /// Where a resident key's payload sits in the pack
    /// ([`DiskStore::path_of`]), as its index record says: the bytes
    /// between the frame's header and its trailing payload fingerprint.
    /// For checks that inspect or damage frames in place; a load verifies
    /// the frame whatever this says.
    pub fn payload_range(&self, stage: StageId, key: Fingerprint) -> Option<Range<u64>> {
        let span = self.index.entries.get(&(stage.tag(), key.0))?.span;
        let start = span.offset.checked_add(HEADER_BYTES as u64)?;
        Some(start..start.checked_add(span.bytes)?)
    }

    fn log_is_long(&self) -> bool {
        let entries = self.index.entries.len() as u64;
        self.log_lines > 2 * entries + LOG_SLACK_LINES
    }

    fn pack_is_sparse(&self) -> bool {
        let live = self.index.frame_bytes();
        self.pack_len.saturating_sub(live) > live.saturating_add(PACK_SLACK_BYTES)
    }

    /// Applies one mutation to the index and appends its line to the log.
    fn commit(&mut self, record: Record) {
        self.index.apply(record);
        let mut line = String::new();
        record.write_line(&mut line);
        self.log_lines += 1;
        // Cache maintenance is best-effort: an I/O failure here loses
        // recency, never data integrity (loads re-verify everything). A
        // failed append may have left half a line, so rewrite the file.
        let appended = self.log.write_all(line.as_bytes()).is_ok();
        if self.pack_is_sparse() {
            let _ = self.compact();
        } else if !appended || self.log_stale || self.log_is_long() {
            let _ = self.compact_log();
        }
    }

    /// Replaces the file `name` under the root with `write`'s output
    /// (write to a sibling, then rename), and reopens it for appending.
    fn replace(
        &self,
        name: &str,
        write: impl FnOnce(&mut io::BufWriter<fs::File>) -> io::Result<()>,
    ) -> io::Result<fs::File> {
        let path = self.root.join(name);
        let tmp = self.root.join(format!("{name}.tmp"));
        let mut out = io::BufWriter::new(fs::File::create(&tmp)?);
        write(&mut out)?;
        out.into_inner().map_err(io::IntoInnerError::into_error)?;
        fs::rename(&tmp, &path)?;
        open_appending(&path)
    }

    /// Rewrites the log as one line per resident entry, in sequence order
    /// so the file bytes are a pure function of history.
    fn compact_log(&mut self) -> io::Result<()> {
        let mut text = String::from(LOG_HEADER);
        for (seq, key, span) in self.index.resident() {
            let span = Some(span);
            Record { seq, key, span }.write_line(&mut text);
        }
        self.log = self.replace(INDEX_FILE, |out| out.write_all(text.as_bytes()))?;
        self.log_lines = self.index.entries.len() as u64;
        self.log_stale = false;
        Ok(())
    }

    /// Rewrites the pack as the resident frames in sequence order, then
    /// the log to name their new offsets. An entry whose record names no
    /// whole frame of its key is dropped: no load could serve it.
    fn compact(&mut self) -> io::Result<()> {
        let mut kept = Index {
            next_seq: self.index.next_seq,
            ..Index::default()
        };
        let mut end = 0u64;
        let pack = self.replace(PACK_FILE, |out| {
            for (seq, key, span) in self.index.resident() {
                let Some(frame) = self.read_span(span) else {
                    continue;
                };
                let whole = span.frame_len() == Some(frame.len() as u64);
                if !whole || names(&frame, key) != Some(span.bytes) {
                    continue;
                }
                out.write_all(&frame)?;
                let span = Some(Span {
                    offset: end,
                    ..span
                });
                kept.apply(Record { seq, key, span });
                end += frame.len() as u64;
            }
            Ok(())
        })?;
        self.pack = pack;
        self.pack_len = end;
        self.index = kept;
        self.log_stale = true;
        self.compact_log()
    }

    /// Reads the frame `span` names, or as much of it as the pack holds
    /// past the header; `None` where not even a header fits. Where the
    /// pack has shrunk below the length last seen, its real length is
    /// read once more.
    fn read_span(&self, span: Span) -> Option<Vec<u8>> {
        let want = span.frame_len()?;
        let read = |end: u64| {
            let have = end.checked_sub(span.offset)?.min(want);
            if have < HEADER_BYTES as u64 {
                return None;
            }
            let mut frame = vec![0; usize::try_from(have).ok()?];
            self.pack.read_exact_at(&mut frame, span.offset).ok()?;
            Some(frame)
        };
        read(self.pack_len).or_else(|| read(self.pack.metadata().ok()?.len()))
    }

    /// Reads and fully validates the frame the index names for `key`.
    fn read_frame(&self, stage: StageId, key: Key, span: Span) -> Found {
        let Some(frame) = self.read_span(span) else {
            return Found::Miss;
        };
        let Some(len) = names(&frame, key) else {
            // No frame of this key here: the index is at fault.
            return Found::Miss;
        };
        if len != span.bytes {
            // The index and the frame disagree on the length: whichever
            // is not backed by a sound frame is at fault.
            let own = Span { bytes: len, ..span };
            let sound = self
                .read_span(own)
                .is_some_and(|f| verified_payload(&f, len).is_some());
            return if sound {
                Found::Miss
            } else {
                Found::Corrupt(frame)
            };
        }
        let Some(payload) = verified_payload(&frame, len) else {
            return Found::Corrupt(frame);
        };
        if payload
            .first()
            .is_some_and(|&v| v != dmc_core::CODEC_VERSION)
        {
            // An earlier build's frame: sound, so not corrupt.
            return Found::Miss;
        }
        match Artifact::decode_payload(stage, payload) {
            Ok(artifact) => Found::Artifact(artifact),
            Err(_) => Found::Corrupt(frame),
        }
    }

    /// Re-stamps a resident entry with the next sequence number.
    fn touch(&mut self, key: Key) {
        if let Some(e) = self.index.entries.get(&key) {
            self.commit(Record {
                seq: self.index.next_seq,
                key,
                span: Some(e.span),
            });
        }
    }

    /// Writes a resident entry's tombstone; its frame becomes dead bytes.
    fn drop_entry(&mut self, key: Key) {
        if let Some(e) = self.index.entries.get(&key) {
            self.commit(Record {
                seq: e.seq,
                key,
                span: None,
            });
        }
    }

    /// Copies a rejected frame into `quarantine/`, never clobbering an
    /// earlier capture (a numeric suffix disambiguates).
    fn quarantine(&self, (tag, fp): Key, frame: &[u8]) {
        let name = format!("{tag:02x}-{fp:032x}.art");
        let dir = self.root.join("quarantine");
        let mut target = dir.join(&name);
        let mut n = 0u32;
        while target.exists() {
            n += 1;
            target = dir.join(format!("{name}.{n}"));
        }
        let _ = fs::write(target, frame);
    }

    /// Appends a frame to the pack and returns its offset. In append mode
    /// the write lands at the file's real end, whatever another writer
    /// appended, and the handle's position after it is that end.
    fn append(&mut self, frame: &[u8]) -> Option<u64> {
        self.pack.write_all(frame).ok()?;
        let end = self.pack.stream_position().ok()?;
        self.pack_len = self.pack_len.max(end);
        end.checked_sub(frame.len() as u64)
    }

    /// Evicts lowest-sequence entries until the byte bound holds. The
    /// bound is hard: the just-written entry has the highest sequence,
    /// so it is evicted only when it alone exceeds the bound. An entry
    /// under a tag no [`StageId`] names (a retired stage's) goes the same
    /// way.
    fn evict_to_bound(&mut self) {
        let Some(max) = self.max_bytes else { return };
        while self.index.bytes_total > max {
            let victim = self
                .index
                .entries
                .iter()
                .min_by_key(|&(&key, e)| (e.seq, key))
                .map(|(&key, _)| key);
            let Some(key) = victim else { break };
            self.evictions += 1;
            self.drop_entry(key);
        }
    }
}

impl ArtifactStore for DiskStore {
    fn load(&mut self, stage: StageId, key: Fingerprint) -> Option<Artifact> {
        let entry = (stage.tag(), key.0);
        let Some(&Entry { span, .. }) = self.index.entries.get(&entry) else {
            self.misses += 1;
            return None;
        };
        let found = self.read_frame(stage, entry, span);
        if let Found::Artifact(artifact) = found {
            self.hits += 1;
            self.bytes_read += span.bytes;
            self.touch(entry);
            return Some(artifact);
        }
        self.misses += 1;
        if let Found::Corrupt(frame) = found {
            self.corrupt += 1;
            self.quarantine(entry, &frame);
        }
        self.drop_entry(entry);
        None
    }

    fn contains(&mut self, stage: StageId, key: Fingerprint) -> bool {
        self.index.entries.contains_key(&(stage.tag(), key.0))
    }

    fn store(&mut self, stage: StageId, key: Fingerprint, artifact: &Artifact) {
        let entry = (stage.tag(), key.0);
        let payload = artifact.encode_payload(stage);
        // Best-effort cache: a failed append leaves at most dead bytes,
        // never half an entry.
        let Some(offset) = self.append(&frame(entry, &payload)) else {
            return;
        };
        let bytes = payload.len() as u64;
        self.commit(Record {
            seq: self.index.next_seq,
            key: entry,
            span: Some(Span { bytes, offset }),
        });
        self.bytes_written += bytes;
        self.evict_to_bound();
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits,
            misses: self.misses,
            corrupt: self.corrupt,
            evictions: self.evictions,
            entries: self.index.entries.len() as u64,
            bytes: self.index.bytes_total,
            bytes_written: self.bytes_written,
            bytes_read: self.bytes_read,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        // CARGO_TARGET_TMPDIR exists only for integration tests; unit
        // tests get a process-unique corner of the system temp dir.
        let dir = std::env::temp_dir()
            .join(format!("dmc-store-unit-{}", std::process::id()))
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn program_artifact(n: usize) -> Artifact {
        let body: String = (0..n)
            .map(|i| format!("for i = 0 to N - 1 {{ A[i] = {i}.0; }} "))
            .collect();
        let src = format!("param N; array A[N]; {body}");
        Artifact::Program(Arc::new(dmc_ir::parse(&src).expect("parses")))
    }

    /// An empty Last Write Tree, decoded from its payload because this
    /// crate cannot name the type: five zero varints of one byte each
    /// (two ids, then the lengths of an empty array name, of no read dims
    /// and of no leaves) and `approximate = false`.
    fn lwt_artifact() -> Artifact {
        let mut payload = vec![dmc_core::CODEC_VERSION, StageId::Lwt.tag()];
        payload.extend([0u8; 5]);
        payload.push(u8::from(false));
        Artifact::decode_payload(StageId::Lwt, &payload).expect("an empty tree decodes")
    }

    fn key(i: u128) -> Fingerprint {
        Fingerprint(i.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    fn payload_len(art: &Artifact) -> u64 {
        art.encode_payload(StageId::Parse).len() as u64
    }

    fn log_text(dir: &Path) -> String {
        fs::read_to_string(dir.join("index.tsv")).unwrap()
    }

    /// Record lines in the log (the header is not one).
    fn log_lines(dir: &Path) -> u64 {
        log_text(dir).lines().count() as u64 - 1
    }

    fn pack_bytes(dir: &Path) -> Vec<u8> {
        fs::read(dir.join(PACK_FILE)).unwrap()
    }

    fn resident(s: &mut DiskStore, keys: std::ops::Range<u128>) -> Vec<u128> {
        keys.filter(|&i| s.contains(StageId::Parse, key(i)))
            .collect()
    }

    /// The resident `(seq, key)` pairs, least recent first.
    fn lru_order(s: &DiskStore) -> Vec<(u64, Key)> {
        s.index
            .resident()
            .into_iter()
            .map(|(seq, key, _)| (seq, key))
            .collect()
    }

    /// Flips byte `at` of a resident key's frame in the pack.
    fn flip(s: &DiskStore, key: Key, at: u64) {
        let offset = s.index.entries[&key].span.offset + at;
        let pack = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(s.root.join(PACK_FILE))
            .unwrap();
        let mut byte = [0u8];
        pack.read_exact_at(&mut byte, offset).unwrap();
        pack.write_all_at(&[byte[0] ^ 0xFF], offset).unwrap();
    }

    /// The store directory's entries, sorted by name.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn artifacts_persist_across_opens() {
        let dir = tmpdir("persist");
        let art = program_artifact(2);
        {
            let mut s = DiskStore::open(&dir, None).unwrap();
            assert!(s.load(StageId::Parse, key(1)).is_none());
            s.store(StageId::Parse, key(1), &art);
            assert!(s.contains(StageId::Parse, key(1)));
        }
        let mut s = DiskStore::open(&dir, None).unwrap();
        let back = s.load(StageId::Parse, key(1)).expect("persisted");
        match (&back, &art) {
            (Artifact::Program(b), Artifact::Program(a)) => assert_eq!(b, a),
            other => panic!("wrong variant: {other:?}"),
        }
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.corrupt), (1, 0, 0));
        assert_eq!(st.entries, 1);
        assert!(st.bytes > 0 && st.bytes_read == st.bytes);
    }

    #[test]
    fn lru_eviction_is_size_bounded_and_in_sequence_order() {
        let dir = tmpdir("evict");
        let art = program_artifact(1);
        let one = art.encode_payload(StageId::Parse).len() as u64;
        // Room for two payloads, not three.
        let mut s = DiskStore::open(&dir, Some(2 * one)).unwrap();
        s.store(StageId::Parse, key(1), &art);
        s.store(StageId::Parse, key(2), &art);
        assert_eq!(s.stats().evictions, 0);
        // Touch key(1): key(2) becomes least recent.
        assert!(s.load(StageId::Parse, key(1)).is_some());
        s.store(StageId::Parse, key(3), &art);
        assert_eq!(s.stats().evictions, 1);
        assert!(s.contains(StageId::Parse, key(1)));
        assert!(!s.contains(StageId::Parse, key(2)));
        assert!(s.contains(StageId::Parse, key(3)));
        assert!(s.stats().bytes <= 2 * one);
        // The bound is hard: a payload bigger than the whole bound is
        // written and immediately evicted, never retained.
        let dir2 = tmpdir("evict-tiny");
        let mut t = DiskStore::open(&dir2, Some(1)).unwrap();
        t.store(StageId::Parse, key(7), &art);
        assert!(!t.contains(StageId::Parse, key(7)));
        assert_eq!(t.stats().entries, 0);
        assert_eq!(t.stats().evictions, 1);
    }

    /// A directory written while tags 1, 3 and 5 were stages holds
    /// entries no `StageId` names. Under a byte bound they are evicted
    /// like any other entry: frame dead, eviction counted, bound held,
    /// and the next compaction leaves only the live frames in the pack.
    #[test]
    fn retired_tag_entries_are_evicted_with_their_files() {
        let dir = tmpdir("evict-retired");
        let art = program_artifact(1);
        let one = payload_len(&art);
        {
            let mut s = DiskStore::open(&dir, None).unwrap();
            s.store(StageId::Parse, key(1), &art);
        }
        // What the previous version left behind: three frames, and index
        // lines naming them, older than the `Parse` entry.
        let payload = art.encode_payload(StageId::Parse);
        let retired: Vec<Key> = [1u8, 3, 5].map(|tag| (tag, key(2).0)).to_vec();
        let mut pack = pack_bytes(&dir);
        let mut log = String::from(LOG_HEADER);
        for (seq, &k) in retired.iter().enumerate() {
            let offset = pack.len();
            pack.extend(frame(k, &payload));
            let _ = writeln!(log, "{seq}\t{}\t{:032x}\t{one}\t{offset}", k.0, k.1);
        }
        let _ = writeln!(log, "3\t0\t{:032x}\t{one}\t0", key(1).0);
        fs::write(dir.join(PACK_FILE), &pack).unwrap();
        fs::write(dir.join("index.tsv"), log).unwrap();

        // Room for two payloads: the next store pushes all three out.
        let mut s = DiskStore::open(&dir, Some(2 * one)).unwrap();
        assert_eq!((s.stats().entries, s.stats().bytes), (4, 4 * one));
        assert_eq!(s.keys(), [(StageId::Parse, key(1))]);

        s.store(StageId::Parse, key(3), &art);
        assert_eq!(s.stats().evictions, 3);
        assert_eq!((s.stats().entries, s.stats().bytes), (2, 2 * one));
        s.compact().unwrap();
        let frames = [(0, key(1).0), (0, key(3).0)].map(|k| frame(k, &payload));
        assert_eq!(pack_bytes(&dir), frames.concat(), "retired frames leaked");
        assert!(s.load(StageId::Parse, key(1)).is_some());
        assert!(s.load(StageId::Parse, key(3)).is_some());
    }

    #[test]
    fn corruption_quarantines_and_misses_cleanly() {
        let dir = tmpdir("corrupt");
        let art = program_artifact(3);
        let mut s = DiskStore::open(&dir, None).unwrap();
        s.store(StageId::Parse, key(5), &art);
        let path = s.path_of(StageId::Parse, key(5));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(s.load(StageId::Parse, key(5)).is_none());
        let st = s.stats();
        assert_eq!((st.corrupt, st.misses, st.hits), (1, 1, 0));
        assert_eq!(st.entries, 0);
        let quarantined = s.quarantined().unwrap();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(
            fs::read(&quarantined[0]).unwrap(),
            bytes,
            "the quarantine holds the rejected frame"
        );
        // The slot is reusable and the replacement loads.
        s.store(StageId::Parse, key(5), &art);
        assert!(s.load(StageId::Parse, key(5)).is_some());
    }

    /// A sound frame of an older codec version is a miss, not corruption:
    /// tombstoned, not quarantined, and the key stores and loads again.
    #[test]
    fn a_stale_codec_version_is_a_plain_miss() {
        let dir = tmpdir("stale");
        let art = program_artifact(2);
        let mut s = DiskStore::open(&dir, None).unwrap();
        s.store(StageId::Parse, key(4), &art);
        let path = s.path_of(StageId::Parse, key(4));
        let mut bytes = fs::read(&path).unwrap();
        let end = bytes.len() - TRAILER_BYTES;
        bytes[HEADER_BYTES] = 1;
        let fp = fnv1a128(FNV_OFFSET, &bytes[HEADER_BYTES..end]).to_le_bytes();
        bytes[end..].copy_from_slice(&fp);
        fs::write(&path, &bytes).unwrap();

        assert!(s.load(StageId::Parse, key(4)).is_none());
        let st = s.stats();
        assert_eq!((st.misses, st.corrupt, st.hits, st.entries), (1, 0, 0, 0));
        assert!(s.quarantined().unwrap().is_empty());
        assert!(log_text(&dir).ends_with("\t-\n"), "the entry is tombstoned");
        s.store(StageId::Parse, key(4), &art);
        assert!(s.load(StageId::Parse, key(4)).is_some());
        assert_eq!(s.stats().corrupt, 0);
    }

    #[test]
    fn truncation_is_corruption() {
        let dir = tmpdir("truncate");
        let mut s = DiskStore::open(&dir, None).unwrap();
        s.store(StageId::Lwt, key(9), &lwt_artifact());
        let path = s.path_of(StageId::Lwt, key(9));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(s.load(StageId::Lwt, key(9)).is_none());
        assert_eq!(s.stats().corrupt, 1);
        assert_eq!(s.quarantined().unwrap().len(), 1);
    }

    /// A crash that tears the pack's last frame (its index line written,
    /// its tail not) costs that entry and no other, and the next append
    /// lands after the torn bytes.
    #[test]
    fn a_torn_tail_frame_loses_only_its_entry() {
        let dir = tmpdir("torn-frame");
        let art = program_artifact(2);
        {
            let mut s = DiskStore::open(&dir, None).unwrap();
            for i in 1..=3 {
                s.store(StageId::Parse, key(i), &art);
            }
        }
        let pack = pack_bytes(&dir);
        let torn = pack.len() - 7;
        fs::write(dir.join(PACK_FILE), &pack[..torn]).unwrap();
        let mut s = DiskStore::open(&dir, None).unwrap();
        assert!(s.load(StageId::Parse, key(1)).is_some());
        assert!(s.load(StageId::Parse, key(2)).is_some());
        assert!(s.load(StageId::Parse, key(3)).is_none());
        assert_eq!((s.stats().hits, s.stats().corrupt), (2, 1));
        s.store(StageId::Parse, key(4), &art);
        assert_eq!(s.index.entries[&(0, key(4).0)].span.offset, torn as u64);
        drop(s);
        let mut s = DiskStore::open(&dir, None).unwrap();
        assert_eq!(resident(&mut s, 1..5), [1, 2, 4]);
        for i in [1, 2, 4] {
            assert!(s.load(StageId::Parse, key(i)).is_some());
        }
        assert_eq!(s.stats().corrupt, 0);
    }

    /// An index record that names no frame of its key is the index's
    /// fault: whether its offset is at another key's frame, inside a
    /// frame or past the pack's end, or its byte count disagrees with a
    /// sound frame, the load is a plain miss, the entry is tombstoned and
    /// nothing is quarantined.
    #[test]
    fn a_misplaced_index_record_is_a_plain_miss() {
        let dir = tmpdir("misplaced");
        let (small, big) = (program_artifact(1), program_artifact(3));
        let mut s = DiskStore::open(&dir, None).unwrap();
        s.store(StageId::Parse, key(1), &small);
        s.store(StageId::Parse, key(2), &big);
        drop(s);
        let log = log_text(&dir);
        let at = |i: u128| format!("\t{}\t0\n", payload_len(if i == 1 { &small } else { &big }));
        let second = frame((0, key(1).0), &small.encode_payload(StageId::Parse)).len();
        let pack = pack_bytes(&dir).len();
        let misplaced = [
            // key(1)'s record at key(2)'s frame.
            log.replace(&at(1), &format!("\t{}\t{second}\n", payload_len(&small))),
            // key(2)'s record inside key(1)'s frame, and past the end.
            log.replace(&format!("\t{second}\n"), "\t5\n"),
            log.replace(&format!("\t{second}\n"), &format!("\t{pack}\n")),
            // key(1)'s record with key(2)'s byte count.
            log.replace(&at(1), &format!("\t{}\t0\n", payload_len(&big))),
        ];
        for (n, text) in misplaced.iter().enumerate() {
            assert_ne!(text, &log, "mutant {n} changed the log");
            fs::write(dir.join("index.tsv"), text).unwrap();
            let mut s = DiskStore::open(&dir, None).unwrap();
            let served = [1, 2].map(|i| s.load(StageId::Parse, key(i)).is_some());
            assert_eq!(served.iter().filter(|&&hit| hit).count(), 1, "mutant {n}");
            let st = s.stats();
            assert_eq!((st.misses, st.corrupt, st.entries), (1, 0, 1), "mutant {n}");
            let tombstones = log_text(&dir)
                .lines()
                .filter(|l| l.ends_with("\t-"))
                .count();
            assert_eq!(tombstones, 1, "mutant {n}");
        }
        assert!(DiskStore::open(&dir, None)
            .unwrap()
            .quarantined()
            .unwrap()
            .is_empty());
        // The pack was never touched: the sound index serves both.
        fs::write(dir.join("index.tsv"), &log).unwrap();
        let mut s = DiskStore::open(&dir, None).unwrap();
        assert_eq!(resident(&mut s, 1..3), [1, 2]);
        for i in 1..=2 {
            assert!(s.load(StageId::Parse, key(i)).is_some());
        }
    }

    #[test]
    fn index_and_stats_are_deterministic() {
        let run = |name: &str| {
            let dir = tmpdir(name);
            let mut s = DiskStore::open(&dir, Some(10_000)).unwrap();
            for i in 0..6 {
                s.store(
                    StageId::Parse,
                    key(i),
                    &program_artifact(1 + (i as usize % 3)),
                );
            }
            let _ = s.load(StageId::Parse, key(2));
            let _ = s.load(StageId::Parse, key(100));
            // Overwrites leave dead bytes; compaction drops them.
            s.store(StageId::Parse, key(3), &program_artifact(2));
            s.store(StageId::Parse, key(1), &program_artifact(3));
            let before = (log_text(&dir), pack_bytes(&dir));
            s.compact().unwrap();
            let after = (log_text(&dir), pack_bytes(&dir));
            assert!(after.1.len() < before.1.len(), "compaction dropped bytes");
            (before, after, s.stats())
        };
        let (ba, aa, sa) = run("det-a");
        let (bb, ab, sb) = run("det-b");
        assert_eq!(ba, bb);
        assert_eq!(aa, ab);
        assert_eq!(sa, sb);
    }

    /// Dead bytes past the live frames' bytes plus the slack compact the
    /// pack on their own: recency order and every resident payload are
    /// unchanged, the pack holds exactly the live frames, and the
    /// directory never holds more than the index, the pack and the
    /// quarantine.
    #[test]
    fn compaction_drops_dead_bytes_and_keeps_lru_order() {
        let dir = tmpdir("compaction");
        let arts = [program_artifact(40), program_artifact(60)];
        let mut s = DiskStore::open(&dir, None).unwrap();
        let mut compactions = 0;
        for round in 0..2000u128 {
            let i = round * 7 % 12;
            let before = s.pack_len;
            s.store(StageId::Parse, key(i), &arts[(round % 2) as usize]);
            if round >= 12 && round % 5 == 0 {
                assert!(s.load(StageId::Parse, key(round % 12)).is_some());
            }
            if s.pack_len < before {
                compactions += 1;
                assert_eq!(s.pack_len, s.index.frame_bytes(), "only live frames");
            }
            assert!(s.pack_len <= 2 * s.index.frame_bytes() + PACK_SLACK_BYTES);
        }
        assert!(compactions > 0, "the slack was never exceeded");
        assert_eq!(listing(&dir), ["index.tsv", "pack", "quarantine"]);

        let order = lru_order(&s);
        let payloads: Vec<_> = (0..12)
            .map(|i| s.index.entries[&(0, key(i).0)].span.bytes)
            .collect();
        s.compact().unwrap();
        assert_eq!(lru_order(&s), order, "compaction keeps recency");
        assert_eq!(s.pack_len, s.index.frame_bytes());
        assert_eq!(pack_bytes(&dir).len() as u64, s.pack_len);
        drop(s);
        let mut s = DiskStore::open(&dir, None).unwrap();
        assert_eq!(lru_order(&s), order, "and so does the reopened log");
        for (i, &bytes) in (0..12).zip(&payloads) {
            let got = s.load(StageId::Parse, key(i)).expect("resident");
            let want = arts.iter().find(|a| payload_len(a) == bytes).unwrap();
            assert_eq!(
                got.encode_payload(StageId::Parse),
                want.encode_payload(StageId::Parse)
            );
        }
        assert_eq!(s.stats().corrupt, 0);
        assert_eq!(listing(&dir), ["index.tsv", "pack", "quarantine"]);
    }

    #[test]
    fn a_file_without_the_header_restarts_empty() {
        let dir = tmpdir("header");
        let art = program_artifact(1);
        {
            let mut s = DiskStore::open(&dir, None).unwrap();
            s.store(StageId::Parse, key(1), &art);
            s.store(StageId::Parse, key(2), &art);
        }
        let log = log_text(&dir);
        let body = log.strip_prefix(LOG_HEADER).unwrap();
        for bad in [
            body.to_owned(),
            format!("dmc-store v1\n{body}"),
            String::new(),
        ] {
            fs::write(dir.join("index.tsv"), bad).unwrap();
            let mut s = DiskStore::open(&dir, None).unwrap();
            assert_eq!(s.stats().entries, 0);
            assert_eq!(log_text(&dir), LOG_HEADER, "compaction rewrote the file");
            // The frames are still in the pack; storing after them works.
            s.store(StageId::Parse, key(1), &art);
            assert!(s.load(StageId::Parse, key(1)).is_some());
        }
        // Bytes that are not text at all: the same.
        fs::write(dir.join("index.tsv"), [0xFF, 0xFE, b'\n', 0x80]).unwrap();
        assert_eq!(DiskStore::open(&dir, None).unwrap().stats().entries, 0);
        assert_eq!(log_text(&dir), LOG_HEADER);
    }

    #[test]
    fn forged_numbers_saturate() {
        let dir = tmpdir("forged");
        fs::create_dir_all(&dir).unwrap();
        let max = u64::MAX;
        let forged = format!("{LOG_HEADER}{max}\t0\t01\t{max}\t{max}\n{max}\t0\t02\t{max}\t0\n");
        fs::write(dir.join("index.tsv"), forged).unwrap();
        let mut s = DiskStore::open(&dir, Some(1 << 20)).unwrap();
        assert_eq!((s.stats().entries, s.stats().bytes), (2, max));
        // Storing, evicting and loading over it neither panics nor loses
        // the store.
        s.store(StageId::Parse, key(1), &program_artifact(1));
        assert!(s.stats().evictions > 0);
        assert!(s.load(StageId::Parse, key(1)).is_some());
        assert!(s.load(StageId::Parse, Fingerprint(2)).is_none());
        assert_eq!(s.stats().corrupt, 0);
    }

    #[test]
    fn a_torn_tail_does_not_poison_the_next_append() {
        let dir = tmpdir("torn");
        let art = program_artifact(2);
        {
            let mut s = DiskStore::open(&dir, None).unwrap();
            for i in 1..=3 {
                s.store(StageId::Parse, key(i), &art);
            }
        }
        // A crash in the middle of the third append.
        let log = log_text(&dir);
        let torn = &log[..log.len() - 20];
        assert!(!torn.ends_with('\n') && torn.lines().count() == 4);
        fs::write(dir.join("index.tsv"), torn).unwrap();
        {
            let mut s = DiskStore::open(&dir, None).unwrap();
            assert_eq!(
                resident(&mut s, 1..5),
                [1, 2],
                "only the line in flight is lost"
            );
            assert!(
                log_text(&dir).ends_with('\n'),
                "open compacted the torn log"
            );
            s.store(StageId::Parse, key(4), &art);
        }
        let mut s = DiskStore::open(&dir, None).unwrap();
        assert_eq!(resident(&mut s, 1..5), [1, 2, 4]);
        for i in [1, 2, 4] {
            assert!(s.load(StageId::Parse, key(i)).is_some());
        }
        assert_eq!(s.stats().corrupt, 0);
    }

    #[test]
    fn tombstones_and_repeated_keys_replay() {
        let dir = tmpdir("tombstones");
        let arts = [
            program_artifact(1),
            program_artifact(2),
            program_artifact(3),
        ];
        let art = |i: u128| &arts[i as usize % 3];
        let bound = 4 * payload_len(&arts[2]);
        let before = {
            let mut s = DiskStore::open(&dir, Some(bound)).unwrap();
            for i in 0..8 {
                s.store(StageId::Parse, key(i), art(i));
                let _ = s.load(StageId::Parse, key(i / 2));
            }
            // Store over resident keys, then quarantine one.
            s.store(StageId::Parse, key(7), art(7));
            s.store(StageId::Parse, key(6), art(6));
            flip(&s, (0, key(7).0), HEADER_BYTES as u64);
            assert!(s.load(StageId::Parse, key(7)).is_none());
            let st = s.stats();
            assert!(st.evictions > 0 && st.corrupt == 1);
            (resident(&mut s, 0..8), st.bytes, s.index.next_seq)
        };
        let log = log_text(&dir);
        assert!(
            log.lines().any(|l| l.ends_with("\t-")),
            "log holds tombstones"
        );
        assert!(log_lines(&dir) > 2 * before.0.len() as u64, "keys repeat");

        let mut s = DiskStore::open(&dir, Some(bound)).unwrap();
        assert_eq!(
            log_text(&dir),
            log,
            "a well-formed short log is not rewritten"
        );
        assert!(!before.0.contains(&7) && !before.0.contains(&0));
        let after = (resident(&mut s, 0..8), s.stats().bytes, s.index.next_seq);
        assert_eq!(after, before);
        let sum: u64 = after.0.iter().map(|&i| payload_len(art(i))).sum();
        assert_eq!(s.stats().bytes, sum);
        assert!(s.stats().bytes <= bound);
    }

    #[test]
    fn lru_order_survives_reopen_and_compaction() {
        let art = program_artifact(1);
        let bound = 3 * payload_len(&art);
        let run = |name: &str, reopen: bool| {
            let dir = tmpdir(name);
            let mut s = DiskStore::open(&dir, Some(bound)).unwrap();
            let mut victims = Vec::new();
            for i in 1..=3 {
                s.store(StageId::Parse, key(i), &art);
            }
            assert!(s.load(StageId::Parse, key(1)).is_some());
            assert!(s.load(StageId::Parse, key(3)).is_some());
            if reopen {
                drop(s);
                s = DiskStore::open(&dir, Some(bound)).unwrap();
                s.compact().unwrap();
            }
            for i in 4..=9 {
                s.store(StageId::Parse, key(i), &art);
                let _ = s.load(StageId::Parse, key(i - 2));
                victims.push(
                    (1..i)
                        .filter(|&j| !s.contains(StageId::Parse, key(j)))
                        .max(),
                );
            }
            s.compact().unwrap();
            (victims, log_text(&dir), s.stats().evictions)
        };
        let straight = run("lru-straight", false);
        assert_eq!(straight.0[0], Some(2), "first victim is the untouched key");
        assert_eq!(straight.2, 6);
        assert_eq!(run("lru-reopened", true), straight);
    }

    /// A directory of the per-file layout — a `dmc-store v1` index, one
    /// file per artifact under `shards/`, a staging `tmp/` — serves
    /// nothing, and its two directories are removed at the first open.
    #[test]
    fn a_directory_in_the_old_layout_opens_empty() {
        const OLD_INDEX: &str = "dmc-store v1\n\
            3\t0\t0000000000000001daa66d2c7ddf743f\t120\n\
            5\t1\t00000000000000013c6ef372fe94f82b\t64\n\
            9\t0\t00000000000000009e3779b97f4a7c15\t7\n";
        let dir = tmpdir("old-layout");
        let shard = dir.join("shards").join("9e");
        fs::create_dir_all(&shard).unwrap();
        fs::create_dir_all(dir.join("tmp")).unwrap();
        fs::create_dir_all(dir.join("quarantine")).unwrap();
        let old = program_artifact(1);
        let old_frame = frame((0, key(1).0), &old.encode_payload(StageId::Parse));
        fs::write(shard.join(format!("00-{:032x}.art", key(1).0)), old_frame).unwrap();
        fs::write(dir.join("quarantine").join("kept.art"), b"a post-mortem").unwrap();
        fs::write(dir.join("index.tsv"), OLD_INDEX).unwrap();

        let mut s = DiskStore::open(&dir, None).unwrap();
        assert_eq!(s.stats().entries, 0);
        assert!(s.load(StageId::Parse, key(1)).is_none());
        assert_eq!(listing(&dir), ["index.tsv", "pack", "quarantine"]);
        assert_eq!(log_text(&dir), LOG_HEADER);
        assert_eq!(s.quarantined().unwrap().len(), 1, "post-mortems stay");
        s.store(StageId::Parse, key(1), &old);
        drop(s);
        let mut s = DiskStore::open(&dir, None).unwrap();
        assert!(s.load(StageId::Parse, key(1)).is_some());
        assert_eq!(listing(&dir), ["index.tsv", "pack", "quarantine"]);
    }

    /// A `tmp/` or `shards/` under a root without a `dmc-store v1` index
    /// is not the store's: opening a fresh root, or reopening a store of
    /// this layout, leaves both and their files alone.
    #[test]
    fn foreign_directories_in_the_root_are_left_alone() {
        let dir = tmpdir("foreign");
        for sub in ["tmp", "shards"] {
            fs::create_dir_all(dir.join(sub)).unwrap();
            fs::write(dir.join(sub).join("theirs"), sub).unwrap();
        }
        let kept = |dir: &Path| {
            for sub in ["tmp", "shards"] {
                assert_eq!(
                    fs::read_to_string(dir.join(sub).join("theirs")).unwrap(),
                    sub
                );
            }
        };
        let mut s = DiskStore::open(&dir, None).unwrap();
        kept(&dir);
        s.store(StageId::Parse, key(1), &program_artifact(1));
        drop(s);
        let mut s = DiskStore::open(&dir, None).unwrap();
        assert!(s.load(StageId::Parse, key(1)).is_some());
        kept(&dir);
        assert_eq!(
            listing(&dir),
            ["index.tsv", "pack", "quarantine", "shards", "tmp"]
        );
    }

    #[test]
    fn log_growth_is_linear_and_bounded() {
        let dir = tmpdir("growth");
        let art = program_artifact(1);
        DiskStore::open(&dir, None)
            .unwrap()
            .store(StageId::Parse, key(1), &art);
        // Start at a five-digit sequence number so every line of this
        // test has the same length.
        let line = format!("10000\t0\t{:032x}\t{}\t0\n", key(1).0, payload_len(&art));
        fs::write(dir.join("index.tsv"), format!("{LOG_HEADER}{line}")).unwrap();

        let len = || fs::metadata(dir.join("index.tsv")).unwrap().len();
        let mut s = DiskStore::open(&dir, None).unwrap();
        let mut appended = Vec::new();
        let mut compactions = 0;
        for i in 0..5000 {
            if i % 700 == 699 {
                s = DiskStore::open(&dir, None).unwrap();
            }
            let before = len();
            assert!(s.load(StageId::Parse, key(1)).is_some());
            let after = len();
            assert!(log_lines(&dir) <= 2 + LOG_SLACK_LINES);
            if after > before {
                appended.push(after - before);
            } else {
                compactions += 1;
                assert_eq!(after, (LOG_HEADER.len() + line.len()) as u64);
            }
        }
        assert_eq!(compactions, 4, "one per 1027 appends");
        let per_load = line.len() as u64;
        assert!(appended[..100].iter().all(|&n| n == per_load));
        assert!(appended[appended.len() - 100..]
            .iter()
            .all(|&n| n == per_load));
        assert_eq!(s.index.next_seq, 15_001);
    }

    /// Two writers appending to one pack in turn each index their own
    /// frames: an offset is read from the file's real end, not from the
    /// length the writer saw last.
    #[test]
    fn interleaved_appends_index_their_own_frames() {
        let dir = tmpdir("interleaved");
        let arts = [program_artifact(1), program_artifact(2)];
        let mut a = DiskStore::open(&dir, None).unwrap();
        let mut b = DiskStore::open(&dir, None).unwrap();
        a.store(StageId::Parse, key(1), &arts[0]);
        b.store(StageId::Parse, key(2), &arts[1]);
        a.store(StageId::Parse, key(3), &arts[1]);
        b.store(StageId::Parse, key(4), &arts[0]);
        for (s, mine) in [(&mut a, [1, 3]), (&mut b, [2, 4])] {
            for i in mine {
                assert!(s.load(StageId::Parse, key(i)).is_some(), "key {i}");
            }
            assert_eq!((s.stats().misses, s.stats().corrupt), (0, 0));
        }
        let mut third = DiskStore::open(&dir, None).unwrap();
        for i in 1..=4 {
            assert!(third.load(StageId::Parse, key(i)).is_some(), "key {i}");
        }
    }

    #[test]
    fn two_writers_cost_recency_never_a_wrong_value() {
        let dir = tmpdir("two-writers");
        let arts = [
            program_artifact(1),
            program_artifact(2),
            program_artifact(3),
        ];
        let art = |i: u128| &arts[i as usize % 3];
        let same = |got: &Artifact, i: u128| {
            got.encode_payload(StageId::Parse) == art(i).encode_payload(StageId::Parse)
        };
        // One writer evicts under the other's feet; enough operations for
        // each to compact the log the other is appending to.
        let mut writers = [
            DiskStore::open(&dir, Some(5 * payload_len(&arts[2]))).unwrap(),
            DiskStore::open(&dir, None).unwrap(),
        ];
        let mut rng = 0x2545f4914f6cdd1du64;
        let mut served = 0;
        for _ in 0..6000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let w = &mut writers[(rng >> 20) as usize % 2];
            let i = u128::from((rng >> 24) % 12);
            if (rng >> 40).is_multiple_of(3) {
                w.store(StageId::Parse, key(i), art(i));
            } else if let Some(got) = w.load(StageId::Parse, key(i)) {
                assert!(same(&got, i), "writer served a wrong artifact for key {i}");
                served += 1;
            }
        }
        assert!(served > 1000, "the interleaving exercised hits: {served}");
        let mut third = DiskStore::open(&dir, None).unwrap();
        for i in 0..12 {
            if let Some(got) = third.load(StageId::Parse, key(i)) {
                assert!(
                    same(&got, i),
                    "fresh open served a wrong artifact for key {i}"
                );
            }
        }
        for s in writers.iter().chain([&third]) {
            assert_eq!(s.stats().corrupt, 0);
        }
        assert!(log_lines(&dir) <= 2 * third.stats().entries + LOG_SLACK_LINES);
    }
}
