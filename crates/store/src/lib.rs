//! # dmc-store
//!
//! The persistent, sharded artifact store: an on-disk
//! [`ArtifactStore`] backend for [`dmc_core::Session`], so a fresh
//! process warm-starts from the stage artifacts earlier processes
//! computed.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   index.tsv                      # operation log: seq, stage, key, bytes | -
//!   shards/<hh>/<tt>-<fp>.art      # hh = first fp byte, tt = stage tag
//!   quarantine/…                   # corrupt payloads, moved aside
//!   tmp/                           # staged writes (write + rename)
//! ```
//!
//! `index.tsv` is an **append-only log**: the header line `dmc-store v1`,
//! then one line per mutation, written with a single `write_all` to a
//! file held open in append mode. A store or an LRU touch appends the
//! key's new state `seq\ttag\tfp\tbytes`; a drop, eviction or quarantine
//! appends a tombstone `seq\ttag\tfp\t-`. [`DiskStore::open`] replays the
//! log top to bottom — the last line per key wins — so residency and
//! recency are both read off the one operation history, and a `load` or
//! `store` costs the same whether the store holds ten entries or ten
//! thousand.
//!
//! The log is **compacted** — rewritten through `tmp/` + rename as one
//! line per resident entry, in sequence order — when it holds more than
//! `2 × entries + 1024` lines (checked at `open` and after every append),
//! and at `open` when it is missing, has a bad header, an unparsable line
//! or no trailing newline. A file with one line per entry and no
//! tombstones (what compaction writes, and what earlier versions wrote
//! after every operation) is itself a valid log.
//!
//! A process that dies mid-append loses at most the line in flight: the
//! unterminated fragment is discarded at the next `open`, which compacts
//! so the next record cannot fuse with it. A lost line costs recency, or
//! leaves an artifact file the index does not know (never read, and
//! overwritten by the next store of that key); it cannot cost
//! correctness, because artifact files verify themselves.
//!
//! Entries shard by the leading byte of the key fingerprint, so no
//! directory grows past 1/256 of the store. Every artifact file frames
//! its payload:
//!
//! ```text
//! magic "DMCA" | format u8 | stage u8 | key fp 16B | len u64 | payload | payload fp 16B
//! ```
//!
//! where `payload` is the session's versioned codec framing
//! ([`Artifact::encode_payload`]) and `payload fp` is the FNV-1a/128 of
//! the payload bytes ([`dmc_ir::fp::fnv1a128`], no structural tagging:
//! the payload is already a canonical encoding).
//!
//! ## Corruption is a miss
//!
//! [`DiskStore::load`] re-fingerprints every payload and fully decodes
//! it before trusting a single byte. A bad magic, mismatched key, short
//! read, fingerprint mismatch or codec error counts as `corrupt`, moves
//! the file into `quarantine/` (for post-mortems; the store never reads
//! it again) and reports a clean miss — the session recomputes the
//! stage. The cache can therefore *never* alter compilation output,
//! only its speed; this is the safety argument for caching at all.
//!
//! A file whose frame and payload fingerprint check out but whose payload
//! starts with another [`dmc_core::CODEC_VERSION`] is not corrupt: an
//! earlier build wrote it. It is removed and counted as a plain miss, so
//! a codec bump turns an existing directory into misses that the next
//! stores refill, not into a quarantine of every entry.
//!
//! ## Deterministic LRU
//!
//! Recency is a logical sequence number carried by the log lines — never
//! a file mtime — so the eviction order is a pure function of the
//! operation history and replays identically on every filesystem, and so
//! do the bytes of `index.tsv` (the compaction rule is a function of the
//! history too). Both loads and stores touch recency; when a store pushes
//! the resident payload bytes over the configured bound, lowest-sequence
//! entries are evicted until the bound holds again. The bound is hard: the
//! entry just written carries the highest sequence number, so it goes
//! last — a payload bigger than the whole bound is simply never retained.
//! Sequence numbers are unique, so there are no ties to break.
//!
//! The store assumes a **single writer at a time** (the CLI tools open
//! it for one process's lifetime); it takes no locks. Two writers on one
//! directory cost recency, never correctness: their sequence numbers
//! collide, so which entry is least recent is ambiguous (compaction
//! breaks ties by key); a compaction by one unlinks the file the other is
//! appending to, so the other's later lines are lost; an entry one
//! evicted is a plain miss for the other. Every such outcome is a miss or
//! a stale recency — a load still returns only bytes that pass the frame,
//! fingerprint and decode checks for the key asked for.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read, Write};
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
const LOG_HEADER: &str = "dmc-store v1\n";
/// Lines the log may hold beyond two per resident entry before it is
/// compacted.
const LOG_SLACK_LINES: u64 = 1024;

type Key = (u8, u128);

#[derive(Clone, Copy, Debug)]
struct Entry {
    seq: u64,
    bytes: u64,
}

/// One line of the log: the state `key` is in from sequence number `seq`
/// on — resident with that many payload bytes, or (`None`) gone.
#[derive(Clone, Copy, Debug)]
struct Record {
    seq: u64,
    key: Key,
    bytes: Option<u64>,
}

impl Record {
    fn parse(line: &str) -> Option<Record> {
        let mut parts = line.split('\t');
        let seq = parts.next()?.parse::<u64>().ok()?;
        let tag = parts.next()?.parse::<u8>().ok()?;
        let fp = u128::from_str_radix(parts.next()?, 16).ok()?;
        let bytes = match parts.next()? {
            "-" => None,
            n => Some(n.parse::<u64>().ok()?),
        };
        Some(Record {
            seq,
            key: (tag, fp),
            bytes,
        })
    }

    fn write_line(&self, out: &mut String) {
        let (tag, fp) = self.key;
        let _ = write!(out, "{}\t{tag}\t{fp:032x}\t", self.seq);
        let _ = match self.bytes {
            Some(n) => writeln!(out, "{n}"),
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
            self.bytes_total = self.bytes_total.saturating_sub(old.bytes);
        }
        if let Some(bytes) = r.bytes {
            self.entries.insert(r.key, Entry { seq: r.seq, bytes });
            self.bytes_total = self.bytes_total.saturating_add(bytes);
        }
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

/// What reading an artifact file found, short of corruption.
enum Found {
    /// The artifact and its payload bytes.
    Artifact(Artifact, u64),
    /// No file: it vanished out from under the index.
    Gone,
    /// A sound payload of another codec version, an earlier build's.
    Stale,
}

/// The persistent sharded store. See the [module docs](self) for the
/// layout, integrity and eviction disciplines.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    max_bytes: Option<u64>,
    index: Index,
    /// `index.tsv`, open for appending.
    log: fs::File,
    /// Record lines in `index.tsv`.
    log_lines: u64,
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
    /// Any I/O error creating the directory tree, or reading or
    /// compacting the index. An unparsable index is not an error: the
    /// store restarts empty (stale shard files are lazily dropped as key
    /// mismatches).
    pub fn open(root: impl Into<PathBuf>, max_bytes: Option<u64>) -> io::Result<DiskStore> {
        let root = root.into();
        fs::create_dir_all(root.join("shards"))?;
        fs::create_dir_all(root.join("quarantine"))?;
        fs::create_dir_all(root.join("tmp"))?;
        let mut log = fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(root.join("index.tsv"))?;
        let mut bytes = Vec::new();
        log.read_to_end(&mut bytes)?;
        // Bytes that are not UTF-8 become lines that do not parse.
        let (index, log_lines, well_formed) = Index::replay(&String::from_utf8_lossy(&bytes));
        let mut store = DiskStore {
            root,
            max_bytes,
            index,
            log,
            log_lines,
            hits: 0,
            misses: 0,
            corrupt: 0,
            evictions: 0,
            bytes_written: 0,
            bytes_read: 0,
        };
        if !well_formed || store.log_is_long() {
            store.compact()?;
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

    /// The artifact file path for a key.
    pub fn path_of(&self, stage: StageId, key: Fingerprint) -> PathBuf {
        self.shard_path((stage.tag(), key.0))
    }

    /// The artifact file path of an index key, whether or not its tag
    /// still names a stage.
    fn shard_path(&self, (tag, fp): Key) -> PathBuf {
        let hex = format!("{fp:032x}");
        self.root
            .join("shards")
            .join(&hex[..2])
            .join(format!("{tag:02x}-{hex}.art"))
    }

    fn log_is_long(&self) -> bool {
        let entries = self.index.entries.len() as u64;
        self.log_lines > 2 * entries + LOG_SLACK_LINES
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
        if self.log.write_all(line.as_bytes()).is_err() || self.log_is_long() {
            let _ = self.compact();
        }
    }

    /// Rewrites the log atomically (write + rename) as one line per
    /// resident entry, in sequence order so the file bytes are a pure
    /// function of history, and reopens it for appending.
    fn compact(&mut self) -> io::Result<()> {
        let mut entries: Vec<_> = self.index.entries.iter().collect();
        entries.sort_unstable_by_key(|&(&key, e)| (e.seq, key));
        let mut text = String::from(LOG_HEADER);
        for (&key, e) in entries {
            Record {
                seq: e.seq,
                key,
                bytes: Some(e.bytes),
            }
            .write_line(&mut text);
        }
        let path = self.root.join("index.tsv");
        let tmp = self.root.join("tmp").join("index.tsv");
        fs::write(&tmp, text)?;
        fs::rename(&tmp, &path)?;
        self.log = fs::OpenOptions::new().append(true).open(path)?;
        self.log_lines = self.index.entries.len() as u64;
        Ok(())
    }

    /// Re-stamps a resident entry with the next sequence number.
    fn touch(&mut self, key: Key) {
        if let Some(e) = self.index.entries.get(&key) {
            self.commit(Record {
                seq: self.index.next_seq,
                key,
                bytes: Some(e.bytes),
            });
        }
    }

    /// Writes a resident entry's tombstone.
    fn drop_entry(&mut self, key: Key) {
        if let Some(e) = self.index.entries.get(&key) {
            self.commit(Record {
                seq: e.seq,
                key,
                bytes: None,
            });
        }
    }

    /// Moves a rejected artifact file into `quarantine/`, never
    /// clobbering an earlier capture (a numeric suffix disambiguates).
    fn quarantine(&self, path: &Path) {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unnamed.art".to_owned());
        let dir = self.root.join("quarantine");
        let mut target = dir.join(&name);
        let mut n = 0u32;
        while target.exists() {
            n += 1;
            target = dir.join(format!("{name}.{n}"));
        }
        let _ = fs::rename(path, &target);
    }

    /// Reads and fully validates one artifact file. `Err` means the
    /// bytes are wrong — the caller quarantines.
    fn read_artifact(
        &self,
        stage: StageId,
        key: Fingerprint,
        path: &Path,
    ) -> Result<Found, &'static str> {
        let mut file = match fs::File::open(path) {
            Ok(f) => f,
            Err(_) => return Ok(Found::Gone),
        };
        let mut bytes = Vec::new();
        if file.read_to_end(&mut bytes).is_err() {
            return Err("unreadable file");
        }
        if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
            return Err("short file");
        }
        if &bytes[..4] != MAGIC {
            return Err("bad magic");
        }
        if bytes[4] != FORMAT_VERSION {
            return Err("container format version mismatch");
        }
        if bytes[5] != stage.tag() {
            return Err("stage tag mismatch");
        }
        let mut fp = [0u8; 16];
        fp.copy_from_slice(&bytes[6..22]);
        if u128::from_le_bytes(fp) != key.0 {
            return Err("key fingerprint mismatch");
        }
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&bytes[22..30]);
        let len = u64::from_le_bytes(len8) as usize;
        if bytes.len() != HEADER_BYTES + len + TRAILER_BYTES {
            return Err("payload length mismatch");
        }
        let payload = &bytes[HEADER_BYTES..HEADER_BYTES + len];
        let mut want = [0u8; 16];
        want.copy_from_slice(&bytes[HEADER_BYTES + len..]);
        if fnv1a128(FNV_OFFSET, payload) != u128::from_le_bytes(want) {
            return Err("payload fingerprint mismatch");
        }
        if payload
            .first()
            .is_some_and(|&v| v != dmc_core::CODEC_VERSION)
        {
            return Ok(Found::Stale);
        }
        let artifact =
            Artifact::decode_payload(stage, payload).map_err(|_| "payload decode failure")?;
        Ok(Found::Artifact(artifact, len as u64))
    }

    /// Evicts lowest-sequence entries until the byte bound holds. The
    /// bound is hard: the just-written entry has the highest sequence,
    /// so it is evicted only when it alone exceeds the bound. An entry
    /// under a tag no [`StageId`] names (a retired stage's) goes the same
    /// way, file and all.
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
            let _ = fs::remove_file(self.shard_path(key));
            self.evictions += 1;
            self.drop_entry(key);
        }
    }
}

impl ArtifactStore for DiskStore {
    fn load(&mut self, stage: StageId, key: Fingerprint) -> Option<Artifact> {
        let entry = (stage.tag(), key.0);
        if !self.index.entries.contains_key(&entry) {
            self.misses += 1;
            return None;
        }
        let path = self.path_of(stage, key);
        match self.read_artifact(stage, key, &path) {
            Ok(Found::Artifact(artifact, len)) => {
                self.hits += 1;
                self.bytes_read += len;
                self.touch(entry);
                Some(artifact)
            }
            Ok(Found::Gone) => {
                // File vanished out from under the index: a plain miss.
                self.misses += 1;
                self.drop_entry(entry);
                None
            }
            Ok(Found::Stale) => {
                self.misses += 1;
                let _ = fs::remove_file(&path);
                self.drop_entry(entry);
                None
            }
            Err(_why) => {
                self.misses += 1;
                self.corrupt += 1;
                self.quarantine(&path);
                self.drop_entry(entry);
                None
            }
        }
    }

    fn contains(&mut self, stage: StageId, key: Fingerprint) -> bool {
        self.index.entries.contains_key(&(stage.tag(), key.0))
    }

    fn store(&mut self, stage: StageId, key: Fingerprint, artifact: &Artifact) {
        let payload = artifact.encode_payload(stage);
        let mut bytes = Vec::with_capacity(HEADER_BYTES + payload.len() + TRAILER_BYTES);
        bytes.extend_from_slice(MAGIC);
        bytes.push(FORMAT_VERSION);
        bytes.push(stage.tag());
        bytes.extend_from_slice(&key.0.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a128(FNV_OFFSET, &payload).to_le_bytes());

        let path = self.path_of(stage, key);
        let tmp = self
            .root
            .join("tmp")
            .join(format!("{:02x}-{:032x}.art", stage.tag(), key.0));
        let staged = path
            .parent()
            .map(fs::create_dir_all)
            .map(|r| r.is_ok())
            .unwrap_or(false)
            && fs::File::create(&tmp)
                .and_then(|mut f| f.write_all(&bytes))
                .is_ok()
            && fs::rename(&tmp, &path).is_ok();
        if !staged {
            // Best-effort cache: a failed write leaves the store as it
            // was (minus any tmp litter), never half an entry.
            let _ = fs::remove_file(&tmp);
            return;
        }
        let len = payload.len() as u64;
        self.commit(Record {
            seq: self.index.next_seq,
            key: (stage.tag(), key.0),
            bytes: Some(len),
        });
        self.bytes_written += len;
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

    fn resident(s: &mut DiskStore, keys: std::ops::Range<u128>) -> Vec<u128> {
        keys.filter(|&i| s.contains(StageId::Parse, key(i)))
            .collect()
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
        assert!(!s.path_of(StageId::Parse, key(2)).exists());
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
    /// like any other entry: file removed, eviction counted, bound held.
    #[test]
    fn retired_tag_entries_are_evicted_with_their_files() {
        let dir = tmpdir("evict-retired");
        let art = program_artifact(1);
        let one = payload_len(&art);
        {
            let mut s = DiskStore::open(&dir, None).unwrap();
            s.store(StageId::Parse, key(1), &art);
        }
        // What the previous version left behind: three index lines, older
        // than the `Parse` entry, and the files they name.
        let retired: Vec<Key> = [1u8, 3, 5].map(|tag| (tag, key(2).0)).to_vec();
        let mut log = String::from(LOG_HEADER);
        for (seq, &(tag, fp)) in retired.iter().enumerate() {
            let _ = writeln!(log, "{seq}\t{tag}\t{fp:032x}\t{one}");
        }
        let _ = writeln!(log, "3\t0\t{:032x}\t{one}", key(1).0);
        fs::write(dir.join("index.tsv"), log).unwrap();

        // Room for two payloads: the next store pushes all three out.
        let mut s = DiskStore::open(&dir, Some(2 * one)).unwrap();
        let files: Vec<PathBuf> = retired.iter().map(|&k| s.shard_path(k)).collect();
        for f in &files {
            fs::create_dir_all(f.parent().unwrap()).unwrap();
            fs::write(f, b"a retired stage's artifact").unwrap();
        }
        assert_eq!((s.stats().entries, s.stats().bytes), (4, 4 * one));
        assert_eq!(s.keys(), [(StageId::Parse, key(1))]);

        s.store(StageId::Parse, key(3), &art);
        assert_eq!(s.stats().evictions, 3);
        assert_eq!((s.stats().entries, s.stats().bytes), (2, 2 * one));
        for f in &files {
            assert!(!f.exists(), "{} leaked", f.display());
        }
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
        assert!(!path.exists(), "corrupt file removed from the shard");
        assert_eq!(s.quarantined().unwrap().len(), 1);
        // The slot is reusable and the replacement loads.
        s.store(StageId::Parse, key(5), &art);
        assert!(s.load(StageId::Parse, key(5)).is_some());
    }

    /// A sound file of an older codec version is a miss, not corruption:
    /// removed, not quarantined, and the key stores and loads again.
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
        assert!(!path.exists(), "the stale file is removed");
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
            (
                fs::read_to_string(dir.join("index.tsv")).unwrap(),
                s.stats(),
            )
        };
        let (ia, sa) = run("det-a");
        let (ib, sb) = run("det-b");
        assert_eq!(ia, ib);
        assert_eq!(sa, sb);
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
            format!("dmc-store v2\n{body}"),
            String::new(),
        ] {
            fs::write(dir.join("index.tsv"), bad).unwrap();
            let mut s = DiskStore::open(&dir, None).unwrap();
            assert_eq!(s.stats().entries, 0);
            assert_eq!(log_text(&dir), LOG_HEADER, "compaction rewrote the file");
            // The shard files are still there; storing over them works.
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
        let forged = format!("{LOG_HEADER}{max}\t0\t01\t{max}\n{max}\t0\t02\t{max}\n");
        fs::write(dir.join("index.tsv"), forged).unwrap();
        let mut s = DiskStore::open(&dir, Some(1 << 20)).unwrap();
        assert_eq!((s.stats().entries, s.stats().bytes), (2, max));
        // Storing and evicting over it neither panics nor loses the store.
        s.store(StageId::Parse, key(1), &program_artifact(1));
        assert!(s.stats().evictions > 0);
        assert!(s.load(StageId::Parse, key(1)).is_some());
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
            let path = s.path_of(StageId::Parse, key(7));
            let mut bytes = fs::read(&path).unwrap();
            bytes[HEADER_BYTES] ^= 0xFF;
            fs::write(&path, bytes).unwrap();
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

    #[test]
    fn an_index_in_the_previous_format_opens_unchanged() {
        // What the store wrote before the index became a log: the header
        // and one line per entry in sequence order, rewritten every time.
        const PARENT_INDEX: &str = "dmc-store v1\n\
            3\t0\t0000000000000001daa66d2c7ddf743f\t120\n\
            5\t1\t00000000000000013c6ef372fe94f82b\t64\n\
            9\t0\t00000000000000009e3779b97f4a7c15\t7\n";
        let dir = tmpdir("parent-format");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("index.tsv"), PARENT_INDEX).unwrap();
        let s = DiskStore::open(&dir, None).unwrap();
        assert_eq!(log_text(&dir), PARENT_INDEX);
        let mut seqs: Vec<_> = s
            .index
            .entries
            .iter()
            .map(|(&(tag, fp), e)| (e.seq, tag, fp, e.bytes))
            .collect();
        seqs.sort_unstable();
        assert_eq!(
            seqs,
            [
                (3, 0, key(3).0, 120),
                (5, 1, key(2).0, 64),
                (9, 0, key(1).0, 7),
            ]
        );
        // The tag-1 line is a retired stage's (`stmt-info`): the entry
        // and its 64 bytes stay in the index, `keys()` omits it.
        assert_eq!((s.index.next_seq, s.stats().bytes), (10, 191));
        assert_eq!(s.stats().entries, 3);
        assert_eq!(
            s.keys(),
            [(StageId::Parse, key(1)), (StageId::Parse, key(3))]
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
        let line = format!("10000\t0\t{:032x}\t{}\n", key(1).0, payload_len(&art));
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
