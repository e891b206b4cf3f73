//! The planner's fold (§6.2, with §6.1.3 and §6.2.1): one pass over a
//! communication set's scan that keeps what each message is — its words,
//! its anchors, the class of its payload — and not its elements.
//!
//! The scan runs `s_iter` outermost, so the points of one send iteration,
//! a *block*, arrive together. A block's kept points are sorted into
//! *runs*, one per lane — (sender, re-fetch prefix, receiver) — each
//! deduplicated as §6.1.3 asks. Each run is folded into its lane's open
//! *chunk* at every legality split asked for: a chunk is what one sender
//! transmits to one receiver under one key, and it closes when the
//! send-iteration prefix that keys it changes. Payload *classes* are
//! refined run by run by exact comparison with the same sender's other
//! receivers in the block. What is held is one block, the lanes, the open
//! chunks' classes and the closed chunks' summaries — and, in values mode,
//! one item list per class.
//!
//! A set's last send-iteration level is *counted* instead of iterated when
//! no split folded keys a chunk by it and the scan can hand it out as
//! kernel runs ([`CommScan::for_each_run`](crate::CommScan::for_each_run)):
//! the lane does not move along it, and the consuming iteration and the
//! array element move affinely. A kernel run is then one row per send
//! iteration of one lane, where §6.1.3's dedup cannot fire, so the runs of
//! one send-iteration prefix, a *band*, stand for its blocks whenever each
//! lane has at most one run in it: a run adds its length to its chunk's
//! words, its last value is the chunk's last send, the lexicographic
//! minimum of its two ends is its first use (each component is affine, so
//! monotone, along it), and two runs carry the same payload when their
//! values and their array elements at both ends agree. A band where a lane
//! repeats hands the whole set to the point fold, which every other set
//! takes too; payload classes are numbered in message order, so both paths
//! give the same [`Folded`].
//!
//! A set whose data has no producer has no send iteration: it is one
//! block, and its points are held whole while it is folded. That is every
//! initial-owner set, so every set of a location-centric compile.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::ops::ControlFlow;

use dmc_decomp::ProcGrid;
use dmc_polyhedra::cache::WordHasher;

use crate::commset::{CommError, CommSet, ElemRow};

/// How [`fold_messages`] folds a communication set.
#[derive(Clone, Copy, Debug)]
pub struct FoldSpec<'a> {
    /// The physical grid. Under one, a processor is its rank, and an
    /// element whose sender and receiver fold to one rank is a local copy
    /// (§6.1.3); without one, processors are their virtual coordinates.
    pub grid: Option<&'a ProcGrid>,
    /// The legality splits to fold: send-iteration components past the
    /// aggregation prefix that also key a chunk, each capped as
    /// [`CommSet::split_depth`] caps it.
    pub splits: &'a [usize],
    /// Leading receive-iteration components a chunk's first use is taken
    /// over (the consuming statement's loop depth).
    pub read_depth: usize,
    /// §6.2 aggregation; off, every element is a chunk of its own.
    pub aggregate: bool,
    /// Whether chunks that carry one payload merge into one multicast
    /// group (§6.2.1): the set's [`crate::is_multicast`] verdict. Ignored
    /// without aggregation.
    pub multicast: bool,
    /// Whether to keep each payload's items (values mode).
    pub payloads: bool,
}

/// One chunk of a [`Folded`] set: what one sender transmits to one
/// receiver under one key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunk<'a> {
    /// The sender: its rank under a grid, its virtual coordinates without.
    pub sender: &'a [i128],
    /// The key: the `s_iter` aggregation prefix, for location-centric sets
    /// the `r_iter` re-fetch prefix, then the split's further `s_iter`
    /// components.
    pub key: &'a [i128],
    /// The receiver, as the sender.
    pub receiver: &'a [i128],
    /// The smallest consuming iteration carried (the receive anchor).
    pub first_use: &'a [i128],
    /// The send iteration of the last item carried (the send anchor).
    pub last_send: &'a [i128],
    /// Items carried.
    pub words: u64,
    /// The payload class: chunks of one class carry the same items.
    pub payload: usize,
}

/// One communication set folded at one legality split: its chunks in
/// message order — `(sender, aggregation and re-fetch key, receiver)`, then
/// send iteration — their multicast groups and, in values mode, the items
/// of each payload class, numbered in the order of their first chunks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Folded {
    split: usize,
    /// Where each part of a chunk record ends: sender, key, receiver,
    /// first use, last send.
    ends: [usize; 5],
    data: Vec<i128>,
    words: Vec<u64>,
    payload: Vec<u32>,
    /// Per group, its chunks, the first chunk first.
    groups: Vec<Vec<u32>>,
    /// Columns of a payload item: `s_iter`, then `arr`.
    item_split: usize,
    item_width: usize,
    /// Per payload class, its items (values mode; empty otherwise).
    items: Vec<Vec<i128>>,
    counted: Counted,
}

/// Whether a fold counted its set's runs: both paths fold a set to the
/// same chunks, so folds compare equal whichever path took them.
#[derive(Clone, Copy, Debug, Eq)]
struct Counted(bool);

impl PartialEq for Counted {
    fn eq(&self, _: &Counted) -> bool {
        true
    }
}

impl Folded {
    /// The legality split folded ([`FoldSpec::splits`], capped).
    pub fn split(&self) -> usize {
        self.split
    }

    /// Whether the fold counted the set's last send-iteration level
    /// instead of visiting its points (the module documentation's runs).
    pub fn counted(&self) -> bool {
        self.counted.0
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the set sends nothing.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Chunk `i`, in message order.
    pub fn chunk(&self, i: usize) -> Chunk<'_> {
        let rec = &self.data[i * self.ends[4]..][..self.ends[4]];
        let part = |k: usize| &rec[k.checked_sub(1).map_or(0, |p| self.ends[p])..self.ends[k]];
        Chunk {
            sender: part(0),
            key: part(1),
            receiver: part(2),
            first_use: part(3),
            last_send: part(4),
            words: self.words[i],
            payload: self.payload[i] as usize,
        }
    }

    /// The chunks, in message order.
    pub fn chunks(&self) -> impl Iterator<Item = Chunk<'_>> {
        (0..self.len()).map(|i| self.chunk(i))
    }

    /// The transmissions: per group, the indices of its chunks. A group is
    /// one chunk, or under multicast every chunk of one payload class, in
    /// message order; groups go in the order of their first chunks (each
    /// joins the first earlier chunk of its class).
    pub fn groups(&self) -> impl Iterator<Item = &[u32]> {
        self.groups.iter().map(Vec::as_slice)
    }

    /// The items of payload class `p` in pack order, as `(s_iter, arr)`;
    /// empty unless [`FoldSpec::payloads`] was asked.
    ///
    /// # Panics
    ///
    /// Panics once [`Folded::take_payloads`] took the classes.
    pub fn payload(&self, p: usize) -> impl Iterator<Item = (&[i128], &[i128])> {
        self.items[p]
            .chunks_exact(self.item_width.max(1))
            .map(|it| it.split_at(self.item_split))
    }

    /// Columns of a payload item: the `s_iter`, then the `arr` ones.
    pub fn item_width(&self) -> usize {
        self.item_width
    }

    /// Takes every payload class's items out of the fold: per class, its
    /// items flat in pack order, [`Folded::item_width`] columns each, as
    /// [`Folded::payload`] splits them.
    pub fn take_payloads(&mut self) -> Vec<Vec<i128>> {
        std::mem::take(&mut self.items)
    }
}

impl CommSet {
    /// The send-iteration components past the aggregation prefix that a
    /// legality split of `extra` adds to a chunk's key: `extra`, capped at
    /// the set's depth.
    pub fn split_depth(&self, extra: usize) -> usize {
        let n_s = self.dims.s_iter.len();
        (self.prefix_len + extra).min(n_s) - self.prefix_len.min(n_s)
    }
}

/// Folds a communication set for concrete parameter values, as the module
/// documentation describes: one [`Folded`] per split of `spec.splits`
/// (capped, repeats dropped), in that order. Messages go by `(sender,
/// key, receiver)`; a chunk's items are in the order both sides pack and
/// unpack in, lexicographic by `(i_s, p_s, i_r, p_r, a)`. §6.1.3 keeps,
/// under a grid, the first of the elements of one send iteration and one
/// lane that share an array element; without one, only identical
/// elements collapse.
///
/// # Errors
///
/// Returns [`CommError`] as [`CommSet::scan`] and
/// [`CommScan::for_each`](crate::CommScan::for_each) do: `ParamCount` on a wrong number of parameter values, `Poly` with
/// `Overflow` past the scan kernel's range or `Unbounded` on an unbounded
/// dimension. Returns `Ok(None)` when the set has more than `limit`
/// elements.
pub fn fold_messages(
    cs: &CommSet,
    param_vals: &[i128],
    spec: &FoldSpec<'_>,
    limit: usize,
) -> Result<Option<Vec<Folded>>, CommError> {
    let scan = cs.scan(param_vals)?;
    // A kernel run moves the last send iteration: no chunk may be keyed
    // by it.
    let ns = cs.dims.s_iter.len();
    let keyed = spec
        .splits
        .iter()
        .any(|&extra| cs.prefix_len.min(ns) + cs.split_depth(extra) >= ns);
    if spec.aggregate && !keyed {
        let mut folder = Folder::new(cs, spec, true);
        let (mut scanned, mut clash) = (0u64, false);
        let counted = scan.for_each_run(|first, last, len| {
            scanned += len;
            clash = scanned <= limit as u64 && !folder.push_run(first, last, len);
            Ok::<_, CommError>(if scanned > limit as u64 || clash {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        })?;
        if scanned > limit as u64 {
            return Ok(None);
        }
        if counted && !clash {
            return Ok(Some(folder.finish()));
        }
    }
    let mut folder = Folder::new(cs, spec, false);
    let mut scanned = 0usize;
    scan.for_each(|e| {
        scanned += 1;
        if scanned > limit {
            return Ok::<_, CommError>(ControlFlow::Break(()));
        }
        folder.push(e);
        Ok(ControlFlow::Continue(()))
    })?;
    Ok((scanned <= limit).then(|| folder.finish()))
}

/// A class slot with no payload id, and a run with no lane.
const NONE: u32 = u32::MAX;

/// One run of a block — the kept rows of one lane or, without aggregation,
/// one kept row — or of a band: one kernel run, a row of its own.
#[derive(Clone, Copy, Debug)]
struct Run {
    lane: u32,
    /// Block-local number of the run's sender and re-fetch prefix.
    group: u32,
    /// Range of the block's kept-row list.
    from: u32,
    to: u32,
    /// The kept row with the smallest consuming-iteration prefix.
    min: u32,
    /// Under multicast: the first run of the same group in this block with
    /// the same payload.
    same_as: u32,
}

/// Payload classes of open chunks: member counts, items (values mode) and
/// recycled ids.
#[derive(Default)]
struct Classes {
    count: Vec<u32>,
    items: Vec<Vec<i128>>,
    /// While a window closes: the payload id a class was given.
    slot: Vec<u32>,
    free: Vec<u32>,
}

impl Classes {
    fn alloc(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.count.push(0);
            self.items.push(Vec::new());
            self.slot.push(NONE);
            (self.count.len() - 1) as u32
        })
    }

    fn release(&mut self, c: u32) {
        self.count[c as usize] = 0;
        self.items[c as usize].clear();
        self.free.push(c);
    }
}

/// The chunks of one split while the fold runs.
struct Depth {
    split: usize,
    /// `s_iter` components keying a chunk.
    key_len: usize,
    ends: [usize; 5],
    /// Bumped when the open window closes; an open-chunk slot of an older
    /// generation is stale.
    generation: u32,
    /// First chunk of the open window.
    window: usize,
    data: Vec<i128>,
    words: Vec<u64>,
    /// Per chunk: its class while open, its payload id once closed.
    class: Vec<u32>,
    /// Per payload id, the items of its class (values mode).
    items: Vec<Vec<i128>>,
}

struct Folder<'a> {
    grid: Option<&'a ProcGrid>,
    aggregate: bool,
    multicast: bool,
    payloads: bool,
    /// Whether the set comes as kernel runs, one band at a time.
    counted: bool,
    /// Block row: `sender | key_r | receiver | ps | r_iter | pr | arr`.
    /// Band row: `sender | key_r | receiver | first use | first value,
    /// last value, length | arr at the first | arr at the last`.
    width: usize,
    /// Columns of the sender, and of the re-fetch prefix.
    ws: usize,
    kr: usize,
    /// Columns of the lane (`sender | key_r | receiver`).
    lane: usize,
    /// Where a row's consuming iteration, its run's values (band rows)
    /// and its array element start.
    r_at: usize,
    x_at: usize,
    arr_at: usize,
    ks: usize,
    rd: usize,
    /// The block's send iteration; in a band, its prefix, then the value
    /// of the run being folded.
    block_s: Vec<i64>,
    /// The send iteration of the last block that kept rows.
    last_s: Option<Vec<i64>>,
    rows: Vec<i64>,
    /// The block's rows, by index, in sorted order.
    order: Vec<u32>,
    kept: Vec<u32>,
    runs: Vec<Run>,
    redundant: Vec<bool>,
    by_arr: Vec<u32>,
    /// `(class, same_as, chunk, run)` of one group's runs under multicast.
    pairs: Vec<(u32, u32, u32, u32)>,
    closing: Vec<u32>,
    /// The lanes seen, numbered in order of first appearance; looked up
    /// once per run.
    lanes: HashMap<Vec<i64>, u32, BuildHasherDefault<WordHasher>>,
    /// Per lane and depth: `(generation, chunk)` of its open chunk.
    open: Vec<(u32, u32)>,
    /// Bands read; per lane, the last band that had a run of it; per band
    /// row, its lane.
    band: u32,
    seen: Vec<u32>,
    row_lane: Vec<u32>,
    depths: Vec<Depth>,
    classes: Classes,
}

impl<'a> Folder<'a> {
    fn new(cs: &CommSet, spec: &FoldSpec<'a>, counted: bool) -> Self {
        let d = &cs.dims;
        let (q, nr, na, ns) = (d.ps.len(), d.r_iter.len(), d.arr.len(), d.s_iter.len());
        let ws = if spec.grid.is_some() { 1 } else { q };
        let kr = cs.refetch_outer.min(nr);
        let lane = 2 * ws + kr;
        let ks = cs.prefix_len.min(ns);
        let mut depths: Vec<Depth> = Vec::new();
        for &extra in spec.splits {
            let split = cs.split_depth(extra);
            if depths.iter().any(|dep| dep.split == split) {
                continue;
            }
            let mut ends = [ws, ks + kr + split, ws, spec.read_depth, ns];
            for k in 1..5 {
                ends[k] += ends[k - 1];
            }
            depths.push(Depth {
                split,
                key_len: ks + split,
                ends,
                generation: 1,
                window: 0,
                data: Vec::new(),
                words: Vec::new(),
                class: Vec::new(),
                items: Vec::new(),
            });
        }
        let (r_at, x_at, arr_at) = if counted {
            let x_at = lane + spec.read_depth;
            (lane, x_at, x_at + 3)
        } else {
            (lane + q, 0, lane + 2 * q + nr)
        };
        Folder {
            grid: spec.grid,
            aggregate: spec.aggregate,
            multicast: spec.multicast && spec.aggregate,
            payloads: spec.payloads,
            counted,
            width: arr_at + if counted { 2 * na } else { na },
            ws,
            kr,
            lane,
            r_at,
            x_at,
            arr_at,
            ks,
            rd: spec.read_depth,
            block_s: Vec::new(),
            last_s: None,
            rows: Vec::new(),
            order: Vec::new(),
            kept: Vec::new(),
            runs: Vec::new(),
            redundant: Vec::new(),
            by_arr: Vec::new(),
            pairs: Vec::new(),
            closing: Vec::new(),
            lanes: HashMap::default(),
            open: Vec::new(),
            band: 0,
            seen: Vec::new(),
            row_lane: Vec::new(),
            depths,
            classes: Classes::default(),
        }
    }

    /// Appends an element's lane columns — sender, re-fetch prefix,
    /// receiver — to the rows, or returns `false` for a local copy, which
    /// is dropped.
    fn lane_of(&mut self, e: ElemRow<'_>) -> bool {
        let key_r = &e.r_iter()[..self.kr];
        match self.grid {
            Some(g) => {
                let (s, r) = (g.fold_rank(e.ps()), g.fold_rank(e.pr()));
                if s == r {
                    return false;
                }
                self.rows.push(s);
                self.rows.extend_from_slice(key_r);
                self.rows.push(r);
            }
            None => {
                if e.ps() == e.pr() {
                    return false;
                }
                self.rows.extend_from_slice(e.ps());
                self.rows.extend_from_slice(key_r);
                self.rows.extend_from_slice(e.pr());
            }
        }
        true
    }

    /// Takes one scanned element: a local copy is dropped, anything else
    /// joins its block.
    fn push(&mut self, e: ElemRow<'_>) {
        if e.s_iter() != self.block_s {
            self.block();
            self.block_s.clear();
            self.block_s.extend_from_slice(e.s_iter());
        }
        if self.lane_of(e) {
            for part in [e.ps(), e.r_iter(), e.pr(), e.arr()] {
                self.rows.extend_from_slice(part);
            }
        }
    }

    /// Takes one kernel run of `len` elements from `first` to `last`: a
    /// local copy is dropped, anything else joins its band. Returns `false`
    /// when the run's lane already has one in the band.
    fn push_run(&mut self, first: ElemRow<'_>, last: ElemRow<'_>, len: u64) -> bool {
        let (s, n) = (first.s_iter(), first.s_iter().len() - 1);
        if self.block_s.get(..n) != Some(&s[..n]) {
            self.block();
            self.block_s.clear();
            self.block_s.extend_from_slice(s);
            self.band += 1;
        }
        let row = (self.rows.len() / self.width) as u32;
        if !self.lane_of(first) {
            return true;
        }
        let lane = self.lane_id(row);
        if std::mem::replace(&mut self.seen[lane as usize], self.band) == self.band {
            return false;
        }
        self.row_lane.push(lane);
        let rd = self.rd;
        let first_use = std::cmp::min(&first.r_iter()[..rd], &last.r_iter()[..rd]);
        self.rows.extend_from_slice(first_use);
        self.rows
            .extend_from_slice(&[s[n], last.s_iter()[n], len as i64]);
        self.rows.extend_from_slice(first.arr());
        self.rows.extend_from_slice(last.arr());
        true
    }

    fn row(&self, i: u32) -> &[i64] {
        &self.rows[i as usize * self.width..][..self.width]
    }

    fn arr(&self, i: u32) -> &[i64] {
        &self.row(i)[self.arr_at..]
    }

    /// Folds the block read so far into the chunks of every depth.
    fn block(&mut self) {
        if self.rows.is_empty() {
            return;
        }
        // A window closes when the s_iter prefix keying its chunks moves.
        for d in 0..self.depths.len() {
            let k = self.depths[d].key_len;
            if self
                .last_s
                .as_ref()
                .is_some_and(|last| last[..k] != self.block_s[..k])
            {
                self.close(d);
            }
        }
        match &mut self.last_s {
            Some(last) => last.clone_from(&self.block_s),
            None => self.last_s = Some(self.block_s.clone()),
        }
        if self.counted {
            self.form_band();
        } else {
            self.form_runs();
        }
        if self.multicast {
            self.match_payloads();
        }
        for d in 0..self.depths.len() {
            self.fold_runs(d);
        }
        self.rows.clear();
        self.row_lane.clear();
    }

    /// The rows of the block or band, by index, sorted.
    fn sorted_rows(&mut self) -> Vec<u32> {
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(0..(self.rows.len() / self.width) as u32);
        order.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
        self.kept.clear();
        self.runs.clear();
        order
    }

    /// The group of a run whose first kept row is `row`, following the
    /// runs cut so far: the last one's, or the next when the sender or the
    /// re-fetch prefix moved.
    fn group_of(&self, row: u32) -> u32 {
        self.runs.last().map_or(0, |prev| {
            let sender = |k: u32| &self.row(k)[..self.ws + self.kr];
            let moved = sender(self.kept[prev.from as usize]) != sender(row);
            prev.group + u32::from(moved)
        })
    }

    /// Sorts the band's rows by lane: each is a run of its own.
    fn form_band(&mut self) {
        let order = self.sorted_rows();
        for (k, &row) in order.iter().enumerate() {
            let group = self.group_of(row);
            self.kept.push(row);
            self.keep_run(self.row_lane[row as usize], group, k, k + 1);
        }
        self.order = order;
    }

    /// Sorts the block's rows by `(lane, ps, r_iter, pr, arr)` and cuts
    /// them into deduplicated runs.
    fn form_runs(&mut self) {
        let order = self.sorted_rows();
        let mut i = 0;
        while i < order.len() {
            let first = order[i];
            let lane_cols = |k: u32| &self.row(k)[..self.lane];
            let j = i + order[i..]
                .iter()
                .take_while(|&&k| lane_cols(k) == lane_cols(first))
                .count();
            let lane = if self.aggregate {
                self.lane_id(first)
            } else {
                NONE
            };
            let group = self.group_of(first);
            let from = self.kept.len();
            if j - i == 1 {
                self.kept.push(first);
            } else {
                self.keep(&order[i..j]);
            }
            let to = self.kept.len();
            if self.aggregate {
                self.keep_run(lane, group, from, to);
            } else {
                (from..to).for_each(|k| self.keep_run(lane, group, k, k + 1));
            }
            i = j;
        }
        self.order = order;
    }

    /// Appends the kept rows of one lane's sorted rows: under a grid the
    /// first row of each array element (§6.1.3: one physical processor
    /// emulating several virtual receivers of one value gets it once, at
    /// its earliest use); without one, each distinct row.
    fn keep(&mut self, rows: &[u32]) {
        if self.grid.is_none() {
            self.kept.push(rows[0]);
            for w in rows.windows(2) {
                if self.row(w[0]) != self.row(w[1]) {
                    self.kept.push(w[1]);
                }
            }
        } else {
            let mut by_arr = std::mem::take(&mut self.by_arr);
            by_arr.clear();
            by_arr.extend(0..rows.len() as u32);
            by_arr.sort_by(|&a, &b| self.arr(rows[a as usize]).cmp(self.arr(rows[b as usize])));
            self.redundant.clear();
            self.redundant.resize(rows.len(), false);
            for w in by_arr.windows(2) {
                let (a, b) = (rows[w[0] as usize], rows[w[1] as usize]);
                self.redundant[w[1] as usize] = self.arr(a) == self.arr(b);
            }
            let kept = rows.iter().zip(&self.redundant).filter(|(_, &r)| !r);
            self.kept.extend(kept.map(|(&row, _)| row));
            self.by_arr = by_arr;
        }
    }

    /// The number of a row's lane, a new lane getting the next one.
    fn lane_id(&mut self, row: u32) -> u32 {
        let cols = &self.rows[row as usize * self.width..][..self.lane];
        if let Some(&id) = self.lanes.get(cols) {
            return id;
        }
        let id = self.lanes.len() as u32;
        self.lanes.insert(cols.to_vec(), id);
        self.open
            .extend(std::iter::repeat_n((0, 0), self.depths.len()));
        self.seen.push(0);
        id
    }

    fn keep_run(&mut self, lane: u32, group: u32, from: usize, to: usize) {
        let first_use = |k: u32| &self.row(k)[self.r_at..][..self.rd];
        let kept = &self.kept[from..to];
        let min = kept[1..].iter().fold(
            kept[0],
            |m, &k| if first_use(k) < first_use(m) { k } else { m },
        );
        self.runs.push(Run {
            lane,
            group,
            from: from as u32,
            to: to as u32,
            min,
            same_as: self.runs.len() as u32,
        });
    }

    /// Whether runs `a` and `b` carry the same array elements, in order:
    /// for band rows, whether their values and their array elements at
    /// both ends agree — the elements are affine in the values.
    fn same_items(&self, a: Run, b: Run) -> bool {
        if self.counted {
            let sig = |r: Run| &self.row(self.kept[r.from as usize])[self.x_at..];
            return sig(a) == sig(b);
        }
        let (a, b) = (
            &self.kept[a.from as usize..a.to as usize],
            &self.kept[b.from as usize..b.to as usize],
        );
        a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| self.arr(x) == self.arr(y))
    }

    /// The end of the runs from `start` on in its group.
    fn group_end(&self, start: usize) -> usize {
        let group = self.runs[start].group;
        start
            + self.runs[start..]
                .iter()
                .take_while(|r| r.group == group)
                .count()
    }

    /// Under multicast: points each run at the first run of its group
    /// whose payload — `(s_iter, arr)` item for item, the block's `s_iter`
    /// being common — is the same.
    fn match_payloads(&mut self) {
        let mut start = 0;
        while start < self.runs.len() {
            let end = self.group_end(start);
            for r in start + 1..end {
                let run = self.runs[r];
                let same = (start..r).find(|&s| {
                    let other = self.runs[s];
                    other.same_as == s as u32 && self.same_items(other, run)
                });
                if let Some(s) = same {
                    self.runs[r].same_as = s as u32;
                }
            }
            start = end;
        }
    }

    /// Folds the block's runs into depth `d`'s chunks.
    fn fold_runs(&mut self, d: usize) {
        let mut start = 0;
        while start < self.runs.len() {
            let end = self.group_end(start);
            // Chunks that open in this block start with one class: nothing
            // carried yet.
            let mut fresh = NONE;
            self.pairs.clear();
            for r in start..end {
                let run = self.runs[r];
                let slot = run.lane as usize * self.depths.len() + d;
                let depth = &self.depths[d];
                let open = self.aggregate && self.open[slot].0 == depth.generation;
                let c = if open {
                    self.open[slot].1
                } else {
                    let class = if self.multicast {
                        if fresh == NONE {
                            fresh = self.classes.alloc();
                        }
                        fresh
                    } else {
                        self.classes.alloc()
                    };
                    self.classes.count[class as usize] += 1;
                    let c = self.open_chunk(d, run, class);
                    if self.aggregate {
                        self.open[slot] = (self.depths[d].generation, c);
                    }
                    c
                };
                self.add_run(d, c, run);
                let class = self.depths[d].class[c as usize];
                if self.multicast {
                    self.pairs.push((class, run.same_as, c, r as u32));
                } else if self.payloads {
                    self.append_items(class, r);
                }
            }
            if self.multicast {
                self.refine(d);
            }
            start = end;
        }
    }

    /// Opens a chunk of depth `d` for `run`'s lane in the current block.
    fn open_chunk(&mut self, d: usize, run: Run, class: u32) -> u32 {
        let row = &self.rows[self.kept[run.from as usize] as usize * self.width..][..self.width];
        let first = &self.rows[run.min as usize * self.width + self.r_at..][..self.rd];
        let (ws, ks, kr) = (self.ws, self.ks, self.kr);
        let depth = &mut self.depths[d];
        let s = &self.block_s;
        for part in [
            &row[..ws],
            &s[..ks],
            &row[ws..ws + kr],
            &s[ks..depth.key_len],
            &row[ws + kr..self.lane],
            first,
            s,
        ] {
            widen(&mut depth.data, part);
        }
        depth.words.push(0);
        depth.class.push(class);
        (depth.words.len() - 1) as u32
    }

    /// Adds a run's words and anchors to chunk `c` of depth `d`.
    fn add_run(&mut self, d: usize, c: u32, run: Run) {
        let mut words = u64::from(run.to - run.from);
        if self.counted {
            let x = &self.row(self.kept[run.from as usize])[self.x_at..];
            let (last, len, n) = (x[1], x[2], self.block_s.len() - 1);
            self.block_s[n] = last;
            words = len as u64;
        }
        let first = &self.rows[run.min as usize * self.width + self.r_at..][..self.rd];
        let depth = &mut self.depths[d];
        let e = depth.ends;
        let rec = &mut depth.data[c as usize * e[4]..][..e[4]];
        let (first_use, last_send) = rec[e[2]..].split_at_mut(e[3] - e[2]);
        if first
            .iter()
            .map(|&v| i128::from(v))
            .lt(first_use.iter().copied())
        {
            overwrite(first_use, first);
        }
        overwrite(last_send, &self.block_s);
        depth.words[c as usize] += words;
    }

    /// Appends run `r`'s items to class `class` (values mode); a band
    /// row's, each value with the array element at it.
    fn append_items(&mut self, class: u32, r: usize) {
        let run = self.runs[r];
        let items = &mut self.classes.items[class as usize];
        if self.counted {
            let row =
                &self.rows[self.kept[run.from as usize] as usize * self.width..][..self.width];
            let (x, arr) = (&row[self.x_at..self.arr_at], &row[self.arr_at..]);
            let (at_first, at_last) = arr.split_at(arr.len() / 2);
            let n = self.block_s.len() - 1;
            for i in 0..x[2] {
                widen(items, &self.block_s[..n]);
                items.push(along(x[0], x[1], x[2], i));
                let arr = at_first.iter().zip(at_last);
                items.extend(arr.map(|(&a, &b)| along(a, b, x[2], i)));
            }
            return;
        }
        for &k in &self.kept[run.from as usize..run.to as usize] {
            widen(items, &self.block_s);
            let row = &self.rows[k as usize * self.width..][..self.width];
            widen(items, &row[self.arr_at..]);
        }
    }

    /// Refines the classes of one sender's chunks by this block's runs:
    /// the chunks of a class that got equal runs stay together. A class
    /// whose every chunk got one run keeps its id; otherwise each part
    /// that got a run moves to a new class, and the chunks the block did
    /// not reach keep the old one.
    fn refine(&mut self, d: usize) {
        let mut pairs = std::mem::take(&mut self.pairs);
        if !pairs.is_sorted() {
            pairs.sort_unstable();
        }
        let mut i = 0;
        while i < pairs.len() {
            let (old, same_as, _, r) = pairs[i];
            let len = pairs[i..]
                .iter()
                .take_while(|p| (p.0, p.1) == (old, same_as))
                .count();
            let class = if len as u32 == self.classes.count[old as usize] {
                old
            } else {
                let new = self.classes.alloc();
                self.classes.count[new as usize] = len as u32;
                self.classes.count[old as usize] -= len as u32;
                if self.payloads {
                    let carried = std::mem::take(&mut self.classes.items[old as usize]);
                    self.classes.items[new as usize].extend_from_slice(&carried);
                    self.classes.items[old as usize] = carried;
                }
                for p in &pairs[i..i + len] {
                    self.depths[d].class[p.2 as usize] = new;
                }
                new
            };
            if self.payloads {
                self.append_items(class, r as usize);
            }
            i += len;
        }
        self.pairs = pairs;
    }

    /// Closes depth `d`'s open window: each class becomes a payload id,
    /// taking its items along, and is recycled.
    fn close(&mut self, d: usize) {
        let depth = &mut self.depths[d];
        let classes = &mut self.classes;
        for c in depth.window..depth.words.len() {
            let class = depth.class[c] as usize;
            if classes.slot[class] == NONE {
                classes.slot[class] = depth.items.len() as u32;
                // Closed, the class's items grow no more.
                let mut items = std::mem::take(&mut classes.items[class]);
                items.shrink_to_fit();
                depth.items.push(items);
                self.closing.push(class as u32);
            }
            depth.class[c] = classes.slot[class];
        }
        for class in self.closing.drain(..) {
            classes.slot[class as usize] = NONE;
            classes.release(class);
        }
        depth.generation += 1;
        depth.window = depth.words.len();
    }

    fn finish(mut self) -> Vec<Folded> {
        self.block();
        for d in 0..self.depths.len() {
            self.close(d);
        }
        let ends = if self.counted { 2 } else { 1 };
        let (msg_key, arr_width) = (self.ks + self.kr, (self.width - self.arr_at) / ends);
        self.depths
            .into_iter()
            .map(|depth| depth.finish(msg_key, arr_width, self.counted))
            .collect()
    }
}

/// Appends `part`, widened to the `i128` of [`Folded`].
fn widen(out: &mut Vec<i128>, part: &[i64]) {
    out.extend(part.iter().map(|&v| i128::from(v)));
}

/// The `i`-th of `len` values from `first` to `last`, all steps equal.
fn along(first: i64, last: i64, len: i64, i: i64) -> i128 {
    let (first, last) = (i128::from(first), i128::from(last));
    if len == 1 {
        return first;
    }
    let step = (last - first) / i128::from(len - 1);
    debug_assert_eq!(step * i128::from(len - 1), last - first, "an affine value");
    first + step * i128::from(i)
}

/// Overwrites `out` with `part`, widened.
fn overwrite(out: &mut [i128], part: &[i64]) {
    for (o, &v) in out.iter_mut().zip(part) {
        *o = v.into();
    }
}

impl Depth {
    /// Puts the chunks in message order, numbers the payload classes in
    /// the order of their first chunks — whichever order the fold opened
    /// them in — and forms the groups, one per class.
    fn finish(mut self, msg_key: usize, arr_width: usize, counted: bool) -> Folded {
        let (e, n) = (self.ends, self.words.len());
        let item_split = e[4] - e[3];
        let rec = |i: u32| &self.data[i as usize * e[4]..][..e[4]];
        let message = |i: u32| {
            let r = rec(i);
            (&r[..e[0]], &r[e[0]..e[0] + msg_key], &r[e[1]..e[2]])
        };
        // Stable: one message's chunks stay in send-iteration order.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| message(a).cmp(&message(b)));
        let mut data = Vec::with_capacity(self.data.len());
        let (mut words, mut payload) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut id = vec![NONE; self.items.len()];
        let (mut groups, mut items): (Vec<Vec<u32>>, _) = (Vec::new(), Vec::new());
        for &i in &order {
            data.extend_from_slice(rec(i));
            words.push(self.words[i as usize]);
            let class = self.class[i as usize] as usize;
            if id[class] == NONE {
                id[class] = groups.len() as u32;
                groups.push(Vec::new());
                items.push(std::mem::take(&mut self.items[class]));
            }
            groups[id[class] as usize].push(payload.len() as u32);
            payload.push(id[class]);
        }
        Folded {
            split: self.split,
            ends: e,
            data,
            words,
            payload,
            groups,
            item_split,
            item_width: item_split + arr_width,
            items,
            counted: Counted(counted),
        }
    }
}
