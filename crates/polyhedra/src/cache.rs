//! Per-thread memoization of the expensive polyhedral queries.
//!
//! Every pipeline stage (Last Write Trees, communication sets, the §5.1
//! negation test, scanning) bottoms out in the same three primitives —
//! integer feasibility, Fourier–Motzkin projection, redundancy removal —
//! and the pipeline re-asks the *same* queries many times: per constraint,
//! per statement, per read. This module caches their answers.
//!
//! # One encoding, two row orders
//!
//! A constraint system already *is* its key; it only needs writing down
//! compactly. Every key is the same exact byte encoding of the queried
//! system, a sequence of variable-length integers (LEB128, zig-zag for
//! signed values, the full `i128` range):
//!
//! ```text
//! arity · (rows << 1 | contradiction) · eliminated count · eliminated dims…
//! then per row:  (dimension + 2 · coefficient)… · is_eq · constant
//! ```
//!
//! A row lists its non-zero coefficients only; `is_eq` (0 or 1, below
//! every `dimension + 2`) ends the list. Counts precede what they count,
//! so the encoding parses back unambiguously: two systems have equal keys
//! exactly when they have the same arity, flag, eliminated-dimension list
//! and row sequence. Only the order the rows are written in differs
//! between the maps:
//!
//! * **Feasibility** depends only on the constraint *set*, so its rows are
//!   sorted by their encoding — differently-built but equal systems share
//!   one entry.
//! * **Projection and redundancy removal** return constraint *lists* whose
//!   order feeds downstream code generation, so their rows stay in
//!   construction order (projection adds the eliminated dimensions). A hit
//!   returns bit-for-bit the value the uncached computation would produce,
//!   keeping cached and uncached pipelines byte-identical.
//!
//! A key is built in a per-map scratch buffer that is reused from lookup to
//! lookup and the map is probed with the borrowed bytes, so a *hit
//! allocates nothing for its key*; only a miss boxes the bytes it is about
//! to insert. A hit is decided by equality of the full encoding — the
//! hash (`WordHasher`, eight bytes per step) only picks the bucket, and a
//! store built over a hasher that returns a constant still answers exactly.
//!
//! Caches are thread-local (no locks on the hot path; a compile runs on
//! one thread, so every stage of it — and every later compile on that
//! thread — shares them), bounded in bytes (each map is cleared wholesale
//! when its keys and values pass `BUDGET_BYTES`), and invalidated whenever
//! the effective feasibility budget changes or the work ledger turns on
//! (see [`stats`]'s epoch).

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::mem::size_of;
use std::ops::Range;

use crate::linexpr::INLINE_DIMS;
use crate::polyhedron::Feasibility;
use crate::stats;
use crate::Constraint;

/// The part of a polyhedron its memoized answers depend on (dimension
/// names are irrelevant to the arithmetic).
#[derive(Clone, Copy)]
pub(crate) struct System<'a> {
    pub(crate) dims: usize,
    pub(crate) contradiction: bool,
    pub(crate) rows: &'a [Constraint],
}

/// The order a key writes its rows in (see the module docs).
#[derive(Clone, Copy)]
enum RowOrder {
    Construction,
    Sorted,
}

/// Reusable buffers a key is built in.
#[derive(Default)]
struct Scratch {
    /// The finished key.
    key: Vec<u8>,
    /// Row encodings waiting to be sorted; per row its first eight bytes
    /// as a big-endian number — byte order on all but the longest rows, at
    /// the price of one integer comparison — and where it lies.
    rows: Vec<u8>,
    spans: Vec<(u64, Range<usize>)>,
}

fn put_uint(buf: &mut Vec<u8>, v: u128) {
    if v < 0x80 {
        buf.push(v as u8);
    } else {
        put_uint_long(buf, v);
    }
}

#[cold]
fn put_uint_long(buf: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn put_int(buf: &mut Vec<u8>, v: i128) {
    // Zig-zag: small magnitudes of either sign stay short.
    put_uint(buf, ((v << 1) ^ (v >> 127)) as u128);
}

fn put_row(buf: &mut Vec<u8>, c: &Constraint) {
    for (d, &a) in c.expr().coeffs().iter().enumerate() {
        if a != 0 {
            put_uint(buf, d as u128 + 2);
            put_int(buf, a);
        }
    }
    buf.push(u8::from(c.is_eq()));
    put_int(buf, c.expr().constant_term());
}

impl Scratch {
    /// Leaves the encoding of `sys` (and, for a projection, the dimensions
    /// it eliminates) in `self.key`.
    fn encode(&mut self, sys: System<'_>, eliminated: &[usize], order: RowOrder) {
        let key = &mut self.key;
        key.clear();
        put_uint(key, sys.dims as u128);
        put_uint(
            key,
            (sys.rows.len() as u128) << 1 | u128::from(sys.contradiction),
        );
        put_uint(key, eliminated.len() as u128);
        for &d in eliminated {
            put_uint(key, d as u128);
        }
        match order {
            RowOrder::Construction => {
                for c in sys.rows {
                    put_row(key, c);
                }
            }
            RowOrder::Sorted => {
                self.rows.clear();
                self.spans.clear();
                for c in sys.rows {
                    let start = self.rows.len();
                    put_row(&mut self.rows, c);
                    let row = &self.rows[start..];
                    let mut head = [0u8; 8];
                    let n = row.len().min(8);
                    head[..n].copy_from_slice(&row[..n]);
                    self.spans
                        .push((u64::from_be_bytes(head), start..self.rows.len()));
                }
                let rows = &self.rows;
                self.spans.sort_unstable_by(|(a, at_a), (b, at_b)| {
                    a.cmp(b)
                        .then_with(|| rows[at_a.clone()].cmp(&rows[at_b.clone()]))
                });
                for (_, at) in &self.spans {
                    key.extend_from_slice(&rows[at.clone()]);
                }
            }
        }
    }
}

/// The feasibility key of `sys` as owned bytes, for
/// [`Polyhedron::canonical_key`](crate::Polyhedron::canonical_key).
pub(crate) fn canonical_key(sys: System<'_>) -> Box<[u8]> {
    let mut scratch = Scratch::default();
    scratch.encode(sys, &[], RowOrder::Sorted);
    scratch.key.into()
}

/// Hashes a key eight bytes at a time: one multiply per word, folded so
/// every input bit reaches both the bucket index and the control byte.
/// For keys a process derives itself, not outside input — here its
/// constraint systems, in the planner's fold its message lanes — so
/// nothing is lost by not being keyed like the default SipHash.
#[derive(Clone, Copy, Debug)]
pub struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher(0x243f_6a88_85a3_08d3)
    }
}

impl WordHasher {
    fn mix(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(w));
        }
    }

    // The slice hash's length prefix.
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A cached result polyhedron, stored space-free (the caller re-attaches
/// its own space; projection and redundancy removal never change spaces).
#[derive(Clone)]
pub(crate) struct CachedPoly {
    pub(crate) cons: Vec<Constraint>,
    pub(crate) contradiction: bool,
    /// Charged work units of the original (miss) computation, replayed by
    /// the [`ledger`](crate::ledger) on every hit so charged work stays
    /// cache-state-independent.
    pub(crate) charged: u64,
}

/// What a cached value keeps on the heap, for the byte budget.
trait HeapBytes {
    fn heap_bytes(&self) -> usize;
}

impl HeapBytes for (Feasibility, u64) {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl HeapBytes for CachedPoly {
    fn heap_bytes(&self) -> usize {
        let spilled = |c: &Constraint| match c.expr().len() {
            n if n > INLINE_DIMS => n * size_of::<i128>(),
            _ => 0,
        };
        self.cons
            .iter()
            .map(|c| size_of::<Constraint>() + spilled(c))
            .sum()
    }
}

/// Key and value bytes one thread-local map may hold before it is dropped
/// wholesale: twice the largest map any benchmark workload leaves resident
/// (the redundancy map of `symbolic_corpus`, 11.3 MB; EXPERIMENTS.md P19
/// lists every map on every workload), so no measured traffic reaches it
/// and what lies beyond is bounded without guessing at an eviction order.
const BUDGET_BYTES: usize = 24 << 20;

/// One exact, byte-bounded memo map and the scratch its keys are built in.
struct Store<V, S = BuildHasherDefault<WordHasher>> {
    map: HashMap<Box<[u8]>, V, S>,
    /// Σ over `map` of key length + entry size + value heap bytes.
    bytes: usize,
    budget: usize,
    scratch: Scratch,
}

impl<V: Clone + HeapBytes, S: BuildHasher + Default> Store<V, S> {
    fn new(budget: usize) -> Self {
        Store {
            map: HashMap::default(),
            bytes: 0,
            budget,
            scratch: Scratch::default(),
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }

    /// The cached answer for the encoded query, or — on a miss — the
    /// owned key to [`Store::put`] the computed answer under.
    fn lookup(
        &mut self,
        sys: System<'_>,
        eliminated: &[usize],
        order: RowOrder,
    ) -> Result<V, Box<[u8]>> {
        self.scratch.encode(sys, eliminated, order);
        let key = self.scratch.key.as_slice();
        self.map.get(key).cloned().ok_or_else(|| key.into())
    }

    fn put(&mut self, key: Box<[u8]>, v: V) {
        let cost = key.len() + size_of::<(Box<[u8]>, V)>() + v.heap_bytes();
        if self.bytes + cost > self.budget {
            self.clear();
            if cost > self.budget {
                return;
            }
        }
        // A replaced entry stays counted: the sum only ever errs high.
        self.bytes += cost;
        self.map.insert(key, v);
    }
}

/// A thread's [`Store`], emptied whenever [`stats::epoch`] has moved since
/// it was last used.
struct Local<V> {
    epoch: u64,
    store: Store<V>,
}

impl<V: Clone + HeapBytes> Local<V> {
    fn new() -> RefCell<Self> {
        RefCell::new(Local {
            epoch: stats::epoch(),
            store: Store::new(BUDGET_BYTES),
        })
    }

    fn current(&mut self) -> &mut Store<V> {
        let e = stats::epoch();
        if self.epoch != e {
            self.epoch = e;
            self.store.clear();
        }
        &mut self.store
    }
}

thread_local! {
    static FEAS: RefCell<Local<(Feasibility, u64)>> = Local::new();
    static PROJ: RefCell<Local<CachedPoly>> = Local::new();
    static REDUND: RefCell<Local<CachedPoly>> = Local::new();
}

pub(crate) fn feas_lookup(sys: System<'_>) -> Result<(Feasibility, u64), Box<[u8]>> {
    FEAS.with(|c| c.borrow_mut().current().lookup(sys, &[], RowOrder::Sorted))
}

pub(crate) fn feas_put(key: Box<[u8]>, v: (Feasibility, u64)) {
    FEAS.with(|c| c.borrow_mut().current().put(key, v));
}

pub(crate) fn proj_lookup(sys: System<'_>, eliminated: &[usize]) -> Result<CachedPoly, Box<[u8]>> {
    let order = RowOrder::Construction;
    PROJ.with(|c| c.borrow_mut().current().lookup(sys, eliminated, order))
}

pub(crate) fn proj_put(key: Box<[u8]>, v: CachedPoly) {
    PROJ.with(|c| c.borrow_mut().current().put(key, v));
}

pub(crate) fn redund_lookup(sys: System<'_>) -> Result<CachedPoly, Box<[u8]>> {
    let order = RowOrder::Construction;
    REDUND.with(|c| c.borrow_mut().current().lookup(sys, &[], order))
}

pub(crate) fn redund_put(key: Box<[u8]>, v: CachedPoly) {
    REDUND.with(|c| c.borrow_mut().current().put(key, v));
}

/// Drops this thread's memo caches (counters are untouched). Mostly useful
/// for benchmarking cold-cache behavior.
pub fn clear_thread_caches() {
    FEAS.with(|c| c.borrow_mut().store.clear());
    PROJ.with(|c| c.borrow_mut().store.clear());
    REDUND.with(|c| c.borrow_mut().store.clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinExpr;

    fn ge(coeffs: &[i128], c: i128) -> Constraint {
        Constraint::ge(LinExpr::from_slice(coeffs, c))
    }

    fn eq(coeffs: &[i128], c: i128) -> Constraint {
        Constraint::eq(LinExpr::from_slice(coeffs, c))
    }

    fn sys(dims: usize, rows: &[Constraint]) -> System<'_> {
        System {
            dims,
            contradiction: false,
            rows,
        }
    }

    fn key(sys: System<'_>, eliminated: &[usize], order: RowOrder) -> Vec<u8> {
        let mut scratch = Scratch::default();
        scratch.encode(sys, eliminated, order);
        scratch.key
    }

    fn seq_key(sys: System<'_>) -> Vec<u8> {
        key(sys, &[], RowOrder::Construction)
    }

    fn get_uint(key: &mut &[u8]) -> u128 {
        let mut v = 0u128;
        for shift in (0..).step_by(7) {
            let (&b, rest) = key.split_first().expect("truncated integer");
            *key = rest;
            v |= u128::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
        }
        v
    }

    fn get_int(key: &mut &[u8]) -> i128 {
        let z = get_uint(key);
        (z >> 1) as i128 ^ -((z & 1) as i128)
    }

    type Row = (bool, Vec<(usize, i128)>, i128);

    /// Reads an encoding back: `(arity, contradiction, eliminated, rows)`.
    /// That this is possible at all is what makes key equality exact.
    fn decode(mut key: &[u8]) -> (usize, bool, Vec<usize>, Vec<Row>) {
        let key = &mut key;
        let dims = get_uint(key) as usize;
        let head = get_uint(key);
        let eliminated = (0..get_uint(key)).map(|_| get_uint(key) as usize).collect();
        let rows = (0..head >> 1)
            .map(|_| {
                let mut pairs = Vec::new();
                loop {
                    match get_uint(key) {
                        is_eq @ 0..=1 => break (is_eq == 1, pairs, get_int(key)),
                        d => pairs.push((d as usize - 2, get_int(key))),
                    }
                }
            })
            .collect();
        assert!(key.is_empty(), "trailing bytes");
        (dims, head & 1 == 1, eliminated, rows)
    }

    fn sparse(c: &Constraint) -> Row {
        let coeffs = c.expr().coeffs().iter().copied().enumerate();
        (
            c.is_eq(),
            coeffs.filter(|&(_, a)| a != 0).collect(),
            c.expr().constant_term(),
        )
    }

    #[test]
    fn systems_differing_in_one_field_get_different_keys() {
        let base = [ge(&[3, 0, -1], 7), eq(&[0, 1, 1], 0)];
        let with_row0 = |c: Constraint| [c, base[1].clone()];
        let variants = [
            with_row0(ge(&[4, 0, -1], 7)),  // a coefficient
            with_row0(ge(&[0, 3, -1], 7)),  // its dimension
            with_row0(ge(&[-3, 0, -1], 7)), // its sign
            with_row0(ge(&[3, 0, -1], 8)),  // the constant
            with_row0(eq(&[3, 0, -1], 7)),  // eq vs ge
        ];
        let mut keys = vec![seq_key(sys(3, &base))];
        keys.extend(variants.iter().map(|rows| seq_key(sys(3, rows))));
        // Arity: the same rows over one more (unused) dimension.
        let wider = [ge(&[3, 0, -1, 0], 7), eq(&[0, 1, 1, 0], 0)];
        keys.push(seq_key(sys(4, &wider)));
        keys.push(seq_key(System {
            contradiction: true,
            ..sys(3, &base)
        }));
        // The eliminated dimensions: none, one, another, two, two reordered.
        for eliminated in [&[0usize][..], &[1], &[0, 1], &[1, 0]] {
            keys.push(key(sys(3, &base), eliminated, RowOrder::Construction));
        }
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn extreme_coefficients_round_trip() {
        let big = 1i128 << 64;
        let rows = [
            ge(&[i128::MIN, i128::MAX, 0], i128::MIN),
            eq(&[big, -big, 1], i128::MAX),
            ge(&[0, 0, 0], -1),
            ge(&[63, -64, 64], -65),
        ];
        for order in [RowOrder::Construction, RowOrder::Sorted] {
            let (dims, contradiction, eliminated, mut got) =
                decode(&key(sys(3, &rows), &[2, 0], order));
            assert_eq!((dims, contradiction, eliminated), (3, false, vec![2, 0]));
            let mut want: Vec<Row> = rows.iter().map(sparse).collect();
            if matches!(order, RowOrder::Sorted) {
                got.sort();
                want.sort();
            }
            assert_eq!(got, want);
        }
        // Wider than the inline row buffer: dimensions past one byte's worth
        // of `dimension + 2`.
        let mut wide = vec![0i128; 200];
        (wide[0], wide[13], wide[199]) = (1, -2, 3);
        let rows = [ge(&wide, 5)];
        assert_eq!(decode(&seq_key(sys(200, &rows))).3, [sparse(&rows[0])]);
    }

    #[test]
    fn row_order_moves_the_sequence_key_only() {
        let rows = [ge(&[1, 0], 0), ge(&[0, -1], 7), eq(&[1, 1], -3)];
        let permuted = [rows[2].clone(), rows[0].clone(), rows[1].clone()];
        let sorted = |rows| key(sys(2, rows), &[], RowOrder::Sorted);
        assert_eq!(sorted(&rows), sorted(&permuted));
        assert_ne!(seq_key(sys(2, &rows)), seq_key(sys(2, &permuted)));
        // Rows longer than the eight-byte sort prefix, equal within it.
        let long = [ge(&[1, 2, 3, 4, 5], 9), ge(&[1, 2, 3, 4, 5], 8)];
        let swapped = [long[1].clone(), long[0].clone()];
        let sorted = |rows| key(sys(5, rows), &[], RowOrder::Sorted);
        assert_eq!(sorted(&long), sorted(&swapped));
    }

    /// Every key lands in one bucket chain.
    #[derive(Default)]
    struct ConstantHasher;

    impl Hasher for ConstantHasher {
        fn write(&mut self, _: &[u8]) {}
        fn finish(&self) -> u64 {
            7
        }
    }

    /// Stores the answer `k` under the system `x >= -k`.
    fn put_nth<S: BuildHasher + Default>(store: &mut Store<(Feasibility, u64), S>, k: u64) {
        let rows = [ge(&[1], i128::from(k))];
        let key = store.lookup(sys(1, &rows), &[], RowOrder::Sorted);
        store.put(key.expect_err("not stored yet"), (Feasibility::Feasible, k));
    }

    fn get_nth<S: BuildHasher + Default>(
        store: &mut Store<(Feasibility, u64), S>,
        k: u64,
    ) -> Option<(Feasibility, u64)> {
        let rows = [ge(&[1], i128::from(k))];
        store.lookup(sys(1, &rows), &[], RowOrder::Sorted).ok()
    }

    #[test]
    fn a_hit_is_decided_by_the_key_not_the_hash() {
        let mut store = Store::<_, BuildHasherDefault<ConstantHasher>>::new(usize::MAX);
        (0..200).for_each(|k| put_nth(&mut store, k));
        for k in 0..200 {
            assert_eq!(get_nth(&mut store, k), Some((Feasibility::Feasible, k)));
        }
        assert_eq!(get_nth(&mut store, 200), None);
    }

    #[test]
    fn the_byte_budget_bounds_the_map_and_never_corrupts_it() {
        const BUDGET: usize = 4_096;
        let mut store = Store::<(Feasibility, u64)>::new(BUDGET);
        let mut clears = 0;
        for k in 0..300 {
            let before = store.map.len();
            put_nth(&mut store, k);
            clears += usize::from(store.map.len() <= before);
            let resident: usize = store.map.keys().map(|key| key.len()).sum();
            assert!(resident <= store.bytes && store.bytes <= BUDGET);
            // Whatever survived the clears still answers exactly.
            for j in 0..=k {
                let hit = get_nth(&mut store, j);
                assert!(hit.is_none_or(|hit| hit == (Feasibility::Feasible, j)));
            }
            assert!(get_nth(&mut store, k).is_some(), "the newest entry is kept");
        }
        assert!(clears >= 2, "the budget was passed more than once");

        // An entry that alone exceeds the budget is not kept.
        let mut tiny = Store::<CachedPoly>::new(64);
        let rows = [ge(&[1], 0)];
        let key = tiny.lookup(sys(1, &rows), &[], RowOrder::Construction);
        tiny.put(
            key.err().expect("empty store"),
            CachedPoly {
                cons: rows.to_vec(),
                contradiction: false,
                charged: 1,
            },
        );
        assert!(tiny.map.is_empty() && tiny.bytes == 0);
    }
}
