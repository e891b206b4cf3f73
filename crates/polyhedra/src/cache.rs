//! Per-thread memoization of the expensive polyhedral queries.
//!
//! The pipeline re-asks the *same* polyhedral questions many times — per
//! constraint, per statement, per read, and in a serving process per
//! request. Four maps answer a repeated question from memory: two
//! primitives every stage bottoms out in (integer feasibility,
//! Fourier–Motzkin projection) and the two compound queries the paper's
//! engine is built from, memoized whole so a repeated request re-runs
//! neither their control flow nor their steps: polyhedron scanning
//! ([`scan_bounds`](crate::scan_bounds), §5.2) and parametric
//! lexicographic optimization ([`lexopt`](crate::lexopt), §3.1).
//!
//! # One encoding, two row orders
//!
//! A constraint system already *is* its key; it only needs writing down
//! compactly. Every key is written by [`codec::Enc`](crate::codec::Enc),
//! in the rows the stored artifacts use ([`crate::codec`]: varints,
//! zig-zag for signed values, the full `i128` range; a row lists its
//! non-zero `(dimension + 2, coefficient)` pairs, then `is_eq`, then the
//! constant):
//!
//! ```text
//! arity · (rows << 1 | contradiction) · argument count · arguments · rows…
//! ```
//!
//! The arguments are the query's own: the eliminated dimensions of a
//! projection, the variable order of a scan, the direction (0 max, 1 min)
//! followed by the optimized dimensions of a lexopt, nothing for
//! feasibility. Counts precede what they count, so a key parses back
//! unambiguously ([`codec::Dec`](crate::codec::Dec)): two queries have
//! equal keys exactly when they have the same arity, flag, arguments and
//! row sequence. Only the order the rows are written in differs between
//! the maps:
//!
//! * **Feasibility** depends only on the constraint *set*, so its rows are
//!   sorted by their encoding — differently-built but equal systems share
//!   one entry.
//! * **Projection, scan and lexopt** return constraint *lists* whose order
//!   feeds downstream code generation, so their rows stay in construction
//!   order. A hit returns bit-for-bit the value the uncached computation
//!   would produce, keeping cached and uncached pipelines byte-identical.
//!
//! A key is built in a per-map scratch encoder that is reused from lookup
//! to lookup and the map is probed with the borrowed bytes, so a *hit
//! allocates nothing for its key*; only a miss boxes the bytes it is about
//! to insert. A hit is decided by equality of the full encoding — the
//! hash (`WordHasher`, eight bytes per step) only picks the bucket, and a
//! store built over a hasher that returns a constant still answers exactly.
//!
//! # Compact, space-free values
//!
//! Values hold no dimension names: the caller's space is re-attached on a
//! hit (projection and scanning never change a space; a lexopt appends its
//! auxiliary dimensions, which a hit names again exactly as the
//! computation did, from the caller's names — see [`lexopt`](crate::lexopt)).
//! Every value but feasibility's is written by the same `Enc` — its
//! charged work, then the projected rows, the nest's bounds and guard, or
//! the pieces' contexts and solutions — and read back by `Dec`: a
//! `ScanNest` kept as a clone costs ≈ 13 KB, encoded a few hundred bytes.
//!
//! There is no map for redundancy removal. Its one product caller is the
//! scan, which is now answered whole (the multicast test asks a subset
//! question, [`Polyhedron::is_subset_of`](crate::Polyhedron::is_subset_of),
//! and reduces nothing); a map keyed on every intermediate system a scan
//! passes through only paid when a process served the same request twice,
//! and then held the most bytes of any map.
//!
//! Caches are thread-local (no locks on the hot path; a compile runs on
//! one thread, so every stage of it — and every later compile on that
//! thread — shares them), admit systems of at least four constraints
//! (`CACHE_MIN_CONSTRAINTS`), are bounded in bytes (each map is cleared wholesale when its
//! keys and values pass `BUDGET_BYTES`), and are never invalidated
//! otherwise: the feasibility budget is one constant
//! ([`FEASIBILITY_BUDGET`](crate::stats::FEASIBILITY_BUDGET)) and an
//! `Unknown` answer is never stored, so every entry was computed under the
//! budget that reads it. An entry keeps the work its computation was
//! charged, so a hit charges the same work whether or not anything records
//! (see [`ledger`]).

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::mem::size_of;
use std::ops::Range;
use std::thread::LocalKey;

use crate::codec::{CodecError, Dec, Enc};
use crate::ledger::{self, OpKind};
use crate::polyhedron::Feasibility;
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
    key: Enc,
    /// Row encodings waiting to be sorted; per row its first eight bytes
    /// as a big-endian number — byte order on all but the longest rows, at
    /// the price of one integer comparison — and where it lies.
    rows: Enc,
    spans: Vec<(u64, Range<usize>)>,
}

impl Scratch {
    /// Leaves the encoding of `sys` and the query's `args` in `self.key`.
    fn encode(&mut self, sys: System<'_>, args: &[usize], order: RowOrder) {
        let key = &mut self.key;
        key.clear();
        key.usize(sys.dims);
        key.usize(sys.rows.len() << 1 | usize::from(sys.contradiction));
        key.usize(args.len());
        for &a in args {
            key.usize(a);
        }
        match order {
            RowOrder::Construction => {
                for c in sys.rows {
                    key.row(c.expr(), c.is_eq());
                }
            }
            RowOrder::Sorted => {
                self.rows.clear();
                self.spans.clear();
                for c in sys.rows {
                    let start = self.rows.len();
                    self.rows.row(c.expr(), c.is_eq());
                    let row = &self.rows.as_bytes()[start..];
                    let mut head = [0u8; 8];
                    let n = row.len().min(8);
                    head[..n].copy_from_slice(&row[..n]);
                    self.spans
                        .push((u64::from_be_bytes(head), start..self.rows.len()));
                }
                let rows = self.rows.as_bytes();
                self.spans.sort_unstable_by(|(a, at_a), (b, at_b)| {
                    a.cmp(b)
                        .then_with(|| rows[at_a.clone()].cmp(&rows[at_b.clone()]))
                });
                for (_, at) in &self.spans {
                    key.raw(&rows[at.clone()]);
                }
            }
        }
    }
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

/// What a cached value keeps on the heap, for the byte budget.
trait HeapBytes {
    fn heap_bytes(&self) -> usize;
}

impl HeapBytes for (Feasibility, u64) {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl HeapBytes for Box<[u8]> {
    fn heap_bytes(&self) -> usize {
        self.len()
    }
}

/// Key and value bytes one thread-local map may hold before it is dropped
/// wholesale: twice the largest map a benchmark workload once left
/// resident (the redundancy map of `symbolic_corpus`, 11.3 MB, since
/// removed; EXPERIMENTS.md P19 and P26 list every map on every workload),
/// so no measured traffic reaches it and what lies beyond is bounded
/// without guessing at an eviction order.
const BUDGET_BYTES: usize = 24 << 20;

/// Minimum constraint count for a system to be memoized; smaller ones are
/// solved afresh (counted as
/// [`PolyStats::cache_bypasses`](crate::PolyStats::cache_bypasses)). Set by a
/// sweep over {1, 2, 4, 6, 8} on the repo benchmark (EXPERIMENTS.md P19):
/// a warm `symbolic_corpus` pass takes 0.58 s at 8, 0.45 s at 6, 0.39 s at
/// 4 and the same 0.39 s at 2 and at 1 — systems that small cost as much
/// to encode and look up as to solve — so 4 it is, the fewest resident
/// entries among the fastest settings.
const CACHE_MIN_CONSTRAINTS: usize = 4;

/// Whether a system of `n_constraints` is worth memoizing; counts a
/// bypass when it is not.
pub(crate) fn admits(n_constraints: usize) -> bool {
    if n_constraints < CACHE_MIN_CONSTRAINTS {
        ledger::count(|s| s.cache_bypasses += 1);
        return false;
    }
    true
}

/// One exact, byte-bounded memo map and the scratch its keys are built in.
struct Store<V, S = BuildHasherDefault<WordHasher>> {
    map: HashMap<Box<[u8]>, V, S>,
    /// Σ over `map` of key length + entry size + value heap bytes.
    bytes: usize,
    budget: usize,
    scratch: Scratch,
}

impl<V: HeapBytes, S: BuildHasher + Default> Store<V, S> {
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
        args: &[usize],
        order: RowOrder,
    ) -> Result<&V, Box<[u8]>> {
        self.scratch.encode(sys, args, order);
        let key = self.scratch.key.as_bytes();
        self.map.get(key).ok_or_else(|| key.into())
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

type Map<V> = RefCell<Store<V>>;

thread_local! {
    static FEAS: Map<(Feasibility, u64)> = RefCell::new(Store::new(BUDGET_BYTES));
    static PROJ: Map<Box<[u8]>> = RefCell::new(Store::new(BUDGET_BYTES));
    static SCAN: Map<Box<[u8]>> = RefCell::new(Store::new(BUDGET_BYTES));
    static LEX: Map<Box<[u8]>> = RefCell::new(Store::new(BUDGET_BYTES));
}

pub(crate) fn feas_lookup(sys: System<'_>) -> Result<(Feasibility, u64), Box<[u8]>> {
    FEAS.with(|c| c.borrow_mut().lookup(sys, &[], RowOrder::Sorted).copied())
}

pub(crate) fn feas_put(key: Box<[u8]>, v: (Feasibility, u64)) {
    FEAS.with(|c| c.borrow_mut().put(key, v));
}

/// A query whose answer is stored encoded, with the work it was charged.
#[derive(Clone, Copy)]
pub(crate) enum Query {
    /// [`Polyhedron::eliminate_dims`](crate::Polyhedron::eliminate_dims);
    /// the arguments are the eliminated dimensions.
    Projection,
    /// [`scan_bounds`](crate::scan_bounds); the arguments are the order.
    Scan,
    /// [`lexopt`](crate::lexopt); the arguments are the direction, then
    /// the optimized dimensions.
    LexOpt,
}

impl Query {
    fn map(self) -> &'static LocalKey<Map<Box<[u8]>>> {
        match self {
            Query::Projection => &PROJ,
            Query::Scan => &SCAN,
            Query::LexOpt => &LEX,
        }
    }

    fn kind(self) -> OpKind {
        match self {
            Query::Projection => OpKind::Projection,
            Query::Scan => OpKind::Scan,
            Query::LexOpt => OpKind::LexOpt,
        }
    }
}

/// Answers `query` on `sys` and `args` from this thread's map, or runs
/// `compute` and stores what it returns — `encode`d after the work the
/// ledger charged it, which a hit replays before `decode` reads the
/// answer back. Errors are returned, not stored. Either way the query is
/// one ledger record of its kind, charged its nested operations plus its
/// kind's own unit.
pub(crate) fn memoized<T, E>(
    query: Query,
    sys: System<'_>,
    args: &[usize],
    compute: impl FnOnce() -> Result<T, E>,
    encode: impl FnOnce(&T, &mut Enc),
    decode: impl FnOnce(&mut Dec<'_>) -> Result<T, CodecError>,
) -> Result<T, E> {
    let n = sys.rows.len();
    if !admits(n) {
        let op = ledger::op(query.kind(), n);
        let out = compute();
        op.finish();
        return out;
    }
    let looked_up = query.map().with(|c| {
        let mut store = c.borrow_mut();
        let value = store.lookup(sys, args, RowOrder::Construction)?;
        // Written below, by this crate: failing to read it back is a bug.
        Ok(read_value(value, decode).expect("a memo value decodes"))
    });
    let key = match looked_up {
        Ok((hit, charged)) => {
            ledger::record_hit(query.kind(), n, charged);
            return Ok(hit);
        }
        Err(key) => key,
    };
    let mut op = ledger::op(query.kind(), n);
    op.set_cache_miss();
    let out = compute()?;
    let charged = op.finish();
    let mut value = Enc::new();
    value.u64(charged);
    encode(&out, &mut value);
    query
        .map()
        .with(|c| c.borrow_mut().put(key, value.into_bytes().into()));
    Ok(out)
}

/// Reads back a value [`memoized`] stored: the charged work, then what
/// `decode` reads, and nothing after it.
fn read_value<T>(
    value: &[u8],
    decode: impl FnOnce(&mut Dec<'_>) -> Result<T, CodecError>,
) -> Result<(T, u64), CodecError> {
    let mut d = Dec::new(value);
    let charged = d.u64()?;
    let v = decode(&mut d)?;
    d.finish()?;
    Ok((v, charged))
}

/// Drops this thread's memo caches (counters are untouched): what a
/// measurement that must start cold — a compile's allocations, its cache
/// misses — calls first.
pub fn clear_thread_caches() {
    FEAS.with(|c| c.borrow_mut().clear());
    PROJ.with(|c| c.borrow_mut().clear());
    SCAN.with(|c| c.borrow_mut().clear());
    LEX.with(|c| c.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
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

    fn key(sys: System<'_>, args: &[usize], order: RowOrder) -> Vec<u8> {
        let mut scratch = Scratch::default();
        scratch.encode(sys, args, order);
        scratch.key.into_bytes()
    }

    #[test]
    fn size_gate_counts_bypasses() {
        let before = stats::snapshot();
        assert!(!admits(CACHE_MIN_CONSTRAINTS - 1), "below: bypass");
        assert!(admits(CACHE_MIN_CONSTRAINTS), "at the threshold");
        assert_eq!(stats::snapshot().since(&before).cache_bypasses, 1);
    }

    fn seq_key(sys: System<'_>) -> Vec<u8> {
        key(sys, &[], RowOrder::Construction)
    }

    type Row = (bool, Vec<(usize, i128)>, i128);

    /// Reads a key back with the values' [`Dec`]: `(arity, contradiction,
    /// args, rows)`. That this is possible at all is what makes key
    /// equality exact.
    fn decode(key: &[u8]) -> (usize, bool, Vec<usize>, Vec<Row>) {
        let mut d = Dec::new(key);
        let dims = d.usize().unwrap();
        let head = d.usize().unwrap();
        let args = (0..d.usize().unwrap())
            .map(|_| d.usize().unwrap())
            .collect();
        let rows = (0..head >> 1)
            .map(|_| match d.row(dims).unwrap() {
                (e, true) => sparse(&Constraint::eq(e)),
                (e, false) => sparse(&Constraint::ge(e)),
            })
            .collect();
        d.finish().expect("no trailing bytes");
        (dims, head & 1 == 1, args, rows)
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
        // The arguments: none, one, another, two, two reordered.
        for args in [&[0usize][..], &[1], &[0, 1], &[1, 0]] {
            keys.push(key(sys(3, &base), args, RowOrder::Construction));
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
            let (dims, contradiction, args, mut got) = decode(&key(sys(3, &rows), &[2, 0], order));
            assert_eq!((dims, contradiction, args), (3, false, vec![2, 0]));
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

    /// A value is written by the keys' encoder and read back by the
    /// codec's decoder: expressions, their tags, and a constraint list
    /// with its flag come back equal, the extremes of `i128` included.
    #[test]
    fn values_round_trip_through_the_key_encoding() {
        let rows = [
            eq(&[i128::MAX, -i128::MAX, 0], i128::MIN),
            ge(&[0, 0, i128::MIN], i128::MAX),
            ge(&[1, -1, 0], 0),
        ];
        for contradiction in [false, true] {
            let mut e = Enc::new();
            e.u64(u64::MAX);
            e.row(rows[1].expr(), true);
            e.i128(i128::MIN);
            e.rows(&rows, contradiction);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(d.u64(), Ok(u64::MAX));
            assert_eq!(d.row(3), Ok((rows[1].expr().clone(), true)));
            assert_eq!(d.i128(), Ok(i128::MIN));
            assert_eq!(d.rows(3), Ok((rows.to_vec(), contradiction)));
            assert_eq!(d.finish(), Ok(()), "no trailing bytes");
        }
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
        let key = key.expect_err("not stored yet");
        store.put(key, (Feasibility::Feasible, k));
    }

    fn get_nth<S: BuildHasher + Default>(
        store: &mut Store<(Feasibility, u64), S>,
        k: u64,
    ) -> Option<(Feasibility, u64)> {
        let rows = [ge(&[1], i128::from(k))];
        store
            .lookup(sys(1, &rows), &[], RowOrder::Sorted)
            .ok()
            .copied()
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
        let mut tiny = Store::<Box<[u8]>>::new(64);
        let rows = [ge(&[1], 0)];
        let key = tiny.lookup(sys(1, &rows), &[], RowOrder::Construction);
        let key = key.expect_err("empty store");
        tiny.put(key, vec![0; 64].into());
        assert!(tiny.map.is_empty() && tiny.bytes == 0);
    }
}
