//! Per-processor execution schedules.
//!
//! A [`Schedule`] is the fully resolved form of a compiled SPMD program:
//! each physical processor has an ordered list of actions (compute blocks,
//! sends, receives), and a global message table says who talks to whom and
//! what moves. The compiler pipeline (`dmc-core`) lowers communication sets
//! and computation decompositions into this form; the simulator executes
//! it against the cost model.
//!
//! # Stamps
//!
//! A statement instance's place in the sequential program is its *stamp*,
//! the 2d+1 interleaving of the statement's textual positions with its loop
//! values. Nothing here stores one per instance: a stamp is read in place
//! ([`StampRef`]) from the statement's *template* ([`template_of`], its
//! stamp with every loop value 0) and an iteration the caller already
//! holds — a block's prefix and `lo`, a chunk's first use, a payload row.
//! It is the definition of program order: the simulator decides which copy
//! of an element wins by it, and the planner, which orders the same
//! anchors many times, first reads each into a flat integer *key*
//! ([`StampRef::write_key`]) that orders exactly as the stamp does.
//!
//! # Payloads
//!
//! In values mode a message carries one [`Payload`] table: its array, the
//! statement that wrote its values (or none, for live-in data) and flat
//! rows of (writer iteration, subscripts), one per element in pack order.
//! A row names its element and the write instance that produced it; the
//! value's stamp is the writer's template read with the row's iteration.

use std::borrow::Borrow;
use std::cmp::Ordering;

/// A global sequential-order stamp held whole: the 2d+1 interleaving of
/// statement positions and loop index values. Lexicographic comparison of
/// stamps gives the original program's execution order.
pub type Stamp = Vec<i128>;

/// Builds the stamp of one statement instance from its textual position
/// vector and loop index values (one fewer than positions), given as a
/// slice or as values, so a caller holding them elsewhere copies nothing.
///
/// # Panics
///
/// Panics if the lengths disagree.
pub fn stamp_of<I>(position: &[usize], iter: I) -> Stamp
where
    I: IntoIterator,
    I::Item: Borrow<i128>,
{
    let mut iter = iter.into_iter();
    let mut out = Vec::with_capacity((2 * position.len()).saturating_sub(1));
    for (k, &p) in position.iter().enumerate() {
        out.push(p as i128);
        if k + 1 < position.len() {
            let v = iter.next().expect("position/iteration mismatch");
            out.push(*v.borrow());
        }
    }
    assert!(iter.next().is_none(), "position/iteration mismatch");
    out
}

/// A statement's template: its stamp with every loop value 0, what a
/// [`StampRef::Instance`] reads the statement's positions from.
pub fn template_of(position: &[usize]) -> Stamp {
    stamp_of(
        position,
        std::iter::repeat_n(0i128, position.len().saturating_sub(1)),
    )
}

/// What pads a key ([`StampRef::write_key`]) past its stamp's end: less
/// than every component a key holds.
pub const KEY_PAD: i64 = i64::MIN;

/// One stamp component as a key holds it, or the component back when it
/// is no `i64` or is [`KEY_PAD`] itself.
pub fn key_component(x: i128) -> Result<i64, i128> {
    i64::try_from(x).ok().filter(|&x| x != KEY_PAD).ok_or(x)
}

/// A stamp read in place, compared as the `Vec<i128>` it denotes: the
/// first differing component decides, and a proper prefix sorts first.
#[derive(Clone, Copy)]
pub enum StampRef<'s> {
    /// A statement instance: `template` is the statement's
    /// [`template_of`], and its loop values are `prefix`, then `last`.
    Instance {
        /// The statement's stamp with every loop value 0.
        template: &'s [i128],
        /// Every loop value but the innermost, or all of them.
        prefix: &'s [i128],
        /// The innermost loop value (unread at depth 0, or when `prefix`
        /// holds every loop value).
        last: i128,
    },
    /// A stamp held whole.
    Whole(&'s [i128]),
}

impl<'s> StampRef<'s> {
    /// The instance of the statement with `template` at loop values
    /// `iter` (as many as the statement's loops).
    pub fn of(template: &'s [i128], iter: &'s [i128]) -> Self {
        let (prefix, last) = match iter.split_last() {
            Some((&last, prefix)) => (prefix, last),
            None => (iter, 0),
        };
        StampRef::Instance {
            template,
            prefix,
            last,
        }
    }

    /// Writes the stamp into `row` as a key: its components as `i64`, then
    /// [`KEY_PAD`] to the end of the row. Keys of one width compare as
    /// slices exactly as their stamps do, because the pad is below every
    /// component: where one stamp is a proper prefix of the other, the
    /// shorter key has the pad where the longer has a component. A
    /// component that is no `i64`, or is the pad itself, is returned as
    /// the error, and `row` is then unspecified.
    ///
    /// # Panics
    ///
    /// Panics if the stamp is longer than `row`.
    pub fn write_key(self, row: &mut [i64]) -> Result<(), i128> {
        let (stamp, pad) = row.split_at_mut(self.len());
        match self {
            StampRef::Instance {
                template,
                prefix,
                last,
            } => {
                // Positions at even components, loop values at odd ones.
                for (k, (out, &t)) in stamp.iter_mut().zip(template).enumerate() {
                    let v = || prefix.get(k / 2).copied().unwrap_or(last);
                    *out = key_component(if k % 2 == 0 { t } else { v() })?;
                }
            }
            StampRef::Whole(s) => {
                for (out, &x) in stamp.iter_mut().zip(s) {
                    *out = key_component(x)?;
                }
            }
        }
        pad.fill(KEY_PAD);
        Ok(())
    }

    fn len(self) -> usize {
        match self {
            StampRef::Instance { template, .. } => template.len(),
            StampRef::Whole(s) => s.len(),
        }
    }

    fn get(self, k: usize) -> i128 {
        match self {
            StampRef::Instance {
                template,
                prefix,
                last,
            } => match k % 2 {
                0 => template[k],
                _ => prefix.get(k / 2).copied().unwrap_or(last),
            },
            StampRef::Whole(s) => s[k],
        }
    }
}

impl Ord for StampRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (
            StampRef::Instance {
                template: ta,
                prefix: pa,
                last: la,
            },
            StampRef::Instance {
                template: tb,
                prefix: pb,
                last: lb,
            },
        ) = (*self, *other)
        {
            if let Some(o) = cmp_instances((ta, pa, la), (tb, pb, lb)) {
                return o;
            }
        }
        let n = self.len().min(other.len());
        (0..n)
            .map(|k| self.get(k).cmp(&other.get(k)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| self.len().cmp(&other.len()))
    }
}

/// An instance's template, prefix and last loop value.
type Instance<'s> = (&'s [i128], &'s [i128], i128);

/// Two instances' order read straight off their slices, where each stamp
/// is `[t0, v0, t2, v1, …, t2d]`: positions from the template, loop values
/// from the prefix and then `last`. Over the loop values both read from
/// their prefixes the two compare as (position, value) pairs; after them
/// come one position, each side's next value and one position more, where
/// the side that read `last` ends. `None` only for a prefix shorter than
/// its statement's depth less one, or an empty template, which the caller
/// compares component by component.
fn cmp_instances((ta, pa, la): Instance, (tb, pb, lb): Instance) -> Option<Ordering> {
    let (da, db) = (ta.len() / 2, tb.len() / 2);
    if std::ptr::eq(ta, tb) && pa.len() + 1 == da && pb.len() + 1 == da {
        // One statement: the positions are equal.
        return Some(pa.cmp(pb).then(la.cmp(&lb)));
    }
    let (ka, kb) = (pa.len().min(da), pb.len().min(db));
    let m = ka.min(kb);
    for k in 0..m {
        let o = ta[2 * k].cmp(&tb[2 * k]).then(pa[k].cmp(&pb[k]));
        if o.is_ne() {
            return Some(o);
        }
    }
    // Component 2m is a position of both: each depth is at least m.
    let o = ta.get(2 * m)?.cmp(tb.get(2 * m)?);
    if o.is_ne() {
        return Some(o);
    }
    // Component 2m + 1: the value each reads there, unless its stamp ends.
    let value = |d: usize, k: usize, p: &[i128], last: i128| {
        (m < d).then(|| if m < k { p[m] } else { last })
    };
    let (Some(va), Some(vb)) = (value(da, ka, pa, la), value(db, kb, pb, lb)) else {
        return Some(ta.len().cmp(&tb.len()));
    };
    let o = va.cmp(&vb);
    if o.is_ne() {
        return Some(o);
    }
    // One side read `last` at m (m is its `k`), so its depth is m + 1 and
    // its stamp ends at component 2m + 2, unless its prefix is short.
    let end = 2 * m + 3;
    (ta.len() == end || tb.len() == end)
        .then(|| ta[end - 1].cmp(&tb[end - 1]).then(ta.len().cmp(&tb.len())))
}

impl PartialOrd for StampRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for StampRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for StampRef<'_> {}

impl std::fmt::Debug for StampRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|k| self.get(k)))
            .finish()
    }
}

/// What one message carries in values mode: elements of one array, in pack
/// order, each named with the write instance that produced its value.
#[derive(Clone, Debug, PartialEq)]
pub struct Payload {
    /// Array name.
    pub array: String,
    /// The statement whose instances wrote the values; `None` for live-in
    /// data, whose stamp is `[-1]`.
    pub writer: Option<usize>,
    /// Columns of a row: the writer's loop depth plus the array's rank.
    pub width: usize,
    /// One row per element, `width` columns each: the writer's iteration
    /// (none for live-in data), then the element's global subscripts.
    /// Receivers keep the latest-stamped value.
    pub rows: Vec<i128>,
}

impl Payload {
    /// Number of elements carried: whole rows (none at width 0).
    pub fn len(&self) -> usize {
        self.rows.len().checked_div(self.width).unwrap_or(0)
    }

    /// Whether no element is carried.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows, in pack order.
    pub fn rows(&self) -> impl Iterator<Item = &[i128]> {
        self.rows.chunks_exact(self.width.max(1))
    }
}

/// One logical message (possibly a multicast).
#[derive(Clone, Debug, PartialEq)]
pub struct MessageSpec {
    /// Sending processor rank.
    pub sender: usize,
    /// Receiving processor ranks (more than one = multicast).
    pub receivers: Vec<usize>,
    /// Payload size in array elements.
    pub words: u64,
    /// Concrete elements (values mode); `None` in timing-only mode.
    pub payload: Option<Payload>,
}

/// One step of a processor's program.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Run the iterations of statement `stmt` with the given outer loop
    /// values; the innermost loop (if any) covers `inner_range`
    /// inclusively. `flops` is the total floating-point work of the block.
    Block {
        /// Source statement id.
        stmt: usize,
        /// Values of all loop variables except the innermost.
        prefix: Vec<i128>,
        /// Inclusive range of the innermost loop variable; `None` when the
        /// statement has no enclosing loop (or the prefix covers all).
        inner_range: Option<(i128, i128)>,
        /// Total flops in this block.
        flops: f64,
    },
    /// Transmit message `msg` (the processor must be its sender).
    Send {
        /// Index into the schedule's message table.
        msg: usize,
    },
    /// Block until message `msg` has arrived, then integrate its payload.
    Recv {
        /// Index into the schedule's message table.
        msg: usize,
    },
}

impl Action {
    /// The stamp of a block's first element, read in place from its
    /// statement's template (`templates[stmt]`): its prefix, then `lo`.
    /// `None` for a message action.
    pub fn anchor<'a>(&'a self, templates: &'a [Stamp]) -> Option<StampRef<'a>> {
        let Action::Block {
            stmt,
            prefix,
            inner_range,
            ..
        } = self
        else {
            return None;
        };
        Some(StampRef::Instance {
            template: &templates[*stmt],
            prefix,
            last: inner_range.map_or(0, |(lo, _)| lo),
        })
    }
}

/// A whole machine run: per-processor ordered actions plus the message
/// table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    /// Actions per processor rank, already in execution order.
    pub procs: Vec<Vec<Action>>,
    /// All messages.
    pub messages: Vec<MessageSpec>,
}

impl Schedule {
    /// An empty schedule for `p` processors.
    pub fn new(p: usize) -> Self {
        Schedule {
            procs: vec![Vec::new(); p],
            messages: Vec::new(),
        }
    }

    /// The plan's traffic: `(messages, transmissions, words)`. A message
    /// counts one transmission, and its words once, per receiver.
    pub fn message_stats(&self) -> (u64, u64, u64) {
        let mut transmissions = 0u64;
        let mut words = 0u64;
        for m in &self.messages {
            transmissions += m.receivers.len() as u64;
            words += m.words * m.receivers.len() as u64;
        }
        (self.messages.len() as u64, transmissions, words)
    }
}

/// A shared schedule (a session serves its cached plan by `Arc`) compares
/// by value with an owned one.
impl PartialEq<Schedule> for std::sync::Arc<Schedule> {
    fn eq(&self, other: &Schedule) -> bool {
        **self == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_order_like_the_program() {
        // for i { S0; for j { S1 } }  — S0 at [0, i, 0], S1 at [0, i, 1, j, 0].
        let s0 = |i: i128| stamp_of(&[0, 0], [i]);
        let s1 = |i: i128, j: i128| stamp_of(&[0, 1, 0], [i, j]);
        assert!(s0(0) < s1(0, 0));
        assert!(s1(0, 5) < s0(1));
        assert!(s1(0, 5) < s1(0, 6));
        assert!(s1(0, 9) < s1(1, 0));
        // Read in place, the same order and the same components.
        let (t0, t1) = (template_of(&[0, 0]), template_of(&[0, 1, 0]));
        let r0 = |i: &'static [i128]| StampRef::of(&t0, i);
        let r1 = |ij: &'static [i128]| StampRef::of(&t1, ij);
        assert!(r0(&[0]) < r1(&[0, 0]));
        assert!(r1(&[0, 5]) < r0(&[1]));
        assert!(r1(&[0, 5]) < r1(&[0, 6]));
        assert!(r1(&[0, 9]) < r1(&[1, 0]));
        assert_eq!(format!("{:?}", r1(&[3, 4])), format!("{:?}", s1(3, 4)));
        assert!(StampRef::Whole(&[-1]) < r0(&[0]));
        assert!(StampRef::Whole(&[]) < StampRef::Whole(&[-1]));
    }

    /// xorshift64, seeded: enough to draw templates and iterations.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            usize::try_from(self.0 % n as u64).unwrap()
        }
    }

    /// Random statements at depth 0–3 (positions 0 or 1, so one stamp is
    /// often a proper prefix of another, and some templates are equal but
    /// held apart), read in place in every form the planner and simulator
    /// build — `StampRef::of`, a block anchor whose prefix holds every
    /// loop value and `last` is junk, and `Whole` stamps and their proper
    /// prefixes: every pair orders as the `stamp_of` vectors do.
    #[test]
    fn stamp_refs_order_as_the_stamps_they_denote() {
        let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
        let mut positions: Vec<Vec<usize>> = (0..6)
            .map(|_| (0..=rng.below(4)).map(|_| rng.below(2)).collect())
            .collect();
        positions.push(positions[0].clone());
        let templates: Vec<Stamp> = positions.iter().map(|p| template_of(p)).collect();
        // (statement, iteration, form): 0 `of`, 1 the whole iteration as
        // the prefix, 2 the stamp held whole, 3 a proper prefix of it.
        let drawn: Vec<(usize, Vec<i128>, usize)> = (0..400)
            .map(|_| {
                let s = rng.below(positions.len());
                let iter = (1..positions[s].len())
                    .map(|_| rng.below(3) as i128 - 1)
                    .collect();
                (s, iter, rng.below(4))
            })
            .collect();
        let stamps: Vec<Stamp> = drawn
            .iter()
            .map(|(s, iter, form)| {
                let stamp = stamp_of(&positions[*s], iter);
                let keep = if *form == 3 {
                    stamp.len() - 1
                } else {
                    stamp.len()
                };
                stamp[..keep].to_vec()
            })
            .collect();
        let refs: Vec<StampRef> = drawn
            .iter()
            .zip(&stamps)
            .map(|((s, iter, form), stamp)| match form {
                0 => StampRef::of(&templates[*s], iter),
                1 => StampRef::Instance {
                    template: &templates[*s],
                    prefix: iter,
                    last: 7,
                },
                _ => StampRef::Whole(stamp),
            })
            .collect();
        let (mut depth0, mut prefixes, mut ties) = (0, 0, 0);
        for (a, sa) in refs.iter().zip(&stamps) {
            depth0 += usize::from(sa.len() == 1);
            for (b, sb) in refs.iter().zip(&stamps) {
                assert_eq!(a.cmp(b), sa.cmp(sb), "{sa:?} vs {sb:?}");
                assert_eq!(format!("{a:?}"), format!("{sa:?}"));
                prefixes += usize::from(sa.len() < sb.len() && sb.starts_with(sa));
                ties += usize::from(sa == sb);
            }
        }
        assert!(depth0 > 10, "{depth0} depth-0 stamps drawn");
        assert!(prefixes > 1_000, "{prefixes} proper prefixes drawn");
        assert!(ties > 1_000, "{ties} ties drawn");
    }

    /// Keys of one width order every drawn pair as their `StampRef`s and
    /// their `stamp_of` vectors do: random statements at depth 0–3 (some
    /// with equal templates held apart) at loop values up to ±(2^62 − 1),
    /// the scan kernel's range, read as `StampRef::of`, as a block anchor
    /// whose prefix holds every loop value, and held whole, beside the
    /// live-in stamps `[-2]` and `[-1]`. A component the key cannot hold
    /// is returned, not wrapped.
    #[test]
    fn keys_order_as_the_stamps_they_denote() {
        const EDGE: i128 = (1 << 62) - 1;
        let mut rng = XorShift(0x5851_F42D_4C95_7F2D);
        let mut positions: Vec<Vec<usize>> = (0..6)
            .map(|_| (0..=rng.below(4)).map(|_| rng.below(2)).collect())
            .collect();
        positions.push(vec![0]);
        positions.push(positions[0].clone());
        let templates: Vec<Stamp> = positions.iter().map(|p| template_of(p)).collect();
        let width = templates.iter().map(Vec::len).max().unwrap();
        let values = [-EDGE, -EDGE + 1, -1, 0, 1, EDGE - 1, EDGE];
        // (statement, iteration, form): 0 `of`, 1 the whole iteration as
        // the prefix, 2 the stamp held whole, 3 `[-2]`, 4 `[-1]`.
        let drawn: Vec<(usize, Vec<i128>, usize)> = (0..400)
            .map(|_| {
                let s = rng.below(positions.len());
                let iter = (1..positions[s].len())
                    .map(|_| values[rng.below(values.len())])
                    .collect();
                (s, iter, rng.below(5))
            })
            .collect();
        let stamps: Vec<Stamp> = drawn
            .iter()
            .map(|(s, iter, form)| match form {
                3 => vec![-2],
                4 => vec![-1],
                _ => stamp_of(&positions[*s], iter),
            })
            .collect();
        let refs: Vec<StampRef> = drawn
            .iter()
            .zip(&stamps)
            .map(|((s, iter, form), stamp)| match form {
                0 => StampRef::of(&templates[*s], iter),
                1 => StampRef::Instance {
                    template: &templates[*s],
                    prefix: iter,
                    last: i128::MAX,
                },
                _ => StampRef::Whole(stamp),
            })
            .collect();
        let keys: Vec<Vec<i64>> = refs
            .iter()
            .map(|r| {
                let mut row = vec![0; width];
                r.write_key(&mut row).unwrap();
                row
            })
            .collect();
        let (mut depth0, mut edges, mut ties, mut twins) = (0, 0, 0, 0);
        for ((a, sa), ka) in refs.iter().zip(&stamps).zip(&keys) {
            depth0 += usize::from(sa.len() == 1);
            edges += usize::from(sa.iter().any(|x| x.abs() == EDGE));
            for ((b, sb), kb) in refs.iter().zip(&stamps).zip(&keys) {
                assert_eq!(ka.cmp(kb), sa.cmp(sb), "{sa:?} vs {sb:?}");
                assert_eq!(a.cmp(b), sa.cmp(sb), "{sa:?} vs {sb:?}");
                ties += usize::from(sa == sb);
            }
        }
        for (s, _, _) in &drawn {
            twins += usize::from(*s == 0 || *s == positions.len() - 1);
        }
        assert!(depth0 > 40, "{depth0} depth-0 stamps drawn");
        assert!(edges > 40, "{edges} stamps at ±(2^62 − 1) drawn");
        assert!(ties > 1_000, "{ties} ties drawn");
        assert!(twins > 40, "{twins} stamps of the twin templates drawn");

        // The pad, and what no `i64` holds, are refused.
        let mut row = [0; 3];
        for x in [i128::from(i64::MIN), i128::from(i64::MAX) + 1, i128::MIN] {
            assert_eq!(StampRef::Whole(&[0, x]).write_key(&mut row), Err(x));
        }
        let t = template_of(&[1, 0]);
        let last = [i128::from(i64::MIN) - 1];
        let at = StampRef::of(&t, &last);
        assert_eq!(at.write_key(&mut row), Err(last[0]));
        StampRef::of(&t, &[i128::from(i64::MAX)])
            .write_key(&mut row)
            .unwrap();
        assert_eq!(row, [1, i64::MAX, 0]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn stamp_length_mismatch_panics() {
        stamp_of(&[0], [1, 2]);
    }
}
