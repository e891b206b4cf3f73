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
//! The planner orders actions and decides legality splits by this one
//! comparison, and the simulator decides which copy of an element wins by
//! it too.
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

/// A stamp read in place, compared as the `Vec<i128>` it denotes: the
/// first differing component decides, and a proper prefix sorts first.
#[derive(Clone, Copy)]
pub enum StampRef<'s> {
    /// A statement instance: `template` is the statement's
    /// [`template_of`], and its loop values are `prefix`, then `last`.
    Instance {
        /// The statement's stamp with every loop value 0.
        template: &'s [i128],
        /// Every loop value but the innermost.
        prefix: &'s [i128],
        /// The innermost loop value (unread at depth 0).
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
        let n = self.len().min(other.len());
        (0..n)
            .map(|k| self.get(k).cmp(&other.get(k)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| self.len().cmp(&other.len()))
    }
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

    #[test]
    #[should_panic(expected = "mismatch")]
    fn stamp_length_mismatch_panics() {
        stamp_of(&[0], [1, 2]);
    }
}
