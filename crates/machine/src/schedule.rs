//! Per-processor execution schedules.
//!
//! A [`Schedule`] is the fully resolved form of a compiled SPMD program:
//! each physical processor has an ordered list of actions (compute blocks,
//! sends, receives), and a global message table says who talks to whom and
//! what moves. The compiler pipeline (`dmc-core`) lowers communication sets
//! and computation decompositions into this form; the simulator executes
//! it against the cost model.

use std::borrow::Borrow;

/// A global sequential-order stamp: the 2d+1 interleaving of statement
/// positions and loop index values. Lexicographic comparison of stamps
/// gives the original program's execution order.
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

/// One element carried by a message in values mode.
#[derive(Clone, Debug, PartialEq)]
pub struct PayloadItem {
    /// Array name.
    pub array: String,
    /// Global subscripts.
    pub idx: Vec<i128>,
    /// The stamp of the write that produced the value (or the initial
    /// stamp for live-in data). Receivers keep the latest-stamped value.
    pub stamp: Stamp,
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
    pub payload: Option<Vec<PayloadItem>>,
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
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn stamp_length_mismatch_panics() {
        stamp_of(&[0], [1, 2]);
    }
}
