//! The engine's one tunable, and the names its counters are read by.
//!
//! The counters live in the [`ledger`](crate::ledger), the engine's one
//! work account, kept per thread; [`PolyStats`] and [`snapshot`] are
//! re-exported here, where harnesses read them: take a [`snapshot`]
//! before and after a region and diff the two ([`PolyStats::since`]).
//! A snapshot sees the calling thread's work only, so compiles on
//! different threads each read exactly their own.
//!
//! The memo caches and the redundancy pre-filters are always on. The only
//! tunable is the feasibility branch-and-bound budget, carried one way: a
//! [`Tuning`] pushed per thread ([`push_thread_tuning`]) and popped by its
//! guard. Two compiles with different budgets can run on different threads
//! concurrently because nothing process-wide is ever written; without a
//! push a thread runs under [`DEFAULT_FEASIBILITY_BUDGET`].
//!
//! A budget change that takes effect bumps the thread's cache epoch, so a
//! memoized answer is served only under the budget it was computed in.
//! Pushing the already-effective budget is free (no invalidation).

use std::cell::Cell;
use std::marker::PhantomData;

pub use crate::ledger::{snapshot, PolyStats};

thread_local! {
    /// This thread's pushed tuning; `None` runs under the default budget.
    static THREAD_TUNING: Cell<Option<Tuning>> = const { Cell::new(None) };
    /// This thread's memo-cache epoch, bumped on effective budget changes.
    static THREAD_EPOCH: Cell<u64> = const { Cell::new(0) };
}

/// The default branch-and-bound budget of
/// [`Polyhedron::integer_feasibility`](crate::Polyhedron::integer_feasibility).
pub const DEFAULT_FEASIBILITY_BUDGET: u32 = 4_000;

/// The engine's tuning: the feasibility budget, carried as a value so
/// callers that must not interfere with each other — concurrent compiles
/// with different `Options` — install it per thread
/// ([`push_thread_tuning`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuning {
    /// Branch-and-bound budget for integer-feasibility queries. A budget
    /// of 0 makes every query return `Unknown` immediately
    /// (conservatively treated as feasible).
    pub feasibility_budget: u32,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            feasibility_budget: DEFAULT_FEASIBILITY_BUDGET,
        }
    }
}

/// Installs `tuning` as this thread's engine tuning until the returned
/// guard drops (which restores the previous push, or the default).
///
/// If the effective budget actually changes, the thread-local cache epoch
/// is bumped so memoized answers computed under the old budget are not
/// served under the new one; pushing the already-effective budget is free.
#[must_use = "the tuning is uninstalled when the guard drops"]
pub fn push_thread_tuning(tuning: Tuning) -> ThreadTuningGuard {
    ThreadTuningGuard {
        prev: install(Some(tuning)),
        _not_send: PhantomData,
    }
}

/// Swaps this thread's tuning, bumping the thread epoch iff the
/// effective budget changed; returns the previous value.
fn install(tuning: Option<Tuning>) -> Option<Tuning> {
    let before = feasibility_budget();
    let prev = THREAD_TUNING.with(|c| c.replace(tuning));
    if feasibility_budget() != before {
        THREAD_EPOCH.with(|c| c.set(c.get() + 1));
    }
    prev
}

/// RAII restore for [`push_thread_tuning`] (panic-safe, nestable).
/// `!Send`: it must drop on the thread that pushed.
#[derive(Debug)]
pub struct ThreadTuningGuard {
    prev: Option<Tuning>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ThreadTuningGuard {
    fn drop(&mut self) {
        install(self.prev);
    }
}

/// The branch-and-bound budget for integer-feasibility queries in effect
/// on this thread.
pub fn feasibility_budget() -> u32 {
    THREAD_TUNING
        .with(Cell::get)
        .unwrap_or_default()
        .feasibility_budget
}

/// This thread's memo-cache epoch: it moves whenever the effective
/// feasibility budget does.
pub(crate) fn epoch() -> u64 {
    THREAD_EPOCH.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(feasibility_budget: u32) -> Tuning {
        Tuning { feasibility_budget }
    }

    #[test]
    fn thread_tuning_overrides_budget_and_restores() {
        // A dedicated thread so no other test's thread state interferes.
        std::thread::spawn(|| {
            let e0 = epoch();
            let g = push_thread_tuning(budget(77));
            assert_eq!(feasibility_budget(), 77);
            assert!(epoch() > e0, "an effective change must invalidate");

            // Pushing the already-effective budget is free (no
            // invalidation), nested, and unwinds in order.
            let e1 = epoch();
            let same = push_thread_tuning(budget(77));
            assert_eq!(epoch(), e1);
            drop(same);
            assert_eq!(epoch(), e1);

            let inner = push_thread_tuning(budget(5));
            assert_eq!(feasibility_budget(), 5);
            assert!(epoch() > e1);
            drop(inner);
            assert_eq!(feasibility_budget(), 77, "inner pop restores outer tuning");

            let e2 = epoch();
            drop(g);
            assert!(epoch() > e2, "popping the override must invalidate");
            assert_eq!(feasibility_budget(), DEFAULT_FEASIBILITY_BUDGET);

            // Pushing the default over no push changes nothing either.
            let e3 = epoch();
            drop(push_thread_tuning(Tuning::default()));
            assert_eq!(epoch(), e3);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn thread_tuning_is_thread_local() {
        std::thread::spawn(|| {
            let _g = push_thread_tuning(budget(99));
            assert_eq!(feasibility_budget(), 99);
            // A freshly spawned thread does not inherit the push.
            std::thread::spawn(|| {
                assert_eq!(feasibility_budget(), DEFAULT_FEASIBILITY_BUDGET);
            })
            .join()
            .unwrap();
        })
        .join()
        .unwrap();
    }
}
