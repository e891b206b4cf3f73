//! What copying a constraint system costs, counted by a global allocator:
//! a polyhedron whose rows fit the inline width clones with exactly one
//! heap allocation (its row list), its space clones with none (the
//! dimensions are shared), and `add`ing a row it already holds allocates
//! nothing (duplicates are found in the rows themselves).
//!
//! The allocator counts every thread, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use dmc_polyhedra::{Constraint, DimKind, LinExpr, Polyhedron, Space};

/// The widest coefficient row a `LinExpr` keeps inline.
const INLINE_DIMS: usize = 12;

/// `System`, counting allocation calls.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System`'s guarantees are this allocator's; the counter is a
// statistic and publishes no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` or `realloc` above, that is from
        // `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and the caller's `new_size` contract is
        // `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = black_box(f());
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn copying_a_system_allocates_only_its_row_list() {
    for n in 1..=INLINE_DIMS {
        let space = Space::from_dims((0..n).map(|k| (format!("x{k}"), DimKind::Index)));
        let mut p = Polyhedron::universe(space.clone());
        for k in 0..n {
            let mut hi = LinExpr::var(n, k).scaled(-1);
            hi.set_constant(9);
            p.add(Constraint::ge(LinExpr::var(n, k)));
            p.add(Constraint::ge(hi));
        }
        assert_eq!(p.constraints().len(), 2 * n);

        let (copy, allocs) = counted(|| space.clone());
        assert_eq!((allocs, &copy), (0, &space), "width {n}: Space::clone");
        let (mut copy, allocs) = counted(|| p.clone());
        assert_eq!((allocs, &copy), (1, &p), "width {n}: Polyhedron::clone");
        let row = p.constraints()[n].clone();
        let ((), allocs) = counted(|| copy.add(row));
        assert_eq!((allocs, &copy), (0, &p), "width {n}: adding a held row");
    }
}
