//! Pins the banked gather: on clean banks, a steady-state
//! `program_row` allocates nothing, and a `read_row` or
//! `scouting_write` allocates only the row it returns — whatever the
//! bank count. Every bank writes its slice straight into that row.
//!
//! This file holds exactly one test so no concurrent test can allocate
//! while the counter window is open.

use memcim_bits::BitVec;
use memcim_crossbar::{BankedCrossbar, ScoutingKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made by `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    drop(out);
    after - before
}

#[test]
fn steady_state_banked_ops_allocate_only_the_returned_row() {
    for banks in [1, 64] {
        let mut xbar = BankedCrossbar::rram(32, banks, 32);
        let w = xbar.cols();
        let a = BitVec::from_indices(w, &(0..w).step_by(3).collect::<Vec<_>>());
        let b = BitVec::from_indices(w, &(0..w).step_by(5).collect::<Vec<_>>());
        let kinds = [ScoutingKind::Or, ScoutingKind::And, ScoutingKind::Xnor];
        // Warm up: the first op of each gate sizes its memo.
        for kind in kinds {
            xbar.scouting_write(kind, &[0, 1], 2).expect("warm-up");
        }
        xbar.read_row(2).expect("warm-up");

        let n = allocations(|| xbar.program_row(0, &a).expect("program"));
        assert_eq!(n, 0, "program_row over {banks} banks");
        let n = allocations(|| xbar.program_row(1, &b).expect("program"));
        assert_eq!(n, 0, "program_row over {banks} banks");
        for kind in kinds {
            let n = allocations(|| xbar.scouting_write(kind, &[0, 1], 2).expect("scouting"));
            assert_eq!(n, 1, "{kind:?} scouting_write over {banks} banks");
        }
        let n = allocations(|| xbar.read_row(2).expect("read"));
        assert_eq!(n, 1, "read_row over {banks} banks");
        assert_eq!(xbar.read_row(2).expect("read"), a.xor(&b).not());
    }
}
