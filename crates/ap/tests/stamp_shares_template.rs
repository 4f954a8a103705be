//! Pins that stamping a multi-stream processor off a compiled template
//! shares the template instead of copying it:
//! [`AutomataProcessor::multi_stream`] allocates only the new lanes'
//! stream state, never the matrices or the routing fabric.
//!
//! This file holds exactly one test so no concurrent test can allocate
//! while the counter window is open.

use memcim_ap::{ApBackend, AutomataProcessor, RoutingKind};
use memcim_automata::{HomogeneousAutomaton, Regex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn multi_stream_stamp_allocates_less_than_one_routing_matrix() {
    // A 600-symbol literal compiles to 600 homogeneous states.
    let literal: String = (0..600).map(|i| (b'a' + (i % 26) as u8) as char).collect();
    let nfa = Regex::parse(&literal).expect("parses").compile();
    let homog = HomogeneousAutomaton::from_nfa(&nfa);
    let n = homog.state_count();
    assert!(n >= 512, "automaton has {n} states");
    let ap =
        AutomataProcessor::compile(&homog, ApBackend::rram(), RoutingKind::Dense).expect("maps");

    let before = BYTES.load(Ordering::Relaxed);
    let multi = ap.multi_stream(1);
    let stamped = BYTES.load(Ordering::Relaxed) - before;

    let routing_matrix = (n * n / 8) as u64;
    assert_eq!(multi.streams(), 1);
    assert!(
        stamped < routing_matrix,
        "multi_stream(1) allocated {stamped} bytes, not less than one {n}×{n} routing \
         matrix ({routing_matrix} bytes)"
    );
}
