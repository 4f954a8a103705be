//! Pins the transition memo's memory contract from outside the crate:
//!
//! * stamping a stream processor allocates no memo storage — the memo
//!   arrives with the first feed, so an idle or abandoned session holds
//!   none;
//! * once warm, the memo never allocates again, even when the automaton
//!   fills it and it is flushed over and over.
//!
//! That the storage stays under its byte budget is a unit test next to
//! the memo (`memo::tests::storage_never_exceeds_the_budget`).
//!
//! This file holds exactly one test so no concurrent test can allocate
//! while the counter window is open.

use memcim_ap::{ApBackend, AutomataProcessor, RoutingKind};
use memcim_automata::{HomogeneousAutomaton, Regex, StartKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Seeded random a/b bytes (xorshift).
fn random_ab(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 0 {
                b'a'
            } else {
                b'b'
            }
        })
        .collect()
}

#[test]
fn memo_storage_is_lazy_and_flushes_never_allocate() {
    // `a[ab]{12}c` under all-input scanning: up to 2^12 active sets,
    // far more than the memo holds, and no accept event on a/b traffic
    // (so the event vector cannot allocate either).
    let nfa = Regex::parse("a[ab]{12}c").expect("parses").compile();
    let homog = HomogeneousAutomaton::from_nfa(&nfa).with_start_kind(StartKind::AllInput);
    let ap =
        AutomataProcessor::compile(&homog, ApBackend::rram(), RoutingKind::Dense).expect("maps");

    // Random blocks of 200 symbols, each played three times: every block
    // fills the memo with new sets and then reuses them twice, so the
    // memo flushes every couple of blocks and stays in use throughout.
    let traffic: Vec<u8> = (0..40u64).flat_map(|b| random_ab(200, b + 1).repeat(3)).collect();

    let before = BYTES.load(Ordering::Relaxed);
    let mut multi = ap.multi_stream(1);
    let stamped = BYTES.load(Ordering::Relaxed) - before;
    assert!(
        stamped < 1024,
        "multi_stream(1) allocated {stamped} bytes: the stamp must not carry memo storage"
    );

    let before = BYTES.load(Ordering::Relaxed);
    multi.feed(0, &traffic[..600]).expect("lane 0");
    let warmed = BYTES.load(Ordering::Relaxed) - before;
    assert!(warmed >= 8 * 1024, "the first feed allocated only {warmed} bytes: no memo arrived");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for chunk in traffic[600..].chunks(4096) {
        multi.feed(0, chunk).expect("lane 0");
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let run = multi.finish(0).expect("lane 0");
    assert_eq!(run.symbols, traffic.len() as u64);
    assert!(run.accept_events.is_empty(), "traffic must be event-free");
    assert_eq!(allocations, 0, "feeding through repeated flushes allocated {allocations} times");
}
