//! The transition memo: a lazily filled cache of the lane kernel's
//! results, in the manner of a lazy DFA (RE2's DFA cache).
//!
//! Under all-input scanning a stream's active vector takes few distinct
//! values, and the symbols split into few *symbol classes* (distinct STE
//! rows, [`Template`]'s byte→class map). The uncached kernel in
//! [`Lane::feed`](crate::engine::Lane) keeps recomputing the same
//! `f = a·R`, `(f | all_input) & s` and accept scan for the same
//! (active set, class) pairs. The memo stores what one such step
//! produced, keyed by an interned set id:
//!
//! * per cached set: its words, `|a·R|` (the routing-energy term of a
//!   step out of it) and its accept states in ascending order (the
//!   report events of a step into it);
//! * per (set, class): the id of the next set, once a step has taken it.
//!
//! A hit therefore replays exactly what the kernel would have charged
//! and reported. The memo never computes anything itself: every entry
//! is a result of the uncached kernel.
//!
//! Storage is allocated once, on the first non-empty feed, under the
//! fixed [`MEMO_BYTES`] budget: `u16` ids into one flat set array, an
//! open-addressing index over it, a flat transition table and a flat
//! accept pool. When a new set does not fit, everything is flushed at
//! once and filling starts over. A thrash guard stops consulting the
//! memo for good when a flush arrives after fewer hits than misses since
//! the previous one: the automaton's active-set space is too large for
//! the budget, and the plain kernel is then the faster path.

use crate::engine::Template;
use memcim_bits::BitVec;

/// Bytes of storage one memo may hold.
const MEMO_BYTES: usize = 16 * 1024;
/// Accept-pool slots budgeted per cached set. A set with more accept
/// states borrows from the others; a full pool flushes like a full set
/// array.
const ACCEPT_SLOTS_PER_SET: usize = 2;
/// An empty index slot or a transition not yet taken.
const NONE: u16 = u16::MAX;

/// What the memo knows about one cached set.
#[derive(Debug, Clone, Copy, Default)]
struct SetMeta {
    /// `|a·R|` for this set; written with its first transition, so it
    /// is valid whenever a transition out of the set is.
    follow_ones: u32,
    /// Start of the set's accept states in the accept pool.
    accepts: u32,
    accept_len: u16,
    /// Whether the set has any active state.
    any: bool,
}

/// A fixed-budget transition memo, shared by every lane of a processor.
#[derive(Debug, Clone)]
pub(crate) struct Memo {
    budget: usize,
    guarded: bool,
    /// Whether the kernel may consult the memo. Cleared for good by the
    /// thrash guard, or when the budget holds fewer than two sets.
    on: bool,
    /// Words per set and symbol classes per set, fixed by the template.
    words: usize,
    classes: usize,
    /// Sets in use since the last flush; the storage holds
    /// `meta.len()`.
    len: usize,
    sets: Vec<u64>,
    next: Vec<u16>,
    meta: Vec<SetMeta>,
    accepts: Vec<u32>,
    accepts_len: usize,
    /// Open-addressing index: set id per slot, a power of two at
    /// most half full.
    index: Vec<u16>,
    /// Kernel steps served from and added to the memo since the last
    /// flush — the thrash guard's evidence.
    hits: u64,
    misses: u64,
    flushes: u64,
}

impl Memo {
    /// An empty memo under the production budget. Holds no storage
    /// until the first feed.
    pub(crate) fn new() -> Self {
        Self::with_budget(MEMO_BYTES, true)
    }

    /// An empty memo under `budget` bytes, with the thrash guard on or
    /// off. Production code uses [`new`](Self::new); tests shrink the
    /// budget to force flushes, or pass 0 for the uncached kernel.
    pub(crate) fn with_budget(budget: usize, guarded: bool) -> Self {
        Self {
            budget,
            guarded,
            on: true,
            words: 0,
            classes: 0,
            len: 0,
            sets: Vec::new(),
            next: Vec::new(),
            meta: Vec::new(),
            accepts: Vec::new(),
            accepts_len: 0,
            index: Vec::new(),
            hits: 0,
            misses: 0,
            flushes: 0,
        }
    }

    /// Whether the kernel should consult the memo for `t`, allocating
    /// the storage on first use.
    pub(crate) fn ready(&mut self, t: &Template) -> bool {
        if self.on && self.index.is_empty() {
            self.allocate(t);
        }
        self.on
    }

    fn allocate(&mut self, t: &Template) {
        let words = t.set_words();
        let classes = t.class_count();
        // Worst case four index slots per set: the index is the next
        // power of two at or above twice the set count.
        let per_set = words * 8
            + classes * 2
            + std::mem::size_of::<SetMeta>()
            + ACCEPT_SLOTS_PER_SET * 4
            + 4 * 2;
        let cap = (self.budget / per_set).min(NONE as usize);
        // Also keeps accept states within `u32`: a set of 2^32 states
        // alone outgrows any budget.
        if cap < 2 {
            self.on = false;
            return;
        }
        self.words = words;
        self.classes = classes;
        self.sets = vec![0; cap * words];
        self.next = vec![NONE; cap * classes];
        self.meta = vec![SetMeta::default(); cap];
        self.accepts = vec![0; cap * ACCEPT_SLOTS_PER_SET];
        self.index = vec![NONE; (2 * cap).next_power_of_two()];
    }

    fn set(&self, id: u16) -> &[u64] {
        let start = id as usize * self.words;
        &self.sets[start..start + self.words]
    }

    /// The index slot of `set`: `Ok(id)` when cached, else `Err` with
    /// the empty slot it would take.
    ///
    /// The keys derive from client traffic and the hash is unkeyed, but
    /// only a session's own traffic reaches its memo and the index is
    /// at most half full, so crafted collisions cost at most a scan of
    /// one session's index per miss.
    fn probe(&self, set: &[u64]) -> Result<u16, usize> {
        let mut h = 0u64;
        for &w in set {
            h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        let mask = self.index.len() - 1;
        let mut slot = (h >> (64 - self.index.len().trailing_zeros())) as usize;
        loop {
            match self.index[slot] {
                NONE => return Err(slot),
                id if self.set(id) == set => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The id of `active`, if cached. Only called after
    /// [`ready`](Self::ready) returned true.
    pub(crate) fn find(&self, active: &BitVec) -> Option<u16> {
        self.probe(active.as_words()).ok()
    }

    /// The set a step from `id` on a symbol of `class` leads to, if a
    /// step has taken that transition since the last flush.
    #[inline]
    pub(crate) fn hit(&mut self, id: u16, class: u8) -> Option<u16> {
        let next = self.next[id as usize * self.classes + class as usize];
        if next == NONE {
            return None;
        }
        self.hits += 1;
        Some(next)
    }

    /// `|a·R|` of set `id`.
    #[inline]
    pub(crate) fn follow_ones(&self, id: u16) -> u32 {
        self.meta[id as usize].follow_ones
    }

    /// Whether set `id` has any active state.
    #[inline]
    pub(crate) fn any(&self, id: u16) -> bool {
        self.meta[id as usize].any
    }

    /// The accept states of set `id`, ascending.
    #[inline]
    pub(crate) fn accepts(&self, id: u16) -> &[u32] {
        let m = self.meta[id as usize];
        &self.accepts[m.accepts as usize..m.accepts as usize + m.accept_len as usize]
    }

    /// Copies set `id` into `out`.
    pub(crate) fn load(&self, id: u16, out: &mut BitVec) {
        out.as_words_mut().copy_from_slice(self.set(id));
    }

    /// Records one uncached kernel step: from set `src` (when cached)
    /// on a symbol of `class`, routing `follow_ones` states, into
    /// `active`, which reported `events`. Returns the id of `active`,
    /// or `None` when the memo is off or cannot hold the set.
    pub(crate) fn store(
        &mut self,
        src: Option<u16>,
        class: u8,
        follow_ones: u32,
        active: &BitVec,
        any: bool,
        events: &[(usize, usize)],
    ) -> Option<u16> {
        if !self.on {
            return None;
        }
        self.misses += 1;
        let flushes = self.flushes;
        let dst = self.intern(active.as_words(), any, events)?;
        // A flush while interning `dst` dropped `src`, and its id may
        // now name another set.
        if let Some(src) = src.filter(|_| self.flushes == flushes) {
            self.meta[src as usize].follow_ones = follow_ones;
            self.next[src as usize * self.classes + class as usize] = dst;
        }
        Some(dst)
    }

    /// The id of `set`, inserting it (after a flush when full).
    fn intern(&mut self, set: &[u64], any: bool, events: &[(usize, usize)]) -> Option<u16> {
        if events.len() > self.accepts.len().min(u16::MAX as usize) {
            return None;
        }
        let mut slot = match self.probe(set) {
            Ok(id) => return Some(id),
            Err(slot) => slot,
        };
        if self.len == self.meta.len() || self.accepts_len + events.len() > self.accepts.len() {
            self.flush();
            if !self.on {
                return None;
            }
            slot = self.probe(set).err()?;
        }
        let id = self.len;
        self.len += 1;
        self.sets[id * self.words..(id + 1) * self.words].copy_from_slice(set);
        self.next[id * self.classes..(id + 1) * self.classes].fill(NONE);
        self.meta[id] = SetMeta {
            follow_ones: 0,
            accepts: self.accepts_len as u32,
            accept_len: events.len() as u16,
            any,
        };
        for (dst, &(_, state)) in self.accepts[self.accepts_len..].iter_mut().zip(events) {
            *dst = state as u32;
        }
        self.accepts_len += events.len();
        self.index[slot] = id as u16;
        Some(id as u16)
    }

    /// Drops every cached set. The thrash guard turns the memo off when
    /// the sets were added faster than they were reused.
    fn flush(&mut self) {
        if self.guarded && self.hits < self.misses {
            self.on = false;
        }
        self.len = 0;
        self.accepts_len = 0;
        self.index.fill(NONE);
        self.hits = 0;
        self.misses = 0;
        self.flushes += 1;
    }
}

#[cfg(test)]
impl Memo {
    /// Bytes of storage held.
    fn storage_bytes(&self) -> usize {
        self.sets.capacity() * 8
            + self.next.capacity() * 2
            + self.meta.capacity() * std::mem::size_of::<SetMeta>()
            + self.accepts.capacity() * 4
            + self.index.capacity() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Lane;
    use crate::routing::FollowScratch;
    use crate::{ApBackend, RoutingKind};
    use memcim_automata::{HomogeneousAutomaton, Regex, StartKind};
    use std::sync::Arc;

    fn template(pattern: &str, kind: RoutingKind) -> Arc<Template> {
        let nfa = Regex::parse(pattern).expect("parses").compile();
        let h = HomogeneousAutomaton::from_nfa(&nfa).with_start_kind(StartKind::AllInput);
        Template::compile(&h, ApBackend::rram(), kind).expect("maps")
    }

    /// Seeded random bytes from `alphabet` (xorshift; no RNG crate).
    fn traffic(alphabet: &[u8], len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                alphabet[(x % alphabet.len() as u64) as usize]
            })
            .collect()
    }

    /// Random a/b blocks, each played three times: every block brings
    /// new active sets of `a[ab]{12}`, then reuses them twice.
    fn repeated_blocks(blocks: usize) -> Vec<u8> {
        (0..blocks as u64).flat_map(|b| traffic(b"ab", 200, b + 1).repeat(3)).collect()
    }

    fn feed(t: &Template, memo: &mut Memo, input: &[u8]) -> Lane {
        let mut lane = t.lane();
        let mut scratch: FollowScratch = t.routing.scratch();
        for chunk in input.chunks(4096) {
            lane.feed(t, &mut scratch, memo, chunk);
        }
        lane
    }

    #[test]
    fn classes_are_the_distinct_ste_rows() {
        let t = template("(GET|POST) /[a-z]+x", RoutingKind::Dense);
        let v = &t.matrices().v;
        for a in 0..256 {
            for b in 0..256 {
                assert_eq!(t.classes[a] == t.classes[b], v.row(a) == v.row(b), "bytes {a} and {b}");
            }
        }
        let max = t.classes.iter().copied().max().expect("256 bytes") as usize;
        assert_eq!(t.class_count(), max + 1);
    }

    #[test]
    fn storage_never_exceeds_the_budget() {
        let literal: String = (0..600).map(|i| (b'a' + (i % 26) as u8) as char).collect();
        for (pattern, input) in [
            ("a[ab]{12}", traffic(b"ab", 1 << 14, 7)),
            ("(GET|POST) /[a-z]+", traffic(b"GETPOS /abcxyz", 1 << 14, 9)),
            (literal.as_str(), traffic(b"abcdefghijklmnopqrstuvwxyz", 1 << 14, 11)),
        ] {
            for kind in
                [RoutingKind::Dense, RoutingKind::Hierarchical { block: 64, max_global: 1 << 16 }]
            {
                let t = template(pattern, kind);
                let mut memo = Memo::new();
                assert_eq!(memo.storage_bytes(), 0, "empty until the first feed");
                feed(&t, &mut memo, &input[..1]);
                let held = memo.storage_bytes();
                assert!(held <= MEMO_BYTES, "{pattern:?}: {held} bytes over {MEMO_BYTES}");
                feed(&t, &mut memo, &input);
                assert_eq!(memo.storage_bytes(), held, "{pattern:?}: flushes never grow it");
            }
        }
    }

    #[test]
    fn thrash_guard_stops_consulting_an_exploding_memo() {
        let t = template("a[ab]{12}", RoutingKind::Dense);
        let mut memo = Memo::new();
        feed(&t, &mut memo, &traffic(b"ab", 1 << 16, 3));
        assert_eq!(memo.flushes, 1, "the first flush trips the guard");
        assert!(!memo.on, "random traffic adds sets faster than it reuses them");
    }

    /// The traffic and automaton of `tests/memo_bounded.rs`.
    #[test]
    fn reused_sets_keep_the_memo_on_through_flushes() {
        let t = template("a[ab]{12}c", RoutingKind::Dense);
        let mut memo = Memo::new();
        feed(&t, &mut memo, &repeated_blocks(40));
        assert!(memo.flushes >= 5, "{} flushes", memo.flushes);
        assert!(memo.on, "each block's sets are reused twice before the next flush");
    }

    #[test]
    fn scanning_rules_are_served_mostly_from_the_memo() {
        let t = template("(GET|POST) /[a-z]+|ab+c|x[yz]*w", RoutingKind::Dense);
        let mut memo = Memo::new();
        feed(&t, &mut memo, &traffic(b"GETPOS /abcxyzw", 1 << 14, 5));
        assert!(memo.on);
        assert!(memo.hits > 10 * memo.misses, "{} hits, {} misses", memo.hits, memo.misses);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{ApBackend, MultiStreamProcessor, RoutingKind};
    use memcim_automata::{HomogeneousAutomaton, Regex, StartKind};
    use proptest::prelude::*;

    fn pattern_strategy() -> impl Strategy<Value = String> {
        let leaf = prop_oneof![
            Just("a".to_string()),
            Just("b".to_string()),
            Just("[ab]".to_string()),
            Just(".".to_string()),
        ];
        let random = leaf.prop_recursive(3, 12, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a}{b}")),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}|{b})")),
                inner.prop_map(|a| format!("({a})*")),
            ]
        });
        // State-explosion shapes: `[ab]{k}` under all-input scanning
        // has up to 2^k active sets.
        let exploding = prop_oneof![
            (1u32..=10).prop_map(|k| format!("[ab]{{{k}}}")),
            (1u32..=10).prop_map(|k| format!("a[ab]{{{k}}}")),
            (1u32..=6, 1u32..=6).prop_map(|(j, k)| format!("(a[ab]{{{j}}}c|b[bc]{{{k}}})")),
        ];
        prop_oneof![random, exploding]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Memoized lanes ≡ the uncached kernel: every cumulative
        /// report (energy to the bit), every run, the billing totals —
        /// on random and state-explosion automata, both start kinds,
        /// three fabrics and random chunkings interleaved across lanes,
        /// under the production budget and under tiny budgets that
        /// flush mid-chunk, with the thrash guard on and off.
        #[test]
        fn memoized_lanes_equal_the_uncached_kernel(
            pattern in pattern_strategy(),
            inputs in proptest::collection::vec(
                proptest::collection::vec(b'a'..=b'c', 0..96),
                1..5,
            ),
            cuts in proptest::collection::vec(0usize..96, 0..6),
            start_anchored in any::<bool>(),
            tiny in 48usize..320,
        ) {
            let nfa = Regex::parse(&pattern).expect("generated").compile();
            let base = HomogeneousAutomaton::from_nfa(&nfa);
            if base.state_count() == 0 {
                return Ok(());
            }
            let start =
                if start_anchored { StartKind::StartOfInput } else { StartKind::AllInput };
            let h = base.with_start_kind(start);
            // Per-lane chunkings from the shared cut points, offset per
            // lane so lanes split differently.
            let rounds = cuts.len() + 1;
            let chunkings: Vec<Vec<&[u8]>> = inputs
                .iter()
                .enumerate()
                .map(|(l, input)| {
                    let mut b: Vec<usize> =
                        cuts.iter().map(|&c| (c + 3 * l) % (input.len() + 1)).collect();
                    b.push(input.len());
                    b.sort_unstable();
                    let mut prev = 0usize;
                    let mut chunks: Vec<&[u8]> = b
                        .iter()
                        .map(|&c| {
                            let chunk = &input[prev..c];
                            prev = c;
                            chunk
                        })
                        .collect();
                    chunks.resize(rounds, &[]);
                    chunks
                })
                .collect();
            for kind in [
                RoutingKind::Dense,
                RoutingKind::Hierarchical { block: 8, max_global: 1 << 16 },
                RoutingKind::Hierarchical { block: 64, max_global: 1 << 16 },
            ] {
                let compile = |memo: Memo| {
                    MultiStreamProcessor::compile(&h, ApBackend::rram(), kind, inputs.len())
                        .expect("maps")
                        .with_memo(memo)
                };
                let mut reference = compile(Memo::with_budget(0, true));
                let mut memoized = [
                    compile(Memo::new()),
                    compile(Memo::with_budget(tiny, true)),
                    compile(Memo::with_budget(tiny, false)),
                ];
                for r in 0..rounds {
                    for (l, chunks) in chunkings.iter().enumerate() {
                        let expected = reference.feed(l, chunks[r]).expect("lane exists");
                        for (m, multi) in memoized.iter_mut().enumerate() {
                            let got = multi.feed(l, chunks[r]).expect("lane exists");
                            prop_assert_eq!(got, expected,
                                "{} {:?} {:?} memo {} lane {} round {}",
                                pattern.clone(), kind, start, m, l, r);
                            prop_assert_eq!(
                                got.energy.as_joules().to_bits(),
                                expected.energy.as_joules().to_bits());
                        }
                    }
                }
                let billing = reference.billing_report();
                let runs = reference.finish_all();
                for (m, multi) in memoized.iter_mut().enumerate() {
                    let got = multi.billing_report();
                    prop_assert_eq!(got, billing, "{} memo {} billing", pattern.clone(), m);
                    prop_assert_eq!(
                        got.energy.as_joules().to_bits(),
                        billing.energy.as_joules().to_bits());
                    prop_assert_eq!(&multi.finish_all(), &runs,
                        "{} {:?} {:?} memo {} runs", pattern.clone(), kind, start, m);
                }
            }
        }
    }
}
