//! The cycle engine: Equations (1)–(4) with per-cycle cost accounting.
//!
//! A processor is split along the line the hardware draws. The
//! [`Template`] is what programming the STE and routing arrays fixes
//! once — matrices, routing fabric, cost model — and is shared behind an
//! `Arc` by every stream over the automaton. A [`Lane`] is one stream's
//! private state, and [`Lane::feed`] is the single per-symbol kernel that
//! both [`AutomataProcessor`] and [`MultiStreamProcessor`] run.
//!
//! The kernel computes each symbol's step uncached ([`Lane::step`]) or
//! replays it from the processor's transition memo ([`Memo`]), which
//! caches, per (active set, symbol class), the next active set, the
//! routing popcount and the accept states of earlier uncached steps.
//! Under all-input scanning few active sets recur, so most symbols are
//! replays; the memo's budget, flush and thrash guard are described in
//! `memo.rs`.

use crate::memo::Memo;
use crate::routing::FollowScratch;
use crate::{ApBackend, ApCosts, ApError, MultiStreamProcessor, Routing, RoutingKind};
use memcim_automata::{ApMatrices, HomogeneousAutomaton};
use memcim_bits::BitVec;
use memcim_units::{Joules, Seconds};
use std::sync::Arc;

/// A report event or run summary cost line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApReport {
    /// Symbol cycles executed.
    pub cycles: u64,
    /// Total pipeline latency.
    pub latency: Seconds,
    /// Total dynamic energy (STE + routing arrays, discharge-proportional).
    pub energy: Joules,
}

impl ApReport {
    /// Average energy per input symbol.
    pub fn energy_per_symbol(&self) -> Joules {
        if self.cycles == 0 {
            Joules::ZERO
        } else {
            Joules::new(self.energy.as_joules() / self.cycles as f64)
        }
    }

    /// The cumulative report of `cycles` symbol cycles that dissipated
    /// `energy` joules.
    pub(crate) fn streamed(costs: &ApCosts, cycles: u64, energy: f64) -> Self {
        Self { cycles, latency: costs.cycle_latency * cycles as f64, energy: Joules::new(energy) }
    }
}

/// The outcome of one input run.
#[derive(Debug, Clone, PartialEq)]
pub struct ApRun {
    /// Anchored acceptance after the final symbol.
    pub accepted: bool,
    /// `(position, state)` report events — every accept-state activation.
    pub accept_events: Vec<(usize, usize)>,
    /// Input length processed.
    pub symbols: u64,
    /// Cost summary.
    pub report: ApReport,
}

/// The compiled, immutable part of a processor: the programmed STE and
/// routing arrays and the cost model derived from them.
#[derive(Debug)]
pub(crate) struct Template {
    matrices: ApMatrices,
    pub(crate) routing: Routing,
    backend: ApBackend,
    pub(crate) costs: ApCosts,
    /// `ste_ones[b]` = number of STE columns that discharge on symbol
    /// `b` — the per-symbol STE energy is a table lookup instead of a
    /// popcount over the row.
    ste_ones: Vec<u32>,
    /// `classes[b]` = the symbol class of byte `b`: bytes with equal STE
    /// rows share a class, and a step's result depends on the symbol
    /// only through its class. Classes are numbered in order of first
    /// occurrence.
    pub(crate) classes: [u8; 256],
    class_count: usize,
    /// Whether an all-zero active vector can come back to life after
    /// position 0 (i.e. the automaton has `all_input` states). When
    /// false, a dead stream is charged STE discharge per symbol but
    /// skips routing, follow and accept work entirely.
    revivable: bool,
}

impl Template {
    /// See [`AutomataProcessor::compile`].
    pub(crate) fn compile(
        automaton: &HomogeneousAutomaton,
        backend: ApBackend,
        routing: RoutingKind,
    ) -> Result<Arc<Self>, ApError> {
        let n = automaton.state_count();
        if n == 0 {
            return Err(ApError::EmptyAutomaton);
        }
        if n > backend.capacity {
            return Err(ApError::CapacityExceeded { states: n, capacity: backend.capacity });
        }
        let matrices = automaton.to_matrices();
        let routing = Routing::compile(&matrices.r, routing)?;
        let costs = backend.costs(n, routing.resources().config_bits);
        let ste_ones = (0..256).map(|b| matrices.v.row(b).count_ones() as u32).collect();
        let mut classes = [0u8; 256];
        let mut firsts: Vec<usize> = Vec::new();
        for (b, class) in classes.iter_mut().enumerate() {
            let row = matrices.v.row(b);
            *class = match firsts.iter().position(|&f| matrices.v.row(f) == row) {
                Some(c) => c as u8,
                None => {
                    firsts.push(b);
                    (firsts.len() - 1) as u8
                }
            };
        }
        let revivable = matrices.all_input.any();
        Ok(Arc::new(Self {
            matrices,
            routing,
            backend,
            costs,
            ste_ones,
            classes,
            class_count: firsts.len(),
            revivable,
        }))
    }

    /// Words in one active vector.
    pub(crate) fn set_words(&self) -> usize {
        self.matrices.accept.as_words().len()
    }

    /// Number of symbol classes.
    pub(crate) fn class_count(&self) -> usize {
        self.class_count
    }

    /// A fresh stream over this automaton.
    pub(crate) fn lane(&self) -> Lane {
        let n = self.matrices.state_count();
        Lane {
            active: BitVec::new(n),
            follow: BitVec::new(n),
            pos: 0,
            accept_events: Vec::new(),
            energy: 0.0,
            last_accepting: false,
        }
    }
}

/// One stream's private state: the double-buffered active/follow
/// vectors, the stream position, and what the stream has reported and
/// dissipated so far.
#[derive(Debug, Clone)]
pub(crate) struct Lane {
    /// Current active vector `a`.
    active: BitVec,
    /// Double buffer for the follow vector `f`; swapped with `active`
    /// each cycle instead of reallocated.
    follow: BitVec,
    /// Symbols consumed since the last reset.
    pub(crate) pos: u64,
    accept_events: Vec<(usize, usize)>,
    pub(crate) energy: f64,
    last_accepting: bool,
}

impl Lane {
    /// Clears the stream state; the buffers keep their storage.
    pub(crate) fn reset(&mut self) {
        self.active.clear();
        self.pos = 0;
        self.accept_events.clear();
        self.energy = 0.0;
        self.last_accepting = false;
    }

    /// The per-symbol kernel: streams one chunk through the pipeline of
    /// the paper's Fig. 6, continuing from the lane's position.
    ///
    /// Each symbol either replays a step `memo` holds for the active set
    /// and the symbol's class, or runs [`step`](Self::step) and hands
    /// its result to the memo. Both charge the STE term, then the
    /// routing term only for a non-empty active set, so the energy sum
    /// is bit-identical whichever path a symbol takes.
    pub(crate) fn feed(
        &mut self,
        t: &Template,
        scratch: &mut FollowScratch,
        memo: &mut Memo,
        chunk: &[u8],
    ) {
        let ste_energy = t.costs.ste_energy_per_column.as_joules();
        let routing_energy = t.costs.routing_energy_per_column.as_joules();
        // Hot scalars live in locals for the duration of the chunk —
        // accumulating through `self` would force a reload/store per
        // symbol around every `&mut self`-field call.
        let ste_ones = &t.ste_ones;
        let revivable = t.revivable;
        let mut energy = self.energy;
        let mut pos = self.pos;
        let mut last_accepting = self.last_accepting;
        // Tracked across cycles so the steady state never re-scans the
        // active vector: the kernel and the memo both know it for free.
        let mut active_any = self.active.any();
        // The memo id of the active set while the memo holds it. A hit
        // only moves the id, so `self.active` is stale until a miss or
        // the end of the chunk loads the set back.
        let consult = !chunk.is_empty() && memo.ready(t);
        let mut cur = if consult && pos > 0 { memo.find(&self.active) } else { None };
        for (i, &byte) in chunk.iter().enumerate() {
            // Dead stream: past position 0 with no active states and no
            // `all_input` revival, the active vector stays empty for the
            // rest of the stream. The STE array still discharges on
            // every symbol (the energy model is unchanged — a table
            // lookup per byte), but routing, follow and the accept scan
            // are skipped wholesale.
            if !active_any && !revivable && pos > 0 {
                for &b in &chunk[i..] {
                    energy += ste_ones[b as usize] as f64 * ste_energy;
                }
                pos += (chunk.len() - i) as u64;
                last_accepting = false;
                break;
            }

            // Step 1 — input symbol processing (Equation 1): one STE-array
            // evaluate. Discharge-proportional energy: columns whose bit
            // line falls are the ones that match the symbol, precounted
            // per symbol at compile time.
            energy += ste_ones[byte as usize] as f64 * ste_energy;

            // Steps 2–3 replayed: the routing term and the events an
            // earlier uncached step from this set on this class produced.
            if let Some(id) = cur {
                if let Some(next) = memo.hit(id, t.classes[byte as usize]) {
                    if active_any {
                        energy += memo.follow_ones(id) as f64 * routing_energy;
                    }
                    let accepts = memo.accepts(next);
                    for &state in accepts {
                        self.accept_events.push((pos as usize, state as usize));
                    }
                    last_accepting = !accepts.is_empty();
                    active_any = memo.any(next);
                    cur = Some(next);
                    pos += 1;
                    continue;
                }
                memo.load(id, &mut self.active);
            }

            // Steps 2–3 uncached: position 0, a miss, or no memo.
            let events = self.accept_events.len();
            let (follow_ones, any) = self.step(t, scratch, byte, pos, active_any);
            if active_any {
                energy += follow_ones as f64 * routing_energy;
            }
            last_accepting = self.accept_events.len() > events;
            active_any = any;
            if consult {
                cur = memo.store(
                    cur,
                    t.classes[byte as usize],
                    follow_ones,
                    &self.active,
                    active_any,
                    &self.accept_events[events..],
                );
            }
            pos += 1;
        }
        if let Some(id) = cur {
            memo.load(id, &mut self.active);
        }
        self.energy = energy;
        self.pos = pos;
        self.last_accepting = last_accepting;
    }

    /// One uncached symbol cycle from `self.active`: Equations (2)–(4)
    /// for the symbol `byte` at stream position `pos`. Routes the active
    /// vector into the follow buffer, applies `(f | all_input) & s`,
    /// reports the accept states reached and swaps the buffers. Returns
    /// `|a·R|`, the popcount the routing energy charges (0, with the
    /// fabric walk skipped, for an empty active vector), and whether the
    /// new active vector is non-empty.
    #[inline(always)]
    fn step(
        &mut self,
        t: &Template,
        scratch: &mut FollowScratch,
        byte: u8,
        pos: u64,
        active_any: bool,
    ) -> (u32, bool) {
        // Step 2 — active state processing (Equations 2 and 3), into
        // the reused follow buffer. An empty active vector routes to
        // an empty follow vector with zero discharge, so the fabric
        // walk is skipped outright.
        let follow_ones = if active_any {
            t.routing.follow_into(&self.active, &mut self.follow, scratch);
            self.follow.count_ones() as u32
        } else {
            self.follow.clear();
            0
        };
        if pos == 0 {
            self.follow.or_assign(&t.matrices.start_of_input);
        }

        // Steps 2b and 3, fused into a single word pass:
        // `f = (f | all_input) & s` (Equation 3), its emptiness for the
        // next cycle's skip decisions, and output identification
        // (Equation 4) — a word-AND with the accept mask, iterating ones
        // only in live words.
        let ai_words = t.matrices.all_input.as_words();
        let acc_words = t.matrices.accept.as_words();
        let s_words = t.matrices.v.row(byte as usize).as_words();
        let mut any = 0u64;
        let f_words = self.follow.as_words_mut();
        for wi in 0..f_words.len() {
            let w = (f_words[wi] | ai_words[wi]) & s_words[wi];
            f_words[wi] = w;
            any |= w;
            let mut live = w & acc_words[wi];
            while live != 0 {
                let state = wi * 64 + live.trailing_zeros() as usize;
                self.accept_events.push((pos as usize, state));
                live &= live - 1;
            }
        }
        std::mem::swap(&mut self.active, &mut self.follow);
        (follow_ones, any != 0)
    }

    /// The cumulative cost report for the stream so far.
    pub(crate) fn report(&self, costs: &ApCosts) -> ApReport {
        ApReport::streamed(costs, self.pos, self.energy)
    }

    /// Ends the stream: returns its cumulative [`ApRun`] and resets the
    /// lane for the next stream.
    pub(crate) fn finish(&mut self, t: &Template) -> ApRun {
        let run = ApRun {
            accepted: if self.pos == 0 { t.matrices.accepts_empty } else { self.last_accepting },
            accept_events: std::mem::take(&mut self.accept_events),
            symbols: self.pos,
            report: self.report(&t.costs),
        };
        self.reset();
        run
    }
}

/// A homogeneous automaton mapped onto AP hardware.
///
/// Construction programs the STE and routing arrays (a one-time
/// configuration cost, reported by
/// [`configuration_cost`](Self::configuration_cost)); each
/// [`run`](Self::run) then streams input symbols through the three-step
/// pipeline of the paper's Fig. 6, accumulating latency and energy from
/// the backend's calibrated cost model.
///
/// The symbol loop is allocation-free in steady state: the processor
/// owns double-buffered active/follow vectors, the routing scratch and a
/// transition memo, all reused across symbols and across
/// [`run`](Self::run) calls. The memo caches the result of each
/// (active set, symbol class) step the kernel has computed, so a warm
/// processor replays most symbols instead of routing them. Its storage
/// is allocated once, on the first feed, under a fixed budget of
/// 16 KiB; when full it is flushed and refilled, and it is no longer
/// consulted once flushes come faster than its entries are reused. The
/// memo changes host time only: events and reports are bit-identical
/// to the uncached kernel's.
///
/// Long-lived connections can stream incrementally through
/// [`reset`](Self::reset) / [`feed`](Self::feed) /
/// [`finish`](Self::finish) — feeding an input in chunks is equivalent
/// to one [`run`](Self::run) over the concatenation.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct AutomataProcessor {
    template: Arc<Template>,
    lane: Lane,
    scratch: FollowScratch,
    memo: Memo,
}

/// A processor compiled by [`AutomataProcessor::compile_or_dense`].
#[derive(Debug, Clone)]
pub struct RoutedProcessor {
    /// The compiled processor.
    pub processor: AutomataProcessor,
    /// The hierarchical fabric ran out of global wires and the
    /// processor routes through a dense `N×N` matrix instead:
    /// functionally identical, but per-symbol routing cost scales with
    /// the full crossbar rather than the two-level hierarchy.
    pub fallback: bool,
}

impl AutomataProcessor {
    /// Maps an automaton onto a backend with the chosen routing fabric.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::EmptyAutomaton`] for a stateless automaton,
    /// [`ApError::CapacityExceeded`] when the automaton exceeds the
    /// device's STE capacity, and [`ApError::RoutingInfeasible`] when
    /// hierarchical routing runs out of global wires.
    pub fn compile(
        automaton: &HomogeneousAutomaton,
        backend: ApBackend,
        routing: RoutingKind,
    ) -> Result<Self, ApError> {
        let template = Template::compile(automaton, backend, routing)?;
        Ok(Self {
            lane: template.lane(),
            scratch: template.routing.scratch(),
            memo: Memo::new(),
            template,
        })
    }

    /// Maps an automaton onto the Cache Automaton's hierarchical fabric
    /// ([`RoutingKind::cache_automaton`]), recompiling onto
    /// [`RoutingKind::Dense`] when the rule set is too entangled for its
    /// global wires. The result says which fabric was used.
    ///
    /// # Errors
    ///
    /// The errors of [`compile`](Self::compile) other than
    /// [`ApError::RoutingInfeasible`].
    pub fn compile_or_dense(
        automaton: &HomogeneousAutomaton,
        backend: ApBackend,
    ) -> Result<RoutedProcessor, ApError> {
        match Self::compile(automaton, backend.clone(), RoutingKind::cache_automaton()) {
            Ok(processor) => Ok(RoutedProcessor { processor, fallback: false }),
            Err(ApError::RoutingInfeasible { .. }) => Ok(RoutedProcessor {
                processor: Self::compile(automaton, backend, RoutingKind::Dense)?,
                fallback: true,
            }),
            Err(e) => Err(e),
        }
    }

    /// Instantiates a multi-stream processor from this compiled
    /// automaton: `streams` fresh lanes over the same shared template —
    /// no matrix, fabric or cost table is copied. The template keeps its
    /// own streaming state; the new processor starts clean.
    pub fn multi_stream(&self, streams: usize) -> MultiStreamProcessor {
        MultiStreamProcessor::from_template(Arc::clone(&self.template), streams)
    }

    /// The backend in use.
    pub fn backend(&self) -> &ApBackend {
        &self.template.backend
    }

    /// Number of STEs occupied.
    pub fn state_count(&self) -> usize {
        self.template.matrices.state_count()
    }

    /// The derived per-cycle cost model.
    pub fn costs(&self) -> &ApCosts {
        &self.template.costs
    }

    /// Routing fabric resource usage.
    pub fn routing_resources(&self) -> crate::RoutingResources {
        self.template.routing.resources()
    }

    /// One-time cost of programming the STE array and routing switches,
    /// paid once however many streams then share the template.
    pub fn configuration_cost(&self) -> ApReport {
        let t = &self.template;
        let ste_bits = t.matrices.v.count_ones();
        let routing_bits = t.matrices.r.count_ones();
        let bits = (ste_bits + routing_bits) as f64;
        // Rows are programmed in parallel across columns: 256 STE rows
        // plus the routing rows.
        let rows = 256 + t.routing.resources().config_bits / self.state_count().max(1);
        ApReport {
            cycles: rows as u64,
            latency: t.costs.config_latency_per_row * rows as f64,
            energy: Joules::new(t.costs.config_energy_per_bit.as_joules() * bits),
        }
    }

    /// Streams an input through the processor.
    ///
    /// Equivalent to [`reset`](Self::reset), one [`feed`](Self::feed)
    /// of the whole input, then [`finish`](Self::finish).
    pub fn run(&mut self, input: &[u8]) -> ApRun {
        self.reset();
        self.feed(input);
        self.finish()
    }

    /// Clears the streaming state: active vector, position, accumulated
    /// report events and energy. The scratch buffers keep their storage.
    pub fn reset(&mut self) {
        self.lane.reset();
    }

    /// Streams one chunk of input through the pipeline, continuing from
    /// the current stream position — the incremental interface for
    /// long-lived connections. Returns the cumulative cost report for
    /// the stream so far; report-event positions are absolute (relative
    /// to the last [`reset`](Self::reset)).
    ///
    /// Feeding a split input chunk by chunk and then calling
    /// [`finish`](Self::finish) yields exactly the [`ApRun`] of a
    /// one-shot [`run`](Self::run) over the concatenation.
    ///
    /// A *dead* stream — empty active vector past position 0 on an
    /// automaton with no `all_input` revival states — degrades to a
    /// per-symbol energy table lookup rather than a full pipeline
    /// cycle, with a report identical to the full loop's.
    ///
    /// # Examples
    ///
    /// ```
    /// use memcim_ap::{ApBackend, AutomataProcessor, RoutingKind};
    /// use memcim_automata::{HomogeneousAutomaton, Regex, StartKind};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let homog = HomogeneousAutomaton::from_nfa(&Regex::parse("ab")?.compile())
    ///     .with_start_kind(StartKind::AllInput);
    /// let mut ap = AutomataProcessor::compile(&homog, ApBackend::rram(), RoutingKind::Dense)?;
    /// let expected = ap.run(b"xabxab");
    ///
    /// ap.reset();
    /// ap.feed(b"xa"); // a chunk may end mid-match…
    /// let report = ap.feed(b"bxab"); // …active state carries across the boundary
    /// assert_eq!(report.cycles, 6, "reports are cumulative over the stream");
    /// assert_eq!(ap.finish(), expected, "chunked ≡ one-shot");
    /// # Ok(())
    /// # }
    /// ```
    pub fn feed(&mut self, chunk: &[u8]) -> ApReport {
        self.lane.feed(&self.template, &mut self.scratch, &mut self.memo, chunk);
        self.lane.report(&self.template.costs)
    }

    /// Ends the stream: returns the cumulative [`ApRun`] since the last
    /// [`reset`](Self::reset) and resets the processor for the next
    /// stream.
    pub fn finish(&mut self) -> ApRun {
        self.lane.finish(&self.template)
    }
}

#[cfg(test)]
impl Template {
    /// The programmed matrices.
    pub(crate) fn matrices(&self) -> &ApMatrices {
        &self.matrices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcim_automata::{Regex, StartKind};

    fn homog(pattern: &str) -> HomogeneousAutomaton {
        HomogeneousAutomaton::from_nfa(&Regex::parse(pattern).expect("parses").compile())
    }

    #[test]
    fn engine_agrees_with_reference_interpreter() {
        let nfa = Regex::parse("(ab|ba)+c?").expect("parses").compile();
        let h = HomogeneousAutomaton::from_nfa(&nfa);
        let mut ap =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        for input in [&b"ab"[..], b"abba", b"abbac", b"ba", b"", b"abc", b"cab"] {
            assert_eq!(ap.run(input).accepted, nfa.accepts(input), "input {input:?}");
        }
    }

    #[test]
    fn report_events_match_scanning_semantics() {
        let h = homog("ab").with_start_kind(StartKind::AllInput);
        let mut ap =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        let run = ap.run(b"xabxab");
        let positions: Vec<usize> = run.accept_events.iter().map(|&(p, _)| p).collect();
        assert_eq!(positions, vec![2, 5]);
    }

    #[test]
    fn feeding_chunks_matches_one_shot_run() {
        let h = homog("ab").with_start_kind(StartKind::AllInput);
        let mut ap =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        let expected = ap.run(b"xabxab");
        ap.reset();
        let mid = ap.feed(b"xa");
        assert_eq!(mid.cycles, 2);
        ap.feed(b"");
        let cumulative = ap.feed(b"bxab");
        assert_eq!(cumulative.cycles, 6);
        assert_eq!(cumulative, expected.report, "cumulative report equals one-shot");
        let streamed = ap.finish();
        assert_eq!(streamed, expected);
        // finish() resets: an immediately finished empty stream is the
        // empty-input run.
        assert_eq!(ap.finish(), ap.run(b""));
    }

    #[test]
    fn dead_stream_early_out_matches_full_pipeline() {
        // Anchored pattern: no `all_input` states, so once the active
        // vector empties past position 0 the stream is dead for good
        // and the bulk early-out engages.
        let h = homog("abc");
        for kind in
            [RoutingKind::Dense, RoutingKind::Hierarchical { block: 4, max_global: 1 << 16 }]
        {
            let mut ap = AutomataProcessor::compile(&h, ApBackend::rram(), kind).expect("maps");
            // Accepts at position 2, dead from position 3 onward.
            let input = b"abcxyzabcabc";
            let expected = ap.run(input);
            assert!(!expected.accepted, "death is permanent without all_input");
            let positions: Vec<usize> = expected.accept_events.iter().map(|&(p, _)| p).collect();
            assert_eq!(positions, vec![2], "the pre-death event survives");

            // Chunked across the death boundary, empty chunks included.
            ap.reset();
            ap.feed(b"abcx");
            ap.feed(&[]);
            let mid = ap.feed(b"yzabc");
            let idle = ap.feed(&[]);
            assert_eq!(idle, mid, "feed(&[]) is a no-op on a dead stream");
            let cumulative = ap.feed(b"abc");
            assert!(
                cumulative.energy.as_joules() > mid.energy.as_joules(),
                "dead symbols still pay STE discharge"
            );
            assert_eq!(ap.finish(), expected, "dead-stream-then-finish ≡ one-shot");

            // Symbol-at-a-time feeding (the dead check runs per call).
            ap.reset();
            for &b in input.iter() {
                ap.feed(std::slice::from_ref(&b));
            }
            assert_eq!(ap.finish(), expected, "per-symbol ≡ one-shot");
        }
    }

    #[test]
    fn costs_accumulate_per_symbol() {
        let h = homog("abc+");
        let mut ap =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        let short = ap.run(b"abc");
        let long = ap.run(b"abcccccccc");
        assert_eq!(short.report.cycles, 3);
        assert_eq!(long.report.cycles, 10);
        assert!(long.report.latency.as_seconds() > short.report.latency.as_seconds());
        assert!(long.report.energy.as_joules() > short.report.energy.as_joules());
        assert!(short.report.energy_per_symbol().as_joules() > 0.0);
    }

    #[test]
    fn rram_outruns_sram_on_the_same_automaton() {
        let h = homog("(GET|POST) /[a-z]+");
        let input = b"GET /abcdefgh".repeat(8);
        let mut rram =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        let mut sram =
            AutomataProcessor::compile(&h, ApBackend::sram(), RoutingKind::Dense).expect("maps");
        let rr = rram.run(&input);
        let sr = sram.run(&input);
        assert_eq!(rr.accepted, sr.accepted, "functionality is substrate-independent");
        assert!(rr.report.latency.as_seconds() < sr.report.latency.as_seconds());
        assert!(rr.report.energy.as_joules() < sr.report.energy.as_joules());
    }

    #[test]
    fn hierarchical_routing_preserves_behaviour() {
        let h = homog("a(b|c)*d{2,3}");
        let inputs: Vec<&[u8]> = vec![b"abd", b"abcdd", b"addd", b"abcbcbddd", b"ad"];
        let mut dense =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("dense");
        let mut hier = AutomataProcessor::compile(
            &h,
            ApBackend::rram(),
            RoutingKind::Hierarchical { block: 4, max_global: 4096 },
        )
        .expect("hier");
        for input in inputs {
            assert_eq!(dense.run(input).accepted, hier.run(input).accepted, "{input:?}");
        }
        assert!(hier.routing_resources().config_bits <= dense.routing_resources().config_bits);
    }

    #[test]
    fn capacity_and_emptiness_are_enforced() {
        let h = homog("abc");
        let tiny = ApBackend { capacity: 1, ..ApBackend::rram() };
        assert!(matches!(
            AutomataProcessor::compile(&h, tiny, RoutingKind::Dense),
            Err(ApError::CapacityExceeded { .. })
        ));
        let empty = HomogeneousAutomaton::from_nfa(&{
            let mut n = memcim_automata::Nfa::new();
            let s = n.add_state();
            n.add_start(s);
            n
        });
        assert!(matches!(
            AutomataProcessor::compile(&empty, ApBackend::rram(), RoutingKind::Dense),
            Err(ApError::EmptyAutomaton)
        ));
    }

    #[test]
    fn configuration_cost_is_nonzero_and_backend_dependent() {
        let h = homog("(a|b|c|d)+x");
        let rram = AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense)
            .expect("maps")
            .configuration_cost();
        let sram = AutomataProcessor::compile(&h, ApBackend::sram(), RoutingKind::Dense)
            .expect("maps")
            .configuration_cost();
        assert!(rram.energy.as_joules() > 0.0);
        // The RRAM drawback: configuration is slower and hungrier.
        assert!(rram.energy.as_joules() > sram.energy.as_joules());
        assert!(rram.latency.as_seconds() > sram.latency.as_seconds());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use memcim_automata::Regex;
    use proptest::prelude::*;

    fn pattern_strategy() -> impl Strategy<Value = String> {
        let leaf = prop_oneof![
            Just("a".to_string()),
            Just("b".to_string()),
            Just("[ab]".to_string()),
            Just(".".to_string()),
        ];
        leaf.prop_recursive(3, 12, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a}{b}")),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}|{b})")),
                inner.prop_map(|a| format!("({a})*")),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The hardware engine (both routings, any backend) equals the
        /// reference NFA interpreter on random patterns and inputs.
        #[test]
        fn hardware_equals_reference(
            pattern in pattern_strategy(),
            input in proptest::collection::vec(b'a'..=b'c', 0..12),
        ) {
            let nfa = Regex::parse(&pattern).expect("generated").compile();
            let h = HomogeneousAutomaton::from_nfa(&nfa);
            if h.state_count() == 0 {
                // Language is {ε} or ∅ at the hardware level.
                return Ok(());
            }
            let expected = nfa.accepts(&input);
            for kind in [RoutingKind::Dense, RoutingKind::Hierarchical { block: 8, max_global: 1 << 16 }] {
                let mut ap = AutomataProcessor::compile(&h, ApBackend::rram(), kind)
                    .expect("maps");
                prop_assert_eq!(ap.run(&input).accepted, expected,
                    "pattern {} input {:?}", pattern.clone(), input.clone());
            }
        }

        /// Feeding any chunking of an input equals the one-shot run —
        /// events, acceptance and cost report alike — on both fabrics
        /// and both start kinds, with state correctly carried across
        /// chunk boundaries and across consecutive streams on one
        /// processor. The anchored (`StartOfInput`) variant drives the
        /// dead-stream early-out: most random inputs kill an anchored
        /// automaton mid-stream, so the bulk path must report exactly
        /// like the full pipeline across arbitrary cut points.
        #[test]
        fn chunked_feed_equals_one_shot_run(
            pattern in pattern_strategy(),
            input in proptest::collection::vec(b'a'..=b'c', 0..24),
            cuts in proptest::collection::vec(0usize..24, 0..5),
        ) {
            let nfa = Regex::parse(&pattern).expect("generated").compile();
            let base = HomogeneousAutomaton::from_nfa(&nfa);
            if base.state_count() == 0 {
                return Ok(());
            }
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (input.len() + 1)).collect();
            bounds.push(0);
            bounds.push(input.len());
            bounds.sort_unstable();
            for start in [
                memcim_automata::StartKind::StartOfInput,
                memcim_automata::StartKind::AllInput,
            ] {
                let h = base.clone().with_start_kind(start);
                for kind in [RoutingKind::Dense, RoutingKind::Hierarchical { block: 8, max_global: 1 << 16 }] {
                    let mut ap = AutomataProcessor::compile(&h, ApBackend::rram(), kind)
                        .expect("maps");
                    let expected = ap.run(&input);
                    for window in bounds.windows(2) {
                        ap.feed(&input[window[0]..window[1]]);
                    }
                    let streamed = ap.finish();
                    prop_assert_eq!(&streamed, &expected,
                        "pattern {} input {:?} cuts {:?} start {:?}", pattern.clone(),
                        input.clone(), bounds.clone(), start);
                }
            }
        }
    }
}
