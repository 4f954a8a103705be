//! Multi-stream AP execution: N independent input streams through one
//! compiled automaton.
//!
//! The Micron AP and the Cache Automaton both amortize one compiled
//! automaton across many concurrent inputs: the configuration cost is
//! paid once. The [`MultiStreamProcessor`] models that. Its lanes share
//! one configuration and one compiled template — matrices, routing
//! fabric and cost model behind a single `Arc`, plus one follow scratch
//! and one transition memo — and each lane holds only its stream state.
//!
//! Every lane runs the same per-symbol kernel as
//! [`AutomataProcessor`], so per lane the result is **bit-for-bit
//! identical** to [`AutomataProcessor::feed`] — property-tested in this
//! module. [`feed_many`] feeds the lanes one after another; what they
//! share per symbol is the transition memo. A step one lane computed —
//! next active set, routing popcount, accept states for an (active set,
//! symbol class) pair — is replayed for every lane that reaches the
//! same pair, so lanes scanning similar traffic warm the memo for each
//! other. The memo starts empty with each processor (a served session
//! stamps a fresh one) and is allocated on the first feed.
//!
//! [`AutomataProcessor`]: crate::AutomataProcessor
//! [`AutomataProcessor::feed`]: crate::AutomataProcessor::feed
//! [`feed_many`]: MultiStreamProcessor::feed_many

use crate::engine::{ApReport, ApRun, Lane, Template};
use crate::memo::Memo;
use crate::routing::FollowScratch;
use crate::{ApBackend, ApError, RoutingKind};
use memcim_automata::HomogeneousAutomaton;
use std::sync::Arc;

/// N independent input streams driven through one compiled automaton.
///
/// Obtain one from [`compile`](Self::compile) or instantiate it from an
/// already-compiled single-stream template with
/// [`AutomataProcessor::multi_stream`]. Streams are addressed by lane
/// index `0..streams()`; each lane is an independent stream with the
/// exact semantics of a dedicated [`AutomataProcessor`].
///
/// [`AutomataProcessor`]: crate::AutomataProcessor
/// [`AutomataProcessor::multi_stream`]: crate::AutomataProcessor::multi_stream
///
/// # Examples
///
/// ```
/// use memcim_ap::{ApBackend, MultiStreamProcessor, RoutingKind};
/// use memcim_automata::{HomogeneousAutomaton, Regex, StartKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let homog = HomogeneousAutomaton::from_nfa(&Regex::parse("ab")?.compile())
///     .with_start_kind(StartKind::AllInput);
/// let mut multi =
///     MultiStreamProcessor::compile(&homog, ApBackend::rram(), RoutingKind::Dense, 2)?;
/// let reports = multi.feed_many(&[&b"xxab"[..], b"abab"]);
/// assert_eq!(reports[0].cycles, 4);
/// let runs = multi.finish_all();
/// assert_eq!(runs[0].accept_events, vec![(3, runs[0].accept_events[0].1)]);
/// assert_eq!(runs[1].accept_events.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiStreamProcessor {
    template: Arc<Template>,
    /// One scratch serves every lane: `follow_into` leaves no state
    /// behind in it, so lanes can share it without cross-talk.
    scratch: FollowScratch,
    /// One transition memo serves every lane: it caches steps of the
    /// shared template, not of any one stream.
    memo: Memo,
    lanes: Vec<Lane>,
    /// Monotonic lifetime totals across all lanes — never reset by
    /// per-lane [`finish`](Self::finish), so a billing layer can take
    /// watermark deltas without tracking individual stream lifecycles.
    total_cycles: u64,
    total_energy: f64,
}

impl MultiStreamProcessor {
    /// Maps an automaton onto a backend with `streams` independent
    /// stream lanes.
    ///
    /// # Errors
    ///
    /// Exactly the errors of
    /// [`AutomataProcessor::compile`](crate::AutomataProcessor::compile).
    pub fn compile(
        automaton: &HomogeneousAutomaton,
        backend: ApBackend,
        routing: RoutingKind,
        streams: usize,
    ) -> Result<Self, ApError> {
        Ok(Self::from_template(Template::compile(automaton, backend, routing)?, streams))
    }

    pub(crate) fn from_template(template: Arc<Template>, streams: usize) -> Self {
        Self {
            scratch: template.routing.scratch(),
            memo: Memo::new(),
            lanes: (0..streams.max(1)).map(|_| template.lane()).collect(),
            template,
            total_cycles: 0,
            total_energy: 0.0,
        }
    }

    /// Number of stream lanes.
    pub fn streams(&self) -> usize {
        self.lanes.len()
    }

    /// Grows the processor to at least `streams` lanes (new lanes start
    /// as fresh streams). Never shrinks — lane indices stay stable.
    pub fn ensure_streams(&mut self, streams: usize) {
        while self.lanes.len() < streams {
            self.lanes.push(self.template.lane());
        }
    }

    /// Streams one chunk through lane `stream`, continuing from that
    /// stream's current position. Returns the lane's cumulative cost
    /// report, exactly as
    /// [`AutomataProcessor::feed`](crate::AutomataProcessor::feed) would.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::UnknownStream`] for an out-of-range lane.
    pub fn feed(&mut self, stream: usize, chunk: &[u8]) -> Result<ApReport, ApError> {
        let streams = self.lanes.len();
        if stream >= streams {
            return Err(ApError::UnknownStream { stream, streams });
        }
        Ok(self.feed_lane(stream, chunk))
    }

    /// Feeds `chunks[i]` to lane `i` — the batch interface. Lanes are
    /// grown on demand to `chunks.len()` and fed one after another,
    /// sharing the processor's transition memo. Returns each lane's
    /// cumulative report, in lane order.
    pub fn feed_many<C: AsRef<[u8]>>(&mut self, chunks: &[C]) -> Vec<ApReport> {
        self.ensure_streams(chunks.len());
        chunks.iter().enumerate().map(|(l, chunk)| self.feed_lane(l, chunk.as_ref())).collect()
    }

    /// Runs the lane kernel on lane `l` and adds the lane's delta to the
    /// lifetime totals.
    fn feed_lane(&mut self, l: usize, chunk: &[u8]) -> ApReport {
        let lane = &mut self.lanes[l];
        let (e0, p0) = (lane.energy, lane.pos);
        lane.feed(&self.template, &mut self.scratch, &mut self.memo, chunk);
        self.total_cycles += lane.pos - p0;
        self.total_energy += lane.energy - e0;
        lane.report(&self.template.costs)
    }

    /// The cumulative cost report of one lane's stream so far.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::UnknownStream`] for an out-of-range lane.
    pub fn report(&self, stream: usize) -> Result<ApReport, ApError> {
        let lane = self
            .lanes
            .get(stream)
            .ok_or(ApError::UnknownStream { stream, streams: self.lanes.len() })?;
        Ok(lane.report(&self.template.costs))
    }

    /// Ends lane `stream`'s current stream: returns its cumulative
    /// [`ApRun`] and resets the lane for its next stream. Other lanes
    /// are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::UnknownStream`] for an out-of-range lane.
    pub fn finish(&mut self, stream: usize) -> Result<ApRun, ApError> {
        let streams = self.lanes.len();
        let lane = self.lanes.get_mut(stream).ok_or(ApError::UnknownStream { stream, streams })?;
        Ok(lane.finish(&self.template))
    }

    /// Ends every lane's stream, returning the runs in lane order.
    pub fn finish_all(&mut self) -> Vec<ApRun> {
        self.lanes.iter_mut().map(|lane| lane.finish(&self.template)).collect()
    }

    /// Monotonic lifetime totals over all lanes: cycles executed and
    /// energy dissipated since construction, never reset by
    /// [`finish`](Self::finish). Billing layers take watermark deltas
    /// of this instead of chasing per-stream cumulative reports.
    pub fn billing_report(&self) -> ApReport {
        ApReport::streamed(&self.template.costs, self.total_cycles, self.total_energy)
    }
}

#[cfg(test)]
impl MultiStreamProcessor {
    /// Swaps in `memo` for the production one.
    pub(crate) fn with_memo(mut self, memo: Memo) -> Self {
        self.memo = memo;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AutomataProcessor;
    use memcim_automata::{Regex, StartKind};

    fn homog(pattern: &str) -> HomogeneousAutomaton {
        HomogeneousAutomaton::from_nfa(&Regex::parse(pattern).expect("parses").compile())
    }

    #[test]
    fn lanes_are_independent_streams() {
        let h = homog("ab").with_start_kind(StartKind::AllInput);
        let mut multi = MultiStreamProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense, 3)
            .expect("maps");
        let mut single =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        let inputs: [&[u8]; 3] = [b"xxabxx", b"ababab", b"nomatch"];
        let reports = multi.feed_many(&inputs);
        for (l, input) in inputs.iter().enumerate() {
            single.reset();
            let expected = single.feed(input);
            assert_eq!(reports[l], expected, "lane {l} cumulative report");
            assert_eq!(multi.finish(l).expect("lane exists"), single.finish(), "lane {l} run");
        }
    }

    #[test]
    fn chunked_lane_feeds_interleave() {
        let h = homog("abc").with_start_kind(StartKind::AllInput);
        let mut multi = MultiStreamProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense, 2)
            .expect("maps");
        let mut single =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        // Interleaved chunk feeds: lane state carries across batches.
        multi.feed_many(&[&b"ab"[..], b"a"]);
        multi.feed_many(&[&b"c"[..], b"bc"]);
        let runs = multi.finish_all();
        assert_eq!(runs[0], single.run(b"abc"));
        assert_eq!(runs[1], single.run(b"abc"));
    }

    #[test]
    fn unknown_stream_is_a_typed_error() {
        let h = homog("a");
        let mut multi = MultiStreamProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense, 2)
            .expect("maps");
        assert!(matches!(
            multi.feed(5, b"a"),
            Err(ApError::UnknownStream { stream: 5, streams: 2 })
        ));
        assert!(matches!(multi.finish(2), Err(ApError::UnknownStream { .. })));
        assert!(multi.report(1).is_ok());
    }

    #[test]
    fn ensure_streams_grows_and_feed_many_autovivifies() {
        let h = homog("a");
        let mut multi = MultiStreamProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense, 1)
            .expect("maps");
        assert_eq!(multi.streams(), 1);
        let reports = multi.feed_many(&[&b"a"[..], b"aa", b"aaa"]);
        assert_eq!(multi.streams(), 3);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[2].cycles, 3);
        multi.ensure_streams(2);
        assert_eq!(multi.streams(), 3, "never shrinks");
    }

    #[test]
    fn billing_totals_are_monotonic_across_finish() {
        let h = homog("ab").with_start_kind(StartKind::AllInput);
        let mut multi = MultiStreamProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense, 2)
            .expect("maps");
        multi.feed_many(&[&b"abab"[..], b"xxxx"]);
        let before = multi.billing_report();
        assert_eq!(before.cycles, 8);
        multi.finish_all();
        let after = multi.billing_report();
        assert_eq!(after, before, "finish does not reset billing totals");
        multi.feed(0, b"ab").expect("lane 0");
        assert_eq!(multi.billing_report().cycles, 10);
        assert!(multi.billing_report().energy.as_joules() > after.energy.as_joules());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::AutomataProcessor;
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
        /// Multi-stream execution is bit-identical to N sequential
        /// single-stream runs: accept events, acceptance, per-stream
        /// cumulative reports and exact `f64` energy sums — across both
        /// fabrics, both start kinds, and arbitrary per-lane chunkings
        /// interleaved between lanes.
        #[test]
        fn multi_stream_equals_sequential_single_streams(
            pattern in pattern_strategy(),
            inputs in proptest::collection::vec(
                proptest::collection::vec(b'a'..=b'c', 0..16),
                1..6,
            ),
            cuts in proptest::collection::vec(0usize..16, 0..4),
            start_anchored in any::<bool>(),
        ) {
            let nfa = Regex::parse(&pattern).expect("generated").compile();
            let base = HomogeneousAutomaton::from_nfa(&nfa);
            if base.state_count() == 0 {
                return Ok(());
            }
            let start = if start_anchored {
                memcim_automata::StartKind::StartOfInput
            } else {
                memcim_automata::StartKind::AllInput
            };
            let h = base.with_start_kind(start);
            for kind in [
                RoutingKind::Dense,
                RoutingKind::Hierarchical { block: 8, max_global: 1 << 16 },
                RoutingKind::Hierarchical { block: 64, max_global: 1 << 16 },
            ] {
                let mut single = AutomataProcessor::compile(&h, ApBackend::rram(), kind)
                    .expect("maps");
                let mut multi = MultiStreamProcessor::compile(
                    &h, ApBackend::rram(), kind, inputs.len(),
                ).expect("maps");

                // Derive a per-lane chunking from the shared cut points,
                // offset per lane so lanes split differently.
                let rounds = cuts.len() + 1;
                let chunkings: Vec<Vec<&[u8]>> = inputs
                    .iter()
                    .enumerate()
                    .map(|(l, input)| {
                        let mut b: Vec<usize> =
                            cuts.iter().map(|&c| (c + l) % (input.len() + 1)).collect();
                        b.push(input.len());
                        b.sort_unstable();
                        let mut chunks: Vec<&[u8]> = Vec::new();
                        let mut prev = 0usize;
                        for &c in &b {
                            chunks.push(&input[prev..c]);
                            prev = c;
                        }
                        chunks.resize(rounds, &[]);
                        chunks
                    })
                    .collect();

                // Genuinely interleaved: round r sends every lane its
                // r-th chunk before any lane sees round r+1.
                for r in 0..rounds {
                    for (l, chunks) in chunkings.iter().enumerate() {
                        multi.feed(l, chunks[r]).expect("lane exists");
                    }
                }

                // Single-stream reference per lane, fed the same
                // chunking on a dedicated processor.
                let mut expected_energy_sum = 0.0f64;
                for (l, chunks) in chunkings.iter().enumerate() {
                    single.reset();
                    for chunk in chunks {
                        single.feed(chunk);
                    }
                    let expected = single.finish();
                    expected_energy_sum += expected.report.energy.as_joules();
                    let report = multi.report(l).expect("lane exists");
                    prop_assert_eq!(&report, &expected.report,
                        "pattern {} lane {} kind {:?} start {:?} cumulative report",
                        pattern.clone(), l, kind, start);
                    let run = multi.finish(l).expect("lane exists");
                    prop_assert_eq!(&run, &expected,
                        "pattern {} lane {} kind {:?} start {:?}",
                        pattern.clone(), l, kind, start);
                }
                // Lifetime energy equals the exact sum of lane deltas.
                let billing = multi.billing_report();
                prop_assert!(
                    (billing.energy.as_joules() - expected_energy_sum).abs()
                        <= expected_energy_sum.abs() * 1e-12 + f64::MIN_POSITIVE,
                    "billing energy {} vs sum {}",
                    billing.energy.as_joules(), expected_energy_sum,
                );
            }
        }

        /// `feed_many` batches equal the same feeds issued lane by lane.
        #[test]
        fn feed_many_equals_per_lane_feeds(
            pattern in pattern_strategy(),
            inputs in proptest::collection::vec(
                proptest::collection::vec(b'a'..=b'c', 0..12),
                1..5,
            ),
        ) {
            let nfa = Regex::parse(&pattern).expect("generated").compile();
            let base = HomogeneousAutomaton::from_nfa(&nfa)
                .with_start_kind(memcim_automata::StartKind::AllInput);
            if base.state_count() == 0 {
                return Ok(());
            }
            let kind = RoutingKind::Hierarchical { block: 64, max_global: 1 << 16 };
            let mut batched = MultiStreamProcessor::compile(
                &base, ApBackend::rram(), kind, inputs.len(),
            ).expect("maps");
            let mut lane_by_lane = batched.clone();
            let batch_reports = batched.feed_many(&inputs);
            for (l, input) in inputs.iter().enumerate() {
                let report = lane_by_lane.feed(l, input).expect("lane exists");
                prop_assert_eq!(&batch_reports[l], &report);
            }
            prop_assert_eq!(batched.finish_all(), lane_by_lane.finish_all());
            prop_assert_eq!(batched.billing_report(), lane_by_lane.billing_report());
        }
    }
}
