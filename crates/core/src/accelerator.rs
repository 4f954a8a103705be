//! High-level facade: regex rule sets on the RRAM automata processor.

use memcim_ap::{ApBackend, ApReport, AutomataProcessor};
use memcim_automata::{PatternSet, StartKind};
use std::collections::HashMap;
use std::error::Error;

/// The result of scanning one input through a [`RegexAccelerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutcome {
    /// `(end position, pattern index)` for every report event.
    pub matches: Vec<(usize, usize)>,
    /// Input length scanned.
    pub symbols: u64,
    /// Latency/energy summary from the hardware cost model.
    pub report: ApReport,
}

impl ScanOutcome {
    /// The distinct patterns that matched, ascending.
    pub fn matched_patterns(&self) -> Vec<usize> {
        let mut pats: Vec<usize> = self.matches.iter().map(|&(_, p)| p).collect();
        pats.sort_unstable();
        pats.dedup();
        pats
    }
}

/// A compiled multi-pattern scanner running on an automata-processor
/// backend — the end-to-end RRAM-AP pipeline of the paper's Section IV
/// behind one type.
///
/// Patterns are compiled to a union NFA, converted to a homogeneous
/// automaton with all-input (unanchored) start states, and mapped onto
/// the backend with hierarchical routing (falling back to dense when the
/// global-wire budget is exceeded).
///
/// See the [crate-level quick start](crate).
#[derive(Debug)]
pub struct RegexAccelerator {
    processor: AutomataProcessor,
    owner_of_state: HashMap<usize, usize>,
    pattern_count: usize,
}

impl RegexAccelerator {
    /// Compiles a rule set onto the RRAM backend.
    ///
    /// # Errors
    ///
    /// Propagates pattern-parse errors and hardware mapping failures.
    pub fn rram(patterns: &[&str]) -> Result<Self, Box<dyn Error + Send + Sync>> {
        Self::on_backend(patterns, ApBackend::rram())
    }

    /// Compiles a rule set onto an explicit backend.
    ///
    /// # Errors
    ///
    /// Propagates pattern-parse errors and hardware mapping failures.
    pub fn on_backend(
        patterns: &[&str],
        backend: ApBackend,
    ) -> Result<Self, Box<dyn Error + Send + Sync>> {
        let set = PatternSet::compile(patterns)?;
        let (homog, owner_of_state) = set.to_homogeneous();
        let homog = homog.with_start_kind(StartKind::AllInput);
        let processor = AutomataProcessor::compile_or_dense(&homog, backend)?.processor;
        Ok(Self { processor, owner_of_state, pattern_count: patterns.len() })
    }

    /// Number of compiled patterns.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// STEs occupied on the device.
    pub fn state_count(&self) -> usize {
        self.processor.state_count()
    }

    /// The underlying processor (cost model, routing resources, …).
    pub fn processor(&self) -> &AutomataProcessor {
        &self.processor
    }

    /// Scans an input, attributing every report event to its pattern.
    pub fn scan(&mut self, input: &[u8]) -> ScanOutcome {
        let run = self.processor.run(input);
        let matches = run
            .accept_events
            .iter()
            .filter_map(|&(pos, state)| self.owner_of_state.get(&state).map(|&p| (pos, p)))
            .collect();
        ScanOutcome { matches, symbols: run.symbols, report: run.report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcim_ap::{ApError, RoutingKind};

    #[test]
    fn end_to_end_rule_matching() {
        let mut accel = RegexAccelerator::rram(&["abc", "x+y"]).expect("compiles");
        let outcome = accel.scan(b"zzabczzxxxyzz");
        assert_eq!(accel.pattern_count(), 2);
        assert_eq!(outcome.matched_patterns(), vec![0, 1]);
        // abc ends at index 4; xxy ends at index 10.
        assert!(outcome.matches.contains(&(4, 0)));
        assert!(outcome.matches.contains(&(10, 1)));
        assert!(outcome.report.energy.as_joules() > 0.0);
    }

    #[test]
    fn no_match_produces_costs_but_no_events() {
        let mut accel = RegexAccelerator::rram(&["needle"]).expect("compiles");
        let outcome = accel.scan(b"haystack haystack");
        assert!(outcome.matches.is_empty());
        assert_eq!(outcome.symbols, 17);
        assert!(outcome.report.latency.as_seconds() > 0.0);
    }

    #[test]
    fn bad_pattern_surfaces_the_parse_error() {
        let err = RegexAccelerator::rram(&["a(b"]).expect_err("unbalanced");
        assert!(err.to_string().contains("parse"));
    }

    #[test]
    fn backend_choice_changes_cost_not_semantics() {
        let input = b"GET /abc GET /def".repeat(4);
        let mut rram = RegexAccelerator::rram(&["GET /[a-z]+"]).expect("rram");
        let mut sram =
            RegexAccelerator::on_backend(&["GET /[a-z]+"], ApBackend::sram()).expect("sram");
        let r = rram.scan(&input);
        let s = sram.scan(&input);
        assert_eq!(r.matches, s.matches);
        assert!(r.report.energy.as_joules() < s.report.energy.as_joules());
    }

    /// A `+`-looped 40-way alternation wires every alternative's tail to
    /// every alternative's head: more global wires at block 256 than the
    /// Cache Automaton's 1024.
    fn routing_infeasible_pattern() -> String {
        let alts: Vec<String> = (0..40)
            .map(|i: usize| {
                format!(
                    "{}{}{}{}{}",
                    (b'a' + (i % 26) as u8) as char,
                    (b'a' + (i / 26) as u8) as char,
                    (b'0' + (i % 10) as u8) as char,
                    (b'a' + ((i * 7) % 26) as u8) as char,
                    (b'a' + ((i * 3) % 26) as u8) as char
                )
            })
            .collect();
        format!("({})+x", alts.join("|"))
    }

    #[test]
    fn routing_infeasible_rule_sets_scan_like_a_dense_compile() {
        let big = routing_infeasible_pattern();
        let patterns = [big.as_str(), "abc"];
        let mut accel = RegexAccelerator::rram(&patterns).expect("falls back to dense");

        let (homog, owner_of_state) =
            PatternSet::compile(&patterns).expect("parses").to_homogeneous();
        let homog = homog.with_start_kind(StartKind::AllInput);
        assert!(
            matches!(
                AutomataProcessor::compile(
                    &homog,
                    ApBackend::rram(),
                    RoutingKind::cache_automaton()
                ),
                Err(ApError::RoutingInfeasible { .. })
            ),
            "the rule set must not fit the hierarchical fabric"
        );
        let mut dense = AutomataProcessor::compile(&homog, ApBackend::rram(), RoutingKind::Dense)
            .expect("dense");

        let input = b"zaa0aaba1hdxq abc aa0aax";
        let outcome = accel.scan(input);
        let run = dense.run(input);
        let expected: Vec<(usize, usize)> = run
            .accept_events
            .iter()
            .filter_map(|&(pos, state)| owner_of_state.get(&state).map(|&p| (pos, p)))
            .collect();
        assert_eq!(outcome.matched_patterns(), vec![0, 1]);
        assert_eq!(outcome.matches, expected);
        assert_eq!(outcome.report, run.report);
    }
}
