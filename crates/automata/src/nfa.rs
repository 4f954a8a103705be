//! Nondeterministic finite automata with symbol-class transitions.

use crate::SymbolClass;

/// Index of a state within an [`Nfa`].
pub type StateId = usize;

/// A match event: an accept state was active right after consuming the
/// symbol at `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatchEvent {
    /// Index (into the input) of the symbol that completed the match.
    pub end: usize,
    /// The accepting state that fired.
    pub state: StateId,
}

#[derive(Debug, Clone, Default)]
struct State {
    transitions: Vec<(SymbolClass, StateId)>,
    accept: bool,
}

/// A nondeterministic finite automaton `(Q, Σ, δ, q₀, C)` over bytes,
/// with ε-free symbol-class transitions (Section IV.A of the paper).
///
/// The set-based interpreter here is the *reference semantics* that the
/// bit-parallel homogeneous simulator and the hardware AP model are
/// differentially tested against.
///
/// # Examples
///
/// The paper's Fig. 5a example:
///
/// ```
/// use memcim_automata::{Nfa, SymbolClass};
///
/// let mut nfa = Nfa::new();
/// let s1 = nfa.add_state();
/// let s2 = nfa.add_state();
/// let s3 = nfa.add_state();
/// nfa.add_start(s1);
/// nfa.set_accept(s3, true);
/// nfa.add_transition(s1, SymbolClass::from_bytes(b"abc"), s1);
/// nfa.add_transition(s1, SymbolClass::of(b'c'), s2);
/// nfa.add_transition(s1, SymbolClass::of(b'b'), s3);
/// nfa.add_transition(s2, SymbolClass::of(b'b'), s3);
/// assert!(nfa.accepts(b"ab"));
/// assert!(nfa.accepts(b"acb"));
/// assert!(!nfa.accepts(b"ac"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Nfa {
    states: Vec<State>,
    starts: Vec<StateId>,
}

impl Nfa {
    /// Creates an empty automaton (no states).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state, returning its id.
    pub fn add_state(&mut self) -> StateId {
        self.states.push(State::default());
        self.states.len() - 1
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Adds a transition `from --class--> to`.
    ///
    /// # Panics
    ///
    /// Panics if either state id is out of range.
    pub fn add_transition(&mut self, from: StateId, class: SymbolClass, to: StateId) {
        assert!(to < self.states.len(), "target state {to} does not exist");
        self.states[from].transitions.push((class, to));
    }

    /// Marks a start state. `q₀` may be a set, e.g. in a union of
    /// automata; [`Regex::compile`](crate::Regex::compile) yields a
    /// single start state.
    ///
    /// # Panics
    ///
    /// Panics if the state id is out of range.
    pub fn add_start(&mut self, state: StateId) {
        assert!(state < self.states.len(), "state {state} does not exist");
        if !self.starts.contains(&state) {
            self.starts.push(state);
        }
    }

    /// Marks or unmarks an accepting state.
    ///
    /// # Panics
    ///
    /// Panics if the state id is out of range.
    pub fn set_accept(&mut self, state: StateId, accept: bool) {
        self.states[state].accept = accept;
    }

    /// Whether a state accepts.
    pub fn is_accept(&self, state: StateId) -> bool {
        self.states[state].accept
    }

    /// The start states.
    pub fn starts(&self) -> &[StateId] {
        &self.starts
    }

    /// Iterates a state's outgoing transitions.
    pub fn transitions(&self, state: StateId) -> impl Iterator<Item = &(SymbolClass, StateId)> {
        self.states[state].transitions.iter()
    }

    /// Total transition count (for sizing reports).
    pub fn transition_count(&self) -> usize {
        self.states.iter().map(|s| s.transitions.len()).sum()
    }

    /// `true` if the empty input is accepted (a start state accepts).
    pub fn accepts_empty(&self) -> bool {
        self.starts.iter().any(|&s| self.states[s].accept)
    }

    /// Anchored acceptance: does the automaton accept exactly `input`?
    pub fn accepts(&self, input: &[u8]) -> bool {
        if input.is_empty() {
            return self.accepts_empty();
        }
        let mut frontier: Vec<StateId> = self.starts.clone();
        for &byte in input {
            let mut next_active = vec![false; self.states.len()];
            let mut next_frontier = Vec::new();
            for &p in &frontier {
                for &(class, q) in &self.states[p].transitions {
                    if class.contains(byte) && !next_active[q] {
                        next_active[q] = true;
                        next_frontier.push(q);
                    }
                }
            }
            frontier = next_frontier;
            if frontier.is_empty() {
                return false;
            }
        }
        frontier.iter().any(|&s| self.states[s].accept)
    }

    /// Unanchored scan: start states are re-seeded at every position, and
    /// every accept-state activation is reported (AP-style match events).
    ///
    /// Events come in ascending `end` order; events sharing one `end` come
    /// in no specified order.
    pub fn scan(&self, input: &[u8]) -> Vec<MatchEvent> {
        let mut events = Vec::new();
        let mut frontier: Vec<StateId> = self.starts.clone();
        for (pos, &byte) in input.iter().enumerate() {
            let mut next_active = vec![false; self.states.len()];
            let mut next_frontier = Vec::new();
            for &p in &frontier {
                for &(class, q) in &self.states[p].transitions {
                    if class.contains(byte) && !next_active[q] {
                        next_active[q] = true;
                        next_frontier.push(q);
                    }
                }
            }
            // Re-seed starts (unanchored semantics).
            for &s in &self.starts {
                if !next_active[s] {
                    next_active[s] = true;
                    next_frontier.push(s);
                }
            }
            for &q in &next_frontier {
                if self.states[q].accept {
                    events.push(MatchEvent { end: pos, state: q });
                }
            }
            frontier = next_frontier;
        }
        events
    }

    /// Builds the union of several automata, re-numbering states.
    /// Returns the union together with, per input machine, the mapping
    /// from its old state ids to new ids.
    pub fn union<'a, I>(machines: I) -> (Nfa, Vec<Vec<StateId>>)
    where
        I: IntoIterator<Item = &'a Nfa>,
    {
        let mut out = Nfa::new();
        let mut maps = Vec::new();
        for m in machines {
            let map: Vec<StateId> = (0..m.state_count()).map(|_| out.add_state()).collect();
            for (old, &new) in map.iter().enumerate() {
                out.states[new].accept = m.states[old].accept;
                for &(class, to) in &m.states[old].transitions {
                    out.add_transition(new, class, map[to]);
                }
            }
            for &s in &m.starts {
                out.add_start(map[s]);
            }
            maps.push(map);
        }
        (out, maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 5a NFA.
    fn paper_nfa() -> Nfa {
        let mut nfa = Nfa::new();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        let s3 = nfa.add_state();
        nfa.add_start(s1);
        nfa.set_accept(s3, true);
        nfa.add_transition(s1, SymbolClass::from_bytes(b"abc"), s1);
        nfa.add_transition(s1, SymbolClass::of(b'c'), s2);
        nfa.add_transition(s1, SymbolClass::of(b'b'), s3);
        nfa.add_transition(s2, SymbolClass::of(b'b'), s3);
        nfa
    }

    #[test]
    fn paper_example_acceptance() {
        let nfa = paper_nfa();
        assert!(nfa.accepts(b"b"));
        assert!(nfa.accepts(b"ab"));
        assert!(nfa.accepts(b"cb"));
        assert!(nfa.accepts(b"aacb"));
        assert!(!nfa.accepts(b"a"));
        assert!(!nfa.accepts(b"ba"));
        assert!(!nfa.accepts(b""));
    }

    #[test]
    fn dead_input_short_circuits() {
        let nfa = paper_nfa();
        assert!(!nfa.accepts(b"zzzzb"));
    }

    #[test]
    fn scan_reports_every_match_end() {
        let nfa = paper_nfa();
        // In "abcb": matches end wherever S3 activates. S3 activates after
        // any 'b' reachable from an active S1/S2.
        let ends: Vec<usize> = nfa.scan(b"abcb").iter().map(|e| e.end).collect();
        assert!(ends.contains(&1), "ab ends at 1");
        assert!(ends.contains(&3), "…cb ends at 3");
    }

    #[test]
    fn empty_input_matches_only_accepting_starts() {
        let mut nfa = Nfa::new();
        let s = nfa.add_state();
        nfa.add_start(s);
        assert!(!nfa.accepts(b""));
        nfa.set_accept(s, true);
        assert!(nfa.accepts(b""));
        assert!(nfa.accepts_empty());
    }

    #[test]
    fn union_preserves_both_languages() {
        let a = {
            let mut n = Nfa::new();
            let s0 = n.add_state();
            let s1 = n.add_state();
            n.add_start(s0);
            n.set_accept(s1, true);
            n.add_transition(s0, SymbolClass::of(b'x'), s1);
            n
        };
        let b = {
            let mut n = Nfa::new();
            let s0 = n.add_state();
            let s1 = n.add_state();
            n.add_start(s0);
            n.set_accept(s1, true);
            n.add_transition(s0, SymbolClass::of(b'y'), s1);
            n
        };
        let (u, maps) = Nfa::union([&a, &b]);
        assert!(u.accepts(b"x"));
        assert!(u.accepts(b"y"));
        assert!(!u.accepts(b"z"));
        assert_eq!(maps.len(), 2);
        assert_eq!(u.state_count(), 4);
        // Accept states are mapped per machine.
        assert!(u.is_accept(maps[0][1]));
        assert!(u.is_accept(maps[1][1]));
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn transition_to_missing_state_panics() {
        let mut nfa = Nfa::new();
        let s = nfa.add_state();
        nfa.add_transition(s, SymbolClass::ANY, 5);
    }
}
