//! Finite automata toolkit: regexes, NFAs and homogeneous automata.
//!
//! This crate implements Section IV.A–B of the paper: the automata
//! formalism that automata processors execute.
//!
//! * [`SymbolClass`] — a set of input symbols (the paper's "symbol
//!   class"), represented as a 256-bit set over byte alphabets.
//! * [`Nfa`] — a nondeterministic finite automaton
//!   `(Q, Σ, δ, q₀, C)` with symbol-class transitions, a set-based
//!   reference interpreter and per-position match reporting.
//! * [`Regex`] — a regular-expression compiler (literals, classes,
//!   ranges, negation, `.`,`|`,`*`,`+`,`?`, grouping, bounded repeats
//!   `{m,n}`, escapes) producing an [`Nfa`] by the Glushkov position
//!   construction: one state per class leaf, so the machine is ε-free,
//!   trim and already homogeneous.
//! * [`HomogeneousAutomaton`] — the AP-implementable form (paper Fig. 5b):
//!   every state is reached only on its own symbol class. Conversion from
//!   any [`Nfa`] is provided (the paper: *"Any NFA can be translated into
//!   its equivalent homogeneous automaton"*), along with the matrix
//!   projection ([`ApMatrices`]) used by the generic AP model — the `V`,
//!   `R` and accept structures of the paper's Equations (1)–(4).
//! * [`PatternSet`] — multi-pattern compilation (union automaton with
//!   per-pattern accept tracking) plus workload generators for the
//!   paper's motivating applications (network rules, DNA motifs).
//!
//! # Examples
//!
//! ```
//! use memcim_automata::Regex;
//!
//! # fn main() -> Result<(), memcim_automata::AutomataError> {
//! let nfa = Regex::parse("ab(c|d)+")?.compile();
//! assert!(nfa.accepts(b"abcdc"));
//! assert!(!nfa.accepts(b"ab"));
//! // Homogeneous conversion preserves the language.
//! let homog = memcim_automata::HomogeneousAutomaton::from_nfa(&nfa);
//! assert!(homog.run(b"abcdc").accepted);
//! # Ok(())
//! # }
//! ```

mod dfa;
mod error;
mod homogeneous;
mod nfa;
mod patterns;
mod regex;
mod symbol;

pub use dfa::Dfa;
pub use error::AutomataError;
pub use homogeneous::{ApMatrices, HomogeneousAutomaton, HomogeneousRun, StartKind};
pub use nfa::{MatchEvent, Nfa, StateId};
pub use patterns::{dna, rules, PatternMatch, PatternSet};
pub use regex::{Regex, MAX_DEPTH, MAX_NODES, MAX_POSITIONS};
pub use symbol::SymbolClass;
