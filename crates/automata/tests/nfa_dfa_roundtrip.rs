//! Property round-trip suite: random regexes → NFA → DFA (raw and
//! minimized) must agree with a structural reference matcher on random
//! byte inputs.
//!
//! The oracle interprets the generated AST directly over the input, with
//! no shared code with the Glushkov position construction or the subset
//! construction it is checking. Cases are seeded and
//! deterministic (see the vendored proptest's `TestRng`), so any failure
//! reproduces bit-for-bit.

use memcim_automata::{Dfa, Regex};
use proptest::prelude::*;

/// Regex AST mirroring the constructors the generator emits.
#[derive(Debug, Clone)]
enum Node {
    /// One literal byte.
    Lit(u8),
    /// A character class over `a..=d`.
    Class(Vec<u8>),
    /// `.` — any byte.
    Any,
    Concat(Box<Node>, Box<Node>),
    Alt(Box<Node>, Box<Node>),
    Star(Box<Node>),
    Plus(Box<Node>),
    Opt(Box<Node>),
}

impl Node {
    fn to_pattern(&self) -> String {
        match self {
            Node::Lit(b) => (*b as char).to_string(),
            Node::Class(set) => {
                let mut s = String::from("[");
                for &b in set {
                    s.push(b as char);
                }
                s.push(']');
                s
            }
            Node::Any => ".".to_string(),
            Node::Concat(a, b) => format!("{}{}", a.to_pattern(), b.to_pattern()),
            Node::Alt(a, b) => format!("({}|{})", a.to_pattern(), b.to_pattern()),
            Node::Star(a) => format!("({})*", a.to_pattern()),
            Node::Plus(a) => format!("({})+", a.to_pattern()),
            Node::Opt(a) => format!("({})?", a.to_pattern()),
        }
    }

    /// Reference matcher: the set of positions reachable after consuming
    /// a prefix of `input[pos..]` against this node.
    fn residuals(&self, input: &[u8], pos: usize) -> Vec<usize> {
        match self {
            Node::Lit(b) => {
                if input.get(pos) == Some(b) {
                    vec![pos + 1]
                } else {
                    vec![]
                }
            }
            Node::Class(set) => {
                if input.get(pos).is_some_and(|b| set.contains(b)) {
                    vec![pos + 1]
                } else {
                    vec![]
                }
            }
            Node::Any => {
                if pos < input.len() {
                    vec![pos + 1]
                } else {
                    vec![]
                }
            }
            Node::Concat(a, b) => {
                let mut out: Vec<usize> = a
                    .residuals(input, pos)
                    .into_iter()
                    .flat_map(|mid| b.residuals(input, mid))
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            }
            Node::Alt(a, b) => {
                let mut out = a.residuals(input, pos);
                out.extend(b.residuals(input, pos));
                out.sort_unstable();
                out.dedup();
                out
            }
            Node::Star(a) => closure(a, input, vec![pos]),
            Node::Plus(a) => {
                let first: Vec<usize> = a.residuals(input, pos);
                closure(a, input, first)
            }
            Node::Opt(a) => {
                let mut out = vec![pos];
                out.extend(a.residuals(input, pos));
                out.sort_unstable();
                out.dedup();
                out
            }
        }
    }

    fn matches(&self, input: &[u8]) -> bool {
        self.residuals(input, 0).contains(&input.len())
    }
}

/// Fixpoint of `a` applied zero or more further times from `seeds`.
fn closure(a: &Node, input: &[u8], seeds: Vec<usize>) -> Vec<usize> {
    let mut out = seeds.clone();
    let mut frontier = seeds;
    while let Some(p) = frontier.pop() {
        for q in a.residuals(input, p) {
            if q > p && !out.contains(&q) {
                out.push(q);
                frontier.push(q);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn node_strategy() -> impl Strategy<Value = Node> {
    let leaf = prop_oneof![
        (b'a'..=b'd').prop_map(Node::Lit),
        Just(Node::Class(vec![b'a', b'b'])),
        Just(Node::Class(vec![b'b', b'c', b'd'])),
        Just(Node::Any),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Node::Concat(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Node::Alt(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Node::Star(Box::new(a))),
            inner.clone().prop_map(|a| Node::Plus(Box::new(a))),
            inner.prop_map(|a| Node::Opt(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Regex → NFA → DFA → minimized DFA all agree with the structural
    /// oracle, input by input.
    #[test]
    fn pipeline_agrees_with_reference_matcher(
        node in node_strategy(),
        inputs in proptest::collection::vec(
            proptest::collection::vec(b'a'..=b'e', 0..12), 1..8),
    ) {
        let pattern = node.to_pattern();
        let nfa = Regex::parse(&pattern).expect("generated pattern parses").compile();
        let dfa = Dfa::from_nfa(&nfa);
        let min = dfa.minimize();
        prop_assert!(min.state_count() <= dfa.state_count(), "minimize grew {}", pattern);
        for input in &inputs {
            let expected = node.matches(input);
            prop_assert_eq!(nfa.accepts(input), expected, "nfa, pattern {} input {:?}", pattern, input);
            prop_assert_eq!(dfa.accepts(input), expected, "dfa, pattern {} input {:?}", pattern, input);
            prop_assert_eq!(min.accepts(input), expected, "min dfa, pattern {} input {:?}", pattern, input);
        }
    }

    /// The minimized DFA accepts exactly the same inputs as the raw DFA
    /// even on bytes outside the generated alphabet.
    #[test]
    fn minimization_is_language_preserving_off_alphabet(
        node in node_strategy(),
        input in proptest::collection::vec(any::<u8>(), 0..10),
    ) {
        let pattern = node.to_pattern();
        let nfa = Regex::parse(&pattern).expect("generated pattern parses").compile();
        let dfa = Dfa::from_nfa(&nfa);
        let min = dfa.minimize();
        prop_assert_eq!(dfa.accepts(&input), min.accepts(&input), "pattern {} input {:?}", pattern, input);
    }
}
