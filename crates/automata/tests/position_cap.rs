//! The Glushkov position and syntax-tree caps: bounded repeats
//! multiply, so `MAX_REPEAT` alone lets a few bytes of pattern ask for
//! an automaton of millions of states, or a tree of billions of nodes
//! with no position at all. Parsing counts positions and nodes as it
//! expands and refuses a pattern, or a pattern set in total, past
//! `MAX_POSITIONS` or `MAX_NODES` before the expansion is built. Deep
//! nesting, which every pass over the tree recurses through, stops at
//! `MAX_DEPTH`.

use memcim_automata::{AutomataError, PatternSet, Regex, MAX_DEPTH, MAX_NODES, MAX_POSITIONS};
use std::time::{Duration, Instant};

fn refused(result: Result<impl std::fmt::Debug, AutomataError>) -> bool {
    matches!(result, Err(AutomataError::TooManyPositions { limit: MAX_POSITIONS, .. }))
}

fn too_many_nodes(result: Result<impl std::fmt::Debug, AutomataError>) -> bool {
    matches!(result, Err(AutomataError::TooManyNodes { limit: MAX_NODES, .. }))
}

#[test]
fn nested_repeats_are_refused_before_they_expand() {
    let started = Instant::now();
    for pattern in [
        "(a{256}){64}",
        "((a{256}){256}){256}",
        "(((a{256}){256}){256}){256}",
        "((((a+)+)+)+)+((((((((((((b+)+)+)+)+)+)+)+)+)+)+)+)+",
        "(a{64}){64}b",
        "([ab]{200}|c{100}){30}",
    ] {
        assert!(refused(Regex::parse(pattern)), "{pattern}");
        assert!(refused(PatternSet::compile(&[pattern])), "{pattern} in a set");
    }
    // Refusal costs at most one capped expansion per pattern.
    assert!(started.elapsed() < Duration::from_secs(2), "refusals took {:?}", started.elapsed());
}

#[test]
fn repeats_of_few_positions_are_refused_before_they_expand() {
    let started = Instant::now();
    // An operand of no position, or of one position but many nodes, is
    // still copied node by node.
    let long_alternation = format!("(a({})){{256}}", "|".repeat(1000));
    for pattern in [
        "((((){256}){256}){256}){256}",
        "((a{0}){256}){256}",
        "((|){256}){256}",
        "((()*){256}){256}",
        long_alternation.as_str(),
    ] {
        assert!(too_many_nodes(Regex::parse(pattern)), "{pattern}");
        assert!(too_many_nodes(PatternSet::compile(&[pattern])), "{pattern} in a set");
    }
    assert!(started.elapsed() < Duration::from_secs(2), "refusals took {:?}", started.elapsed());

    // A set is capped in total, and a modest repeat of nothing parses.
    let empties = "((){255}){31}"; // 256 × 31 + 1 = 7,937 nodes
    assert_eq!(Regex::parse(empties).expect("under the cap").positions(), 0);
    assert!(PatternSet::compile(&[empties; 8]).is_ok());
    assert!(too_many_nodes(PatternSet::compile(&[empties; 9])));
}

#[test]
fn the_cap_itself_compiles_and_positions_count_states() {
    for (pattern, positions) in [
        ("(a{64}){64}", MAX_POSITIONS),
        ("a{256}", 256),
        ("(ab)+c?", 5),
        ("(a{256}){16}{0}x", 1),
        ("x{3,}", 4),
        ("", 0),
    ] {
        let regex = Regex::parse(pattern).expect(pattern);
        assert_eq!(regex.positions(), positions, "{pattern}");
        assert_eq!(regex.compile().state_count(), positions + 1, "{pattern}: positions + start");
    }
}

#[test]
fn a_set_is_capped_in_total() {
    let half = "(a{64}){32}"; // MAX_POSITIONS / 2 positions
    let set = PatternSet::compile(&[half, half]).expect("exactly the cap");
    assert_eq!(set.nfa().state_count(), MAX_POSITIONS + 2, "one start per pattern");
    assert!(refused(PatternSet::compile(&[half, half, "b"])));
    assert!(refused(PatternSet::compile(&["x", half, "(c{64}){32}"])));
}

#[test]
fn nesting_is_capped_so_a_small_stack_survives_the_deepest_pattern() {
    let groups = |depth: usize| format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
    let stacked = |quantifier: &str, count: usize| format!("a{}", quantifier.repeat(count));
    // One class is depth 1; each `*` or `?` adds one level.
    let deepest = [groups(MAX_DEPTH), stacked("*", MAX_DEPTH - 1), stacked("?", MAX_DEPTH - 1)];
    let too_deep = [
        groups(MAX_DEPTH + 1),
        groups(100_000),
        stacked("*", MAX_DEPTH),
        stacked("?", 50_000),
        format!("{}b", stacked("*", 50_000)),
    ];
    // Parse, compile and drop the deepest patterns on half of a spawned
    // thread's default 2 MiB stack (enough for an unoptimized build).
    std::thread::Builder::new()
        .stack_size(1024 * 1024)
        .spawn(move || {
            for pattern in &deepest {
                let regex = Regex::parse(pattern).expect("at the cap");
                assert_eq!(regex.compile().state_count(), 2, "one position and the start");
            }
            for pattern in &too_deep {
                let result = Regex::parse(pattern);
                assert!(
                    matches!(result, Err(AutomataError::TooDeep { limit: MAX_DEPTH, .. })),
                    "{}…: {result:?}",
                    &pattern[..8]
                );
            }
        })
        .expect("spawns")
        .join()
        .expect("no stack overflow");
}
