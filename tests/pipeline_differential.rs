//! Cross-crate differential tests: the full regex → NFA → homogeneous →
//! hardware-AP pipeline against reference interpreters, and scouting
//! logic against plain boolean algebra, on randomized inputs.

use memcim::prelude::*;
use memcim_ap::RoutingKind;
use memcim_automata::rules;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn pattern_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("[ab]".to_string()),
        Just(".".to_string()),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a}{b}")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}|{b})")),
            inner.clone().prop_map(|a| format!("({a})*")),
            inner.clone().prop_map(|a| format!("({a})+")),
            inner.prop_map(|a| format!("({a})?")),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// regex → Glushkov NFA → homogeneous → AP(RRAM, hierarchical)
    /// equals the set-based NFA interpreter.
    #[test]
    fn full_pipeline_equals_reference(
        pattern in pattern_strategy(),
        inputs in proptest::collection::vec(
            proptest::collection::vec(b'a'..=b'd', 0..14), 1..6),
    ) {
        let nfa = Regex::parse(&pattern).expect("generated pattern").compile();
        let homog = HomogeneousAutomaton::from_nfa(&nfa);
        if homog.state_count() == 0 {
            return Ok(());
        }
        let mut ap = AutomataProcessor::compile(
            &homog,
            ApBackend::rram(),
            RoutingKind::Hierarchical { block: 8, max_global: 1 << 16 },
        ).expect("maps");
        for input in &inputs {
            prop_assert_eq!(
                ap.run(input).accepted,
                nfa.accepts(input),
                "pattern {} input {:?}", pattern.clone(), input.clone()
            );
        }
    }

    /// In-memory scouting equals boolean algebra for random row data,
    /// including the multi-row forms.
    #[test]
    fn scouting_is_boolean_algebra(
        rows in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 96), 3..6),
    ) {
        let mut xbar = Crossbar::rram(rows.len(), 96);
        let vecs: Vec<BitVec> = rows.iter().map(|r| BitVec::from_bools(r)).collect();
        for (i, v) in vecs.iter().enumerate() {
            xbar.program_row(i, v).expect("program");
        }
        let all: Vec<usize> = (0..rows.len()).collect();
        let mut or_expect = vecs[0].clone();
        let mut and_expect = vecs[0].clone();
        for v in &vecs[1..] {
            or_expect.or_assign(v);
            and_expect.and_assign(v);
        }
        prop_assert_eq!(xbar.scouting(ScoutingKind::Or, &all).expect("or"), or_expect);
        prop_assert_eq!(xbar.scouting(ScoutingKind::And, &all).expect("and"), and_expect);
        prop_assert_eq!(
            xbar.scouting(ScoutingKind::Xor, &[0, 1]).expect("xor"),
            vecs[0].xor(&vecs[1])
        );
    }
}

#[test]
fn rule_set_attribution_matches_software_scan() {
    // Deterministic end-to-end parity on a realistic rule set.
    let mut rng = SmallRng::seed_from_u64(404);
    let texts = rules::synthetic_rules(&mut rng, 20);
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let set = PatternSet::compile(&refs).expect("compiles");
    let traffic = rules::synthetic_traffic(&mut rng, set.patterns(), 1 << 13, 40);

    let software: Vec<(usize, usize)> =
        set.scan(&traffic).into_iter().map(|m| (m.end, m.pattern)).collect();

    let mut accel = RegexAccelerator::rram(&refs).expect("maps");
    let outcome = accel.scan(&traffic);
    let mut hardware = outcome.matches.clone();
    let mut software_sorted = software.clone();
    hardware.sort_unstable();
    software_sorted.sort_unstable();
    assert_eq!(hardware, software_sorted, "event-for-event parity");
}

#[test]
fn backends_agree_event_for_event() {
    let mut rng = SmallRng::seed_from_u64(808);
    let texts = rules::synthetic_rules(&mut rng, 12);
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let set = PatternSet::compile(&refs).expect("compiles");
    let traffic = rules::synthetic_traffic(&mut rng, set.patterns(), 4096, 16);

    let runs: Vec<Vec<(usize, usize)>> = [ApBackend::rram(), ApBackend::sram(), ApBackend::sdram()]
        .into_iter()
        .map(|backend| {
            let mut accel = RegexAccelerator::on_backend(&refs, backend).expect("maps");
            accel.scan(&traffic).matches
        })
        .collect();
    assert_eq!(runs[0], runs[1], "RRAM vs SRAM");
    assert_eq!(runs[1], runs[2], "SRAM vs SDRAM");
    assert!(!runs[0].is_empty(), "planted traffic must produce events");
}

#[test]
fn homogeneous_bitparallel_equals_nfa_scan_counts() {
    // The D5 claim: per-cycle accepts of the bit-parallel engine match
    // the cycle positions where the sparse scan reports at least one
    // event.
    let mut rng = SmallRng::seed_from_u64(909);
    let texts = rules::synthetic_rules(&mut rng, 10);
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let set = PatternSet::compile(&refs).expect("compiles");
    let traffic = rules::synthetic_traffic(&mut rng, set.patterns(), 4096, 12);

    let (homog, _) = set.to_homogeneous();
    let scanning = homog.with_start_kind(StartKind::AllInput);
    let dense_positions = scanning.run(&traffic).accept_positions;

    let mut sparse_positions: Vec<usize> =
        set.nfa().scan(&traffic).into_iter().map(|e| e.end).collect();
    sparse_positions.sort_unstable();
    sparse_positions.dedup();

    assert_eq!(dense_positions, sparse_positions);
}
