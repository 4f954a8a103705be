//! Soundness of verifying a correlation session's plan once: a feed
//! plan's instruction sequence depends only on the stream count and the
//! engine width, never on the window's bits or width, which enter only
//! as `width`-wide `Store` payloads. So every generated plan verifies
//! clean (no Error-severity diagnostic, the admission gate's test), and the plan of any window has exactly the instructions of
//! the all-zero full-width window's plan once payloads are ignored.

use memcim_bits::BitVec;
use memcim_mvp::correlation::{rows_needed, CorrelationAccumulator};
use memcim_mvp::Instruction;
use memcim_verify::{first_error, verify_program};
use proptest::prelude::*;

/// The instruction with its `Store` payload blanked to the same width.
fn shape(instruction: &Instruction) -> Instruction {
    match instruction {
        Instruction::Store { row, data } => {
            Instruction::Store { row: *row, data: BitVec::new(data.len()) }
        }
        other => other.clone(),
    }
}

fn shapes(plan: &[Instruction]) -> Vec<Instruction> {
    plan.iter().map(shape).collect()
}

/// `streams` streams over `steps` steps, bits drawn cyclically from
/// `bits`.
fn window(streams: usize, steps: usize, bits: &[bool]) -> Vec<BitVec> {
    (0..streams).map(|i| (0..steps).map(|t| bits[(i * steps + t) % bits.len()]).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_feed_plan_verifies_and_has_the_zero_window_shape(
        streams in 2usize..=40,
        width in 1usize..=300,
        entropy in any::<u64>(),
        bits in proptest::collection::vec(any::<bool>(), 1..512),
    ) {
        let acc = CorrelationAccumulator::new(streams).expect("enough streams");
        let rows = rows_needed(streams);
        let zero = acc
            .feed_plan(&vec![BitVec::new(width); streams], width)
            .expect("the zero window fits");
        let reference = shapes(&zero);

        // One window no wider than the engine, through `feed_plan`.
        let steps = 1 + (entropy % width as u64) as usize;
        let plan = acc.feed_plan(&window(streams, steps, &bits), width).expect("fits");
        let diagnostics = verify_program(&plan, rows, width);
        prop_assert!(
            first_error(&diagnostics).is_none(),
            "{streams}×{steps} on {width}: {diagnostics:?}"
        );
        prop_assert_eq!(shapes(&plan), reference.clone());

        // Up to three engines wide, cut by time: every block has the
        // same shape, and the blocks tile the window in order.
        let wide = 1 + (entropy >> 32) as usize % (3 * width);
        let blocks = acc.block_plans(&window(streams, wide, &bits), width).expect("blocks");
        prop_assert_eq!(blocks.len(), wide.div_ceil(width));
        let mut next = 0;
        for (columns, plan) in &blocks {
            prop_assert_eq!(columns.start, next);
            prop_assert!(!columns.is_empty() && columns.len() <= width);
            next = columns.end;
            prop_assert_eq!(shapes(plan), reference.clone());
        }
        prop_assert_eq!(next, wide);
    }
}
