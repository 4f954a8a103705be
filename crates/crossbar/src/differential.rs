//! Fast ≡ analog: a digital [`Crossbar`] senses and programs a word at
//! a time; the same array held to the per-cell analog path
//! ([`Crossbar::analog_reference`]) is the reference. Random programs
//! run on both, op by op, and must agree on every output row and
//! error, on the full [`OpLedger`] bit for bit, on the endurance
//! failures and on the remap table — under stuck-at injects and clears,
//! spare-row retirements, widths that are not multiples of 64, and
//! device pairs close enough that some sense tables reject themselves.

use crate::{CellTechnology, Crossbar, OpLedger, ScoutingKind};
use memcim_bits::BitVec;
use memcim_device::SwitchParams;
use memcim_units::Ohms;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KINDS: [ScoutingKind; 6] = [
    ScoutingKind::Or,
    ScoutingKind::And,
    ScoutingKind::Xor,
    ScoutingKind::Nor,
    ScoutingKind::Nand,
    ScoutingKind::Xnor,
];

/// `r_high / r_low` of the device pairs under test: the paper's Fig. 9
/// pair, then pairs where some reference lands on a count's current
/// (2: OR, AND and XOR over two rows; 3: OR over three; 4/3: AND over
/// two), so the sense table rejects itself, and pairs whose tables
/// exist but are not the truth tables.
const RATIOS: [f64; 6] = [1e5, 2.0, 3.0, 4.0 / 3.0, 1.0 + 1e-9, 10.0];

/// Physical rows of every array under test: with up to two spares, at
/// least eight logical rows remain for an eight-row selection.
const ROWS: usize = 10;

fn array(ratio: f64, cols: usize, spares: usize, threshold: usize) -> Crossbar {
    let mut device = SwitchParams::paper_fig9();
    device.r_high = Ohms::new(device.r_low.as_ohms() * ratio);
    let x = Crossbar::with_technology(CellTechnology::rram_1t1r(), device, ROWS, cols);
    if spares > 0 {
        x.with_spare_rows(spares, threshold)
    } else {
        x
    }
}

/// Every ledger field, floats as their bit patterns.
fn ledger_bits(ledger: &OpLedger) -> [u64; 7] {
    [
        ledger.reads(),
        ledger.scouting_ops(),
        ledger.programs(),
        ledger.bits_programmed(),
        ledger.corrected_errors(),
        ledger.energy().as_joules().to_bits(),
        ledger.busy_time().as_seconds().to_bits(),
    ]
}

/// A random selection for `kind`: distinct logical rows, two for the
/// window gates and two to eight otherwise.
fn selection(rng: &mut SmallRng, kind: ScoutingKind, logical: usize) -> Vec<usize> {
    let k = if kind.is_window_gate() { 2 } else { rng.gen_range(2..=8) };
    let mut rows: Vec<usize> = (0..logical).collect();
    for i in 0..k {
        let j = rng.gen_range(i..rows.len());
        rows.swap(i, j);
    }
    rows.truncate(k);
    rows
}

/// A logical row, out of bounds one time in eight.
fn row(rng: &mut SmallRng, logical: usize) -> usize {
    if rng.gen_range(0..8) == 0 {
        logical + rng.gen_range(0..3usize)
    } else {
        rng.gen_range(0..logical)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn word_parallel_path_equals_analog_reference(
        seed in any::<u64>(),
        cols in 1usize..=200,
        ratio in 0usize..RATIOS.len(),
        spares in 0usize..3,
        threshold in 1usize..4,
    ) {
        let mut fast = array(RATIOS[ratio], cols, spares, threshold);
        let mut analog = array(RATIOS[ratio], cols, spares, threshold).analog_reference();
        let logical = fast.rows();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut injected: Vec<(usize, usize)> = Vec::new();
        for step in 0..60 {
            let kind = KINDS[rng.gen_range(0..KINDS.len())];
            match rng.gen_range(0..100) {
                0..=24 => {
                    let density = rng.gen_range(0.0..=1.0);
                    let values: BitVec = (0..cols).map(|_| rng.gen_bool(density)).collect();
                    let r = row(&mut rng, logical);
                    let (a, b) = (fast.program_row(r, &values), analog.program_row(r, &values));
                    prop_assert_eq!(a, b, "step {}: program_row", step);
                }
                25..=44 => {
                    let rows = selection(&mut rng, kind, logical);
                    let dest = row(&mut rng, logical);
                    let (a, b) =
                        (fast.scouting_write(kind, &rows, dest), analog.scouting_write(kind, &rows, dest));
                    prop_assert_eq!(a, b, "step {}: scouting_write", step);
                }
                45..=59 => {
                    let rows = selection(&mut rng, kind, logical);
                    let (a, b) = (fast.scouting(kind, &rows), analog.scouting(kind, &rows));
                    prop_assert_eq!(a, b, "step {}: scouting", step);
                }
                60..=69 => {
                    let r = row(&mut rng, logical);
                    prop_assert_eq!(fast.read_row(r), analog.read_row(r), "step {}: read_row", step);
                }
                70..=81 => {
                    // Physical coordinates, spares included; some past
                    // the last column, where no array observes them.
                    let (r, c) = (rng.gen_range(0..ROWS), rng.gen_range(0..cols + 70));
                    let value = rng.gen_bool(0.5);
                    fast.faults_mut().inject_stuck_at(r, c, value);
                    analog.faults_mut().inject_stuck_at(r, c, value);
                    injected.push((r, c));
                }
                82..=89 => {
                    if !injected.is_empty() {
                        let (r, c) = injected.swap_remove(rng.gen_range(0..injected.len()));
                        fast.faults_mut().clear(r, c);
                        analog.faults_mut().clear(r, c);
                    }
                }
                90..=94 => prop_assert_eq!(fast.audit(), analog.audit(), "step {}: audit", step),
                _ => {
                    // Refused selections: too few rows, a repeat, a row
                    // out of bounds.
                    let rows = match rng.gen_range(0..3) {
                        0 => vec![0],
                        1 => vec![1, 1],
                        _ => vec![0, logical],
                    };
                    let (a, b) =
                        (fast.scouting_write(kind, &rows, 0), analog.scouting_write(kind, &rows, 0));
                    prop_assert!(a.is_err(), "step {}: refusal", step);
                    prop_assert_eq!(a, b, "step {}: refusal", step);
                }
            }
            prop_assert_eq!(ledger_bits(fast.ledger()), ledger_bits(analog.ledger()), "step {}: ledger", step);
            prop_assert_eq!(fast.endurance_failures(), analog.endurance_failures());
            prop_assert_eq!(fast.remap_table(), analog.remap_table(), "step {}: remap", step);
            prop_assert_eq!(fast.retired_rows(), analog.retired_rows());
        }
        for r in 0..logical {
            for c in 0..cols {
                prop_assert_eq!(fast.get(r, c), analog.get(r, c), "stored bit ({}, {})", r, c);
            }
        }
    }
}
