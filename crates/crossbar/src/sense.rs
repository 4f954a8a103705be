//! Sense-amplifier reference placement for scouting logic (Fig. 3b).

use crate::CrossbarError;
use memcim_units::{Amps, Ohms, Volts};

/// The logic function realized by a multi-row scouting read.
///
/// The complemented gates (`Nor`, `Nand`, `Xnor`) come for free: the
/// sense amplifier of the paper's Fig. 8 already produces an inverted
/// output, so complementation is an output-mux setting, not extra
/// references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoutingKind {
    /// Output 1 when *any* activated cell stores 1.
    Or,
    /// Output 1 when *all* activated cells store 1.
    And,
    /// Output 1 when *exactly one* of two activated cells stores 1
    /// (two-reference window detection; defined for exactly two rows).
    Xor,
    /// Complement of [`Or`](ScoutingKind::Or).
    Nor,
    /// Complement of [`And`](ScoutingKind::And).
    Nand,
    /// Complement of [`Xor`](ScoutingKind::Xor) (two rows).
    Xnor,
}

impl ScoutingKind {
    /// The underlying reference placement (complemented gates share
    /// their base gate's references).
    pub(crate) fn base(self) -> ScoutingKind {
        match self {
            ScoutingKind::Nor => ScoutingKind::Or,
            ScoutingKind::Nand => ScoutingKind::And,
            ScoutingKind::Xnor => ScoutingKind::Xor,
            other => other,
        }
    }

    /// Whether the SA output is taken inverted.
    pub(crate) fn inverted(self) -> bool {
        matches!(self, ScoutingKind::Nor | ScoutingKind::Nand | ScoutingKind::Xnor)
    }

    /// Whether the gate is only defined over exactly two rows.
    pub fn is_window_gate(self) -> bool {
        matches!(self.base(), ScoutingKind::Xor)
    }

    /// The gate's boolean truth table over `k` rows, laid out like
    /// [`SenseThresholds::count_table`] (bit `c` is the output with `c`
    /// ones among the rows): OR for any one, AND for all, XOR for an
    /// odd count; complemented gates invert it.
    ///
    /// # Panics
    ///
    /// Panics if `k > 63`.
    pub(crate) fn ideal_table(self, k: usize) -> u64 {
        let all = u64::MAX >> (63 - k);
        let table = match self.base() {
            ScoutingKind::Or => all & !1,
            ScoutingKind::And => 1 << k,
            _ => all & 0xAAAA_AAAA_AAAA_AAAA,
        };
        if self.inverted() {
            !table & all
        } else {
            table
        }
    }

    /// Validates a row selection for this gate — the single source of
    /// the scouting selection policy (at least two rows, window gates
    /// over exactly two, rows distinct), shared by every substrate so
    /// raw and protected arrays accept exactly the same programs.
    /// Bounds checking stays with the substrate (it knows its
    /// geometry).
    ///
    /// # Errors
    ///
    /// [`CrossbarError::InvalidRowSelection`] naming the violated
    /// constraint.
    pub fn validate_selection(self, rows: &[usize]) -> Result<(), CrossbarError> {
        if rows.len() < 2 {
            return Err(CrossbarError::InvalidRowSelection {
                constraint: "at least two rows must be activated",
            });
        }
        if self.is_window_gate() && rows.len() != 2 {
            return Err(CrossbarError::InvalidRowSelection {
                constraint: "xor/xnor are defined over exactly two rows",
            });
        }
        for (i, &r) in rows.iter().enumerate() {
            if rows[..i].contains(&r) {
                return Err(CrossbarError::InvalidRowSelection {
                    constraint: "rows must be distinct",
                });
            }
        }
        Ok(())
    }
}

/// Sense-amplifier reference current(s) for one scouting gate.
///
/// A plain comparison gate (`OR`, `AND`) carries one reference: the output
/// is 1 when the bit-line current exceeds it. The `XOR` gate carries a
/// window `(low, high)`: the output is 1 when the current falls strictly
/// inside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseThresholds {
    low: Amps,
    high: Option<Amps>,
    inverted: bool,
}

impl SenseThresholds {
    /// Computes the reference placement of the paper's Fig. 3b for `kind`
    /// over `k_rows` simultaneously activated rows, a read voltage `vr`,
    /// and the cell resistance states.
    ///
    /// Current levels (per Fig. 3b, with `RH ≫ RL`):
    /// all-zero ⇒ `k·Vr/RH ≈ 0`; exactly one 1 ⇒ `≈Vr/RL`;
    /// all ones ⇒ `k·Vr/RL`.
    ///
    /// * `OR`: single reference at the geometric mean of `k·Vr/RH` and
    ///   `Vr/RL` (decades apart — geometric centring maximizes margin).
    /// * `AND`: single reference midway between `(k−1)·Vr/RL` and
    ///   `k·Vr/RL`.
    /// * `XOR` (k = 2): window between the `OR` reference and the
    ///   midpoint of `Vr/RL` and `2·Vr/RL`.
    ///
    /// # Panics
    ///
    /// Panics if `k_rows < 2`, if `kind` is `Xor` and `k_rows != 2`, or
    /// if `r_low >= r_high`.
    pub fn for_gate(
        kind: ScoutingKind,
        k_rows: usize,
        vr: Volts,
        r_low: Ohms,
        r_high: Ohms,
    ) -> Self {
        assert!(k_rows >= 2, "scouting activates at least two rows");
        assert!(
            !kind.is_window_gate() || k_rows == 2,
            "xor scouting is defined for exactly two rows"
        );
        assert!(r_low.as_ohms() < r_high.as_ohms(), "r_low must be below r_high");
        let i_one_cell = (vr / r_low).as_amps();
        let i_all_zero = k_rows as f64 * (vr / r_high).as_amps();
        let inverted = kind.inverted();
        match kind.base() {
            ScoutingKind::Or => {
                Self { low: Amps::new((i_all_zero * i_one_cell).sqrt()), high: None, inverted }
            }
            ScoutingKind::And => {
                let k = k_rows as f64;
                Self { low: Amps::new((k - 0.5) * i_one_cell), high: None, inverted }
            }
            ScoutingKind::Xor => {
                let or_ref = (i_all_zero * i_one_cell).sqrt();
                Self { low: Amps::new(or_ref), high: Some(Amps::new(1.5 * i_one_cell)), inverted }
            }
            _ => unreachable!("base() never returns a complemented gate"),
        }
    }

    /// The reference of a plain one-row read: the geometric mean of the
    /// ON and OFF cell currents.
    pub(crate) fn read_reference(vr: Volts, r_low: Ohms, r_high: Ohms) -> Self {
        let reference = ((vr / r_low).as_amps() * (vr / r_high).as_amps()).sqrt();
        Self { low: Amps::new(reference), high: None, inverted: false }
    }

    /// The sense decision for every count of ON cells among `k` ideal
    /// cells activated together: bit `c` is the decision for the
    /// bit-line current of `c` cells at `i_on` and `k − c` at `i_off`.
    /// `None` when `k > 63` or a reference lies within the float
    /// rounding band of some count's current.
    ///
    /// Summing `k` positive terms lands within `(k − 1)·ε/2` of the
    /// exact sum in relative terms, whatever the order, so two orders
    /// differ by less than `(k − 1)·ε`. A reference outside `±2kε`
    /// around every count's sum therefore gets one decision from every
    /// summation order: the table is exactly what a per-column sum of
    /// the same terms senses.
    pub(crate) fn count_table(&self, k: usize, i_on: Amps, i_off: Amps) -> Option<u64> {
        if k > 63 {
            return None;
        }
        let band = 2.0 * k as f64 * f64::EPSILON;
        let mut table = 0;
        for ones in 0..=k {
            let sum: f64 = std::iter::repeat_n(i_on.as_amps(), ones)
                .chain(std::iter::repeat_n(i_off.as_amps(), k - ones))
                .sum();
            let (lo, hi) = (sum * (1.0 - band), sum * (1.0 + band));
            let straddled = [Some(self.low), self.high]
                .into_iter()
                .flatten()
                .any(|reference| (lo..=hi).contains(&reference.as_amps()));
            if straddled {
                return None;
            }
            if self.sense(Amps::new(sum)) {
                table |= 1 << ones;
            }
        }
        Some(table)
    }

    /// The sense decision for a measured bit-line current.
    pub fn sense(&self, current: Amps) -> bool {
        let raw = match self.high {
            None => current.as_amps() > self.low.as_amps(),
            Some(high) => {
                current.as_amps() > self.low.as_amps() && current.as_amps() < high.as_amps()
            }
        };
        raw ^ self.inverted
    }

    /// The lower reference.
    pub fn low(&self) -> Amps {
        self.low
    }

    /// The upper reference, present only for window (XOR) gates.
    pub fn high(&self) -> Option<Amps> {
        self.high
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VR: Volts = Volts::new(0.1);

    fn rl() -> Ohms {
        Ohms::from_kilohms(1.0)
    }

    fn rh() -> Ohms {
        Ohms::from_megohms(100.0)
    }

    /// Bit-line current for a given multiset of activated cell states.
    fn current(states: &[bool]) -> Amps {
        Amps::new(states.iter().map(|&s| (VR / if s { rl() } else { rh() }).as_amps()).sum())
    }

    #[test]
    fn or_truth_table_from_fig3() {
        let t = SenseThresholds::for_gate(ScoutingKind::Or, 2, VR, rl(), rh());
        assert!(!t.sense(current(&[false, false])));
        assert!(t.sense(current(&[true, false])));
        assert!(t.sense(current(&[false, true])));
        assert!(t.sense(current(&[true, true])));
    }

    #[test]
    fn and_truth_table_from_fig3() {
        let t = SenseThresholds::for_gate(ScoutingKind::And, 2, VR, rl(), rh());
        assert!(!t.sense(current(&[false, false])));
        assert!(!t.sense(current(&[true, false])));
        assert!(!t.sense(current(&[false, true])));
        assert!(t.sense(current(&[true, true])));
    }

    #[test]
    fn xor_window_truth_table_from_fig3() {
        let t = SenseThresholds::for_gate(ScoutingKind::Xor, 2, VR, rl(), rh());
        assert!(!t.sense(current(&[false, false])));
        assert!(t.sense(current(&[true, false])));
        assert!(t.sense(current(&[false, true])));
        assert!(!t.sense(current(&[true, true])));
        assert!(t.high().is_some());
    }

    #[test]
    fn multi_row_or_and_generalize() {
        for k in [3usize, 4, 8] {
            let or = SenseThresholds::for_gate(ScoutingKind::Or, k, VR, rl(), rh());
            let and = SenseThresholds::for_gate(ScoutingKind::And, k, VR, rl(), rh());
            let all_zero = vec![false; k];
            let mut one_hot = vec![false; k];
            one_hot[k / 2] = true;
            let all_one = vec![true; k];
            let mut one_missing = vec![true; k];
            one_missing[0] = false;
            assert!(!or.sense(current(&all_zero)), "k={k}");
            assert!(or.sense(current(&one_hot)), "k={k}");
            assert!(and.sense(current(&all_one)), "k={k}");
            assert!(!and.sense(current(&one_missing)), "k={k}");
        }
    }

    #[test]
    fn margins_tolerate_moderate_resistance_variation() {
        // ±20 % on RL must not flip any decision (design decision D2).
        let t_and = SenseThresholds::for_gate(ScoutingKind::And, 2, VR, rl(), rh());
        let i_both_low = Amps::new(2.0 * (VR / (rl() * 1.2)).as_amps());
        let i_one_high = Amps::new((VR / (rl() * 0.8)).as_amps());
        assert!(t_and.sense(i_both_low), "slow corner must still read 1");
        assert!(!t_and.sense(i_one_high), "fast corner must still read 0");
    }

    #[test]
    fn complemented_gates_invert_their_base() {
        for (kind, base) in [
            (ScoutingKind::Nor, ScoutingKind::Or),
            (ScoutingKind::Nand, ScoutingKind::And),
            (ScoutingKind::Xnor, ScoutingKind::Xor),
        ] {
            let t = SenseThresholds::for_gate(kind, 2, VR, rl(), rh());
            let b = SenseThresholds::for_gate(base, 2, VR, rl(), rh());
            for states in [[false, false], [false, true], [true, false], [true, true]] {
                let i = current(&states);
                assert_eq!(t.sense(i), !b.sense(i), "{kind:?} on {states:?}");
            }
            // Same references — complementation is free.
            assert_eq!(t.low(), b.low());
            assert_eq!(t.high(), b.high());
        }
    }

    #[test]
    fn count_tables_of_the_paper_device_are_the_truth_tables() {
        let (on, off) = (VR / rl(), VR / rh());
        for kind in [ScoutingKind::Or, ScoutingKind::And, ScoutingKind::Nor, ScoutingKind::Nand] {
            for k in 2..=8 {
                let t = SenseThresholds::for_gate(kind, k, VR, rl(), rh());
                assert_eq!(t.count_table(k, on, off), Some(kind.ideal_table(k)), "{kind:?} {k}");
            }
        }
        let xor = SenseThresholds::for_gate(ScoutingKind::Xor, 2, VR, rl(), rh());
        assert_eq!(xor.count_table(2, on, off), Some(0b010));
        assert_eq!(ScoutingKind::Xnor.ideal_table(2), 0b101);
        let read = SenseThresholds::read_reference(VR, rl(), rh());
        assert_eq!(read.count_table(1, on, off), Some(0b10));
    }

    #[test]
    fn a_reference_on_a_count_current_rejects_the_table() {
        // With r_high = 2·r_low the AND reference 1.5·Vr/r_low equals
        // the current of one ON and one OFF cell.
        let rh2 = rl() * 2.0;
        let t = SenseThresholds::for_gate(ScoutingKind::And, 2, VR, rl(), rh2);
        assert_eq!(t.count_table(2, VR / rl(), VR / rh2), None);
        assert_eq!(t.count_table(64, VR / rl(), VR / rh()), None, "more than 63 rows");
    }

    #[test]
    fn a_reference_within_rounding_of_a_count_current_rejects_the_table() {
        // Nudge r_high around 2·r_low so the one-ON current of two cells
        // lands a few ulps off the AND reference, not on it: another
        // summation order could fall on the other side.
        let mut near_misses = 0;
        for j in -64..=64 {
            let rh = rl() * (2.0 * (1.0 + f64::from(j) * f64::EPSILON));
            let (on, off) = (VR / rl(), VR / rh);
            let t = SenseThresholds::for_gate(ScoutingKind::And, 2, VR, rl(), rh);
            let gap = (on.as_amps() + off.as_amps() - t.low().as_amps()).abs();
            if gap > 0.0 && gap <= 2.0 * f64::EPSILON * t.low().as_amps() {
                near_misses += 1;
                assert_eq!(t.count_table(2, on, off), None, "j = {j}");
            }
        }
        assert!(near_misses > 0, "the sweep must reach currents off the reference by an ulp");
    }

    #[test]
    #[should_panic(expected = "exactly two rows")]
    fn xnor_rejects_three_rows() {
        let _ = SenseThresholds::for_gate(ScoutingKind::Xnor, 3, VR, rl(), rh());
    }

    #[test]
    #[should_panic(expected = "exactly two rows")]
    fn xor_rejects_three_rows() {
        let _ = SenseThresholds::for_gate(ScoutingKind::Xor, 3, VR, rl(), rh());
    }

    #[test]
    #[should_panic(expected = "at least two rows")]
    fn single_row_scouting_is_rejected() {
        let _ = SenseThresholds::for_gate(ScoutingKind::Or, 1, VR, rl(), rh());
    }
}
