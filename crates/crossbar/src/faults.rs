//! Stuck-at fault injection for crossbar cells.

use std::collections::HashMap;

/// A map of stuck-at faults over array cells.
///
/// A stuck cell ignores programming and always reads its stuck value —
/// the dominant memristor failure signature (endurance wear-out leaves
/// filaments permanently formed or ruptured).
///
/// Next to the per-cell map, every faulty row keeps its stuck cells as
/// two packed word masks — which columns are stuck, and at what value —
/// kept in step by [`inject_stuck_at`](Self::inject_stuck_at) and
/// [`clear`](Self::clear). A crossbar senses and programs a row a word
/// at a time through them: the observed word is
/// `(bits & !mask) | (value & mask)`.
#[derive(Debug, Clone, Default)]
pub struct FaultMap {
    stuck: HashMap<(usize, usize), bool>,
    rows: HashMap<usize, RowFaults>,
}

/// The stuck cells of one row: a count and the packed masks (64
/// columns per word, as wide as the row's highest faulty column).
#[derive(Debug, Clone, Default)]
struct RowFaults {
    count: usize,
    mask: Vec<u64>,
    value: Vec<u64>,
}

/// The per-row masks are derived from the per-cell map, so two maps
/// with the same faults are equal whatever their history.
impl PartialEq for FaultMap {
    fn eq(&self, other: &Self) -> bool {
        self.stuck == other.stuck
    }
}

impl Eq for FaultMap {}

impl FaultMap {
    /// An empty fault map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Injects a stuck-at fault at `(row, col)`.
    pub fn inject_stuck_at(&mut self, row: usize, col: usize, value: bool) {
        let fresh = self.stuck.insert((row, col), value).is_none();
        let faults = self.rows.entry(row).or_default();
        if fresh {
            faults.count += 1;
        }
        let (word, bit) = (col / 64, 1u64 << (col % 64));
        if faults.mask.len() <= word {
            faults.mask.resize(word + 1, 0);
            faults.value.resize(word + 1, 0);
        }
        faults.mask[word] |= bit;
        if value {
            faults.value[word] |= bit;
        } else {
            faults.value[word] &= !bit;
        }
    }

    /// Removes a fault, if present.
    pub fn clear(&mut self, row: usize, col: usize) {
        if self.stuck.remove(&(row, col)).is_none() {
            return;
        }
        if let Some(faults) = self.rows.get_mut(&row) {
            if faults.count > 1 {
                faults.count -= 1;
                let (word, bit) = (col / 64, 1u64 << (col % 64));
                faults.mask[word] &= !bit;
                faults.value[word] &= !bit;
            } else {
                self.rows.remove(&row);
            }
        }
    }

    /// Number of stuck cells in one row — the quantity a spare-row
    /// retirement policy thresholds on.
    pub fn row_fault_count(&self, row: usize) -> usize {
        self.rows.get(&row).map_or(0, |faults| faults.count)
    }

    /// The packed `(mask, value)` words of a row's stuck cells, or
    /// `None` for a row without faults. Both slices cover the row's
    /// highest faulty column; words past their end hold no fault.
    pub(crate) fn row_masks(&self, row: usize) -> Option<(&[u64], &[u64])> {
        self.rows.get(&row).map(|faults| (faults.mask.as_slice(), faults.value.as_slice()))
    }

    /// Number of injected faults.
    pub fn len(&self) -> usize {
        self.stuck.len()
    }

    /// `true` when no faults are injected.
    pub fn is_empty(&self) -> bool {
        self.stuck.is_empty()
    }

    /// The stuck value at a cell, if faulty.
    pub fn stuck_value(&self, row: usize, col: usize) -> Option<bool> {
        self.stuck.get(&(row, col)).copied()
    }

    /// The value actually observed when reading a cell whose programmed
    /// value is `logical`.
    pub fn observed(&self, row: usize, col: usize, logical: bool) -> bool {
        self.stuck_value(row, col).unwrap_or(logical)
    }

    /// Iterates over `((row, col), stuck_value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&(usize, usize), &bool)> {
        self.stuck.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_cell_overrides_logical_value() {
        let mut f = FaultMap::new();
        f.inject_stuck_at(1, 2, true);
        assert!(f.observed(1, 2, false));
        assert!(f.observed(1, 2, true));
        assert!(!f.observed(0, 0, false));
    }

    #[test]
    fn clear_restores_normal_behaviour() {
        let mut f = FaultMap::new();
        f.inject_stuck_at(0, 0, false);
        assert!(!f.observed(0, 0, true));
        f.clear(0, 0);
        assert!(f.observed(0, 0, true));
        assert!(f.is_empty());
    }

    #[test]
    fn len_tracks_injections() {
        let mut f = FaultMap::new();
        f.inject_stuck_at(0, 0, true);
        f.inject_stuck_at(0, 1, false);
        f.inject_stuck_at(0, 0, false); // overwrite, not a new fault
        assert_eq!(f.len(), 2);
        assert_eq!(f.iter().count(), 2);
    }

    #[test]
    fn row_counts_track_injections_and_clears() {
        let mut f = FaultMap::new();
        assert_eq!(f.row_fault_count(3), 0);
        f.inject_stuck_at(3, 0, true);
        f.inject_stuck_at(3, 7, false);
        f.inject_stuck_at(3, 7, true); // overwrite: still two faults
        f.inject_stuck_at(5, 1, true);
        assert_eq!(f.row_fault_count(3), 2);
        assert_eq!(f.row_fault_count(5), 1);
        f.clear(3, 7);
        assert_eq!(f.row_fault_count(3), 1);
        f.clear(3, 0);
        f.clear(3, 0); // double clear is a no-op
        assert_eq!(f.row_fault_count(3), 0);
        assert_eq!(f.row_fault_count(5), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// After any sequence of injects, overwrites and clears, the
        /// packed row masks say exactly what the per-cell lookups say,
        /// and each row's count is its mask's population.
        #[test]
        fn row_masks_equal_per_cell_lookups(
            steps in proptest::collection::vec(
                (0usize..5, 0usize..200, any::<bool>(), any::<bool>()),
                0..120,
            ),
        ) {
            let mut f = FaultMap::new();
            for &(row, col, inject, value) in &steps {
                if inject {
                    f.inject_stuck_at(row, col, value);
                } else {
                    f.clear(row, col);
                }
            }
            for row in 0..5 {
                let (mask, value) = f.row_masks(row).unwrap_or((&[], &[]));
                let ones: u32 = mask.iter().map(|w| w.count_ones()).sum();
                prop_assert_eq!(ones as usize, f.row_fault_count(row));
                for col in 0..256 {
                    let (word, bit) = (col / 64, col % 64);
                    let m = mask.get(word).is_some_and(|w| w >> bit & 1 == 1);
                    let v = value.get(word).is_some_and(|w| w >> bit & 1 == 1);
                    prop_assert_eq!(m, f.stuck_value(row, col).is_some(), "mask ({}, {})", row, col);
                    prop_assert_eq!(v, f.stuck_value(row, col) == Some(true), "value ({}, {})", row, col);
                }
            }
        }
    }
}
