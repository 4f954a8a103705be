//! Row-major bit matrix with the boolean matrix–vector product.

use crate::BitVec;
use core::fmt;

/// A dense `rows × cols` bit matrix.
///
/// Rows are stored as [`BitVec`]s, so the boolean matrix–vector product
/// (`OR`-sum of `AND`-products — the paper's Equations (1) and (2)) runs
/// word-parallel over the columns.
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    data: Vec<BitVec>,
}

impl BitMatrix {
    /// Creates an all-zero matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![BitVec::new(cols); rows] }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The bit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        self.data[row].get(col)
    }

    /// Sets the bit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        self.data[row].set(col, value);
    }

    /// Borrows a whole row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &BitVec {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        &self.data[row]
    }

    /// Mutable access to a row's packed words, for word-parallel
    /// writers. Bits at and above `cols()` must stay zero (the
    /// [`BitVec::as_words_mut`] invariant).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_words_mut(&mut self, row: usize) -> &mut [u64] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        self.data[row].as_words_mut()
    }

    /// Replaces a whole row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or the vector length differs from
    /// the column count.
    pub fn set_row(&mut self, row: usize, value: BitVec) {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        assert_eq!(value.len(), self.cols, "row length mismatch");
        self.data[row] = value;
    }

    /// Boolean vector–matrix product `y = x · M`:
    /// `y[c] = OR over r of (x[r] AND M[r][c])`.
    ///
    /// With `x` the active vector and `M` the routing matrix this is the
    /// paper's Equation (2); with `x` a one-hot input vector and `M` the
    /// STE matrix it is Equation (1).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn vector_product(&self, x: &BitVec) -> BitVec {
        let mut acc = BitVec::new(self.cols);
        self.vector_product_into(x, &mut acc);
        acc
    }

    /// Allocation-free form of [`vector_product`](Self::vector_product):
    /// overwrites `out` with `x · M`, reusing its storage. This is the
    /// inner loop of the AP engine's Equation (2), so callers stream
    /// symbols without a heap allocation per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `out.len() != cols`.
    pub fn vector_product_into(&self, x: &BitVec, out: &mut BitVec) {
        assert_eq!(x.len(), self.rows, "vector length must equal row count");
        assert_eq!(out.len(), self.cols, "output length must equal column count");
        out.clear();
        for r in x.ones() {
            out.or_assign(&self.data[r]);
        }
    }

    /// Number of set bits in the whole matrix.
    pub fn count_ones(&self) -> usize {
        self.data.iter().map(BitVec::count_ones).sum()
    }

    /// The transpose, computed word-parallel over 64×64 bit tiles
    /// (Hacker's Delight §7-3) rather than bit by bit.
    pub fn transpose(&self) -> BitMatrix {
        let mut t = BitMatrix::new(self.cols, self.rows);
        let row_blocks = self.rows.div_ceil(64);
        let col_blocks = self.cols.div_ceil(64);
        let mut tile = [0u64; 64];
        for rb in 0..row_blocks {
            for cb in 0..col_blocks {
                // Gather the 64×64 tile at (rb, cb); missing rows/words
                // read as zero.
                let mut any = false;
                for (i, w) in tile.iter_mut().enumerate() {
                    *w = self
                        .data
                        .get(rb * 64 + i)
                        .and_then(|row| row.as_words().get(cb).copied())
                        .unwrap_or(0);
                    any |= *w != 0;
                }
                if !any {
                    continue;
                }
                transpose64(&mut tile);
                for (j, &w) in tile.iter().enumerate() {
                    if w == 0 {
                        continue;
                    }
                    if let Some(row) = t.data.get_mut(cb * 64 + j) {
                        row.as_words_mut()[rb] = w;
                    }
                }
            }
        }
        t
    }
}

/// In-place transpose of a 64×64 bit tile (rows as `u64` words, bit `c`
/// of word `r` ⇔ element `(r, c)`): swap progressively smaller
/// off-diagonal blocks, 32×32 down to 1×1.
fn transpose64(tile: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask: u64 = 0x0000_0000_ffff_ffff;
    while width != 0 {
        let mut r = 0;
        while r < 64 {
            for i in r..r + width {
                let swap = (tile[i] >> width ^ tile[i + width]) & mask;
                tile[i] ^= swap << width;
                tile[i + width] ^= swap;
            }
            r += width * 2;
        }
        width /= 2;
        mask ^= mask << width;
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix[{}×{}]", self.rows, self.cols)?;
        for r in 0..self.rows.min(16) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(64) {
                write!(f, "{}", u8::from(self.get(r, c)))?;
            }
            writeln!(f)?;
        }
        if self.rows > 16 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Section IV.B example matrices.
    fn paper_r() -> BitMatrix {
        let mut r = BitMatrix::new(3, 3);
        r.set(0, 1, true); // S1 → S2
        r.set(0, 2, true); // S1 → S3
        r.set(1, 2, true); // S2 → S3
        r
    }

    #[test]
    fn equation_two_from_the_paper() {
        // a = [1 0 0] ⇒ f = a·R = [0 1 1].
        let f = paper_r().vector_product(&BitVec::from_indices(3, &[0]));
        assert_eq!(f.ones().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn product_with_empty_vector_is_zero() {
        let f = paper_r().vector_product(&BitVec::new(3));
        assert!(!f.any());
    }

    #[test]
    fn product_ors_multiple_rows() {
        let mut m = BitMatrix::new(2, 4);
        m.set(0, 0, true);
        m.set(1, 3, true);
        let y = m.vector_product(&BitVec::from_indices(2, &[0, 1]));
        assert_eq!(y.ones().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = paper_r();
        assert_eq!(m.transpose().transpose(), m);
        assert!(m.transpose().get(2, 1));
        assert!(!m.transpose().get(1, 2));
    }

    #[test]
    fn transpose_handles_non_square_tile_straddling_shapes() {
        // 70×130 exercises partial tiles on both axes.
        let mut m = BitMatrix::new(70, 130);
        let bits = [(0, 0), (0, 129), (63, 64), (64, 63), (69, 65), (1, 127)];
        for &(r, c) in &bits {
            m.set(r, c, true);
        }
        let t = m.transpose();
        assert_eq!(t.rows(), 130);
        assert_eq!(t.cols(), 70);
        assert_eq!(t.count_ones(), bits.len());
        for &(r, c) in &bits {
            assert!(t.get(c, r), "({r},{c}) must transpose to ({c},{r})");
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn vector_product_into_overwrites_dirty_scratch() {
        let m = paper_r();
        let mut out = BitVec::from_indices(3, &[0, 1, 2]);
        m.vector_product_into(&BitVec::from_indices(3, &[0]), &mut out);
        assert_eq!(out.ones().collect::<Vec<_>>(), vec![1, 2]);
        m.vector_product_into(&BitVec::new(3), &mut out);
        assert!(!out.any());
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn vector_product_into_checks_output_length() {
        let mut out = BitVec::new(4);
        paper_r().vector_product_into(&BitVec::new(3), &mut out);
    }

    #[test]
    fn set_row_replaces_contents() {
        let mut m = BitMatrix::new(2, 3);
        m.set_row(1, BitVec::from_indices(3, &[0, 2]));
        assert!(m.get(1, 0) && !m.get(1, 1) && m.get(1, 2));
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn set_row_checks_width() {
        let mut m = BitMatrix::new(2, 3);
        m.set_row(0, BitVec::new(4));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_bounds_checked() {
        let m = BitMatrix::new(2, 3);
        let _ = m.row(2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// vector_product agrees with the naive double loop.
        #[test]
        fn product_matches_reference(
            rows in 1usize..40,
            cols in 1usize..90,
            seed in any::<u64>(),
        ) {
            let mut state = seed | 1;
            let mut next_bool = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state & 1 == 1
            };
            let mut m = BitMatrix::new(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    if next_bool() {
                        m.set(r, c, true);
                    }
                }
            }
            let x: BitVec = (0..rows).map(|_| next_bool()).collect();
            let fast = m.vector_product(&x);
            for c in 0..cols {
                let expect = (0..rows).any(|r| x.get(r) && m.get(r, c));
                prop_assert_eq!(fast.get(c), expect, "col {}", c);
            }
            let mut reused = BitVec::from_indices(cols, &(0..cols).collect::<Vec<_>>());
            m.vector_product_into(&x, &mut reused);
            prop_assert_eq!(reused, fast);
        }

        /// The tiled word-level transpose agrees with the per-bit
        /// definition across tile-straddling shapes.
        #[test]
        fn transpose_matches_reference(
            rows in 1usize..150,
            cols in 1usize..150,
            seed in any::<u64>(),
        ) {
            let mut state = seed | 1;
            let mut next_bool = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state & 7 == 0
            };
            let mut m = BitMatrix::new(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    if next_bool() {
                        m.set(r, c, true);
                    }
                }
            }
            let t = m.transpose();
            prop_assert_eq!(t.rows(), cols);
            prop_assert_eq!(t.cols(), rows);
            for r in 0..rows {
                for c in 0..cols {
                    prop_assert_eq!(t.get(c, r), m.get(r, c), "({}, {})", r, c);
                }
            }
        }
    }
}
