//! Selected-cell testing (§4.3 of the paper).
//!
//! SA0 faults pin a cell at minimum conductance, so a cell reading a *high*
//! level cannot be hiding one; symmetrically for SA1. The read operation at
//! the start of the test phase therefore tells the controller exactly which
//! cells are worth testing for each fault kind. Testing only those cells
//! shrinks both the test time (skipped groups) and the number of false
//! positives (flagged intersections only ever contain candidates).

use rram::bits::{any_in_range, BitPlane};

use crate::reference::OffChipStore;

/// A per-cell candidate mask for one fault kind: a [`BitPlane`], so the
/// group and line queries of a detection pass are word operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateMask {
    plane: BitPlane,
}

impl CandidateMask {
    /// Marks every cell as a candidate (all-cells testing).
    pub fn all(rows: usize, cols: usize) -> Self {
        Self {
            plane: BitPlane::full(rows, cols),
        }
    }

    /// SA0 candidates: cells whose stored level is at most `max_level`
    /// (high-resistance cells — the only place an SA0 fault can hide, since
    /// a stuck-at-0 cell always reads level 0).
    pub fn sa0_candidates(store: &OffChipStore, max_level: u16) -> Self {
        Self::from_predicate(store, |level| level <= max_level)
    }

    /// SA1 candidates: cells whose stored level is at least `min_level`
    /// (low-resistance cells).
    pub fn sa1_candidates(store: &OffChipStore, min_level: u16) -> Self {
        Self::from_predicate(store, |level| level >= min_level)
    }

    fn from_predicate(store: &OffChipStore, pred: impl Fn(u16) -> bool) -> Self {
        let mut plane = BitPlane::new(store.rows(), store.cols());
        for r in 0..store.rows() {
            let levels = store.stored_row(r).chunks(64);
            for (word, chunk) in plane.row_mut(r).iter_mut().zip(levels) {
                *word = chunk
                    .iter()
                    .enumerate()
                    .fold(0, |w, (b, &level)| w | u64::from(pred(level)) << b);
            }
        }
        Self { plane }
    }

    /// Builds a mask from an explicit row-major bitmap — the incremental
    /// detector's pending-cell set.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != rows * cols`.
    pub fn from_mask(rows: usize, cols: usize, mask: &[bool]) -> Self {
        Self {
            plane: BitPlane::from_bools(rows, cols, mask),
        }
    }

    /// Intersects the mask with a stored-level predicate (selected-cell
    /// testing applied on top of a pending set).
    ///
    /// # Panics
    ///
    /// Panics if the store dimensions differ from the mask's.
    pub fn restrict_levels(mut self, store: &OffChipStore, pred: impl Fn(u16) -> bool) -> Self {
        assert!(
            store.rows() == self.rows() && store.cols() == self.cols(),
            "store dimensions must match the mask"
        );
        for r in 0..self.rows() {
            let stored = store.stored_row(r);
            for word_index in 0..self.plane.words_per_row() {
                let word = &mut self.plane.row_mut(r)[word_index];
                let mut rest = *word;
                while rest != 0 {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if !pred(stored[word_index * 64 + bit]) {
                        *word &= !(1u64 << bit);
                    }
                }
            }
        }
        self
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.plane.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.plane.cols()
    }

    /// The candidates as a bit plane.
    pub fn plane(&self) -> &BitPlane {
        &self.plane
    }

    /// Whether `(row, col)` is a candidate.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        self.plane.get(row, col)
    }

    /// Total number of candidate cells.
    pub fn count(&self) -> usize {
        self.plane.count_ones()
    }

    /// Whether a row slice contains at least one candidate (drives the
    /// decision to spend a test cycle on this group).
    pub fn any_in_rows(&self, mut rows: std::ops::Range<usize>) -> bool {
        rows.any(|r| self.plane.row(r).iter().any(|&w| w != 0))
    }

    /// Whether a column slice contains at least one candidate.
    pub fn any_in_cols(&self, cols: std::ops::Range<usize>) -> bool {
        (0..self.rows()).any(|r| any_in_range(self.plane.row(r), cols.start, cols.end))
    }

    /// The columns with a candidate within the given row slice, as one
    /// row's words (controls which output ports are compared during a
    /// row-group test).
    pub fn columns_in_rows(&self, rows: std::ops::Range<usize>) -> Vec<u64> {
        let mut cols = vec![0u64; self.plane.words_per_row()];
        for r in rows {
            for (acc, &w) in cols.iter_mut().zip(self.plane.row(r)) {
                *acc |= w;
            }
        }
        cols
    }

    /// Whether column `col` has a candidate within the given row slice.
    pub fn column_has_candidate(&self, mut rows: std::ops::Range<usize>, col: usize) -> bool {
        rows.any(|r| self.plane.get(r, col))
    }

    /// Whether row `row` has a candidate within the given column slice.
    pub fn row_has_candidate(&self, row: usize, cols: std::ops::Range<usize>) -> bool {
        any_in_range(self.plane.row(row), cols.start, cols.end)
    }

    /// The words of one row of the mask (bit `c % 64` of word `c / 64` ⇔
    /// `contains(row, c)`).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_words(&self, row: usize) -> &[u64] {
        assert!(row < self.rows(), "row {row} out of bounds");
        self.plane.row(row)
    }

    /// Iterates over candidate coordinates in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> {
        self.plane.ones().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rram::crossbar::CrossbarBuilder;
    use rram::fault::{FaultKind, FaultMap};

    fn store_from_levels(levels: &[(usize, usize, u16)]) -> OffChipStore {
        let mut x = CrossbarBuilder::new(4, 4).seed(0).build().unwrap();
        for &(r, c, l) in levels {
            x.write_level(r, c, l).unwrap();
        }
        OffChipStore::read_from(&x)
    }

    #[test]
    fn all_cells_mask() {
        let m = CandidateMask::all(3, 5);
        assert_eq!(m.count(), 15);
        assert!(m.contains(2, 4));
        assert!(m.any_in_rows(0..1));
        assert!(m.any_in_cols(4..5));
    }

    #[test]
    fn sa0_candidates_are_low_level_cells() {
        let store = store_from_levels(&[(0, 0, 7), (1, 1, 1), (2, 2, 0)]);
        let m = CandidateMask::sa0_candidates(&store, 1);
        assert!(!m.contains(0, 0), "level-7 cell cannot hide SA0");
        assert!(m.contains(1, 1));
        assert!(m.contains(2, 2));
        assert!(m.contains(3, 3), "fresh cells read 0");
    }

    #[test]
    fn sa1_candidates_are_high_level_cells() {
        let store = store_from_levels(&[(0, 0, 7), (1, 1, 6), (2, 2, 3)]);
        let m = CandidateMask::sa1_candidates(&store, 6);
        assert!(m.contains(0, 0));
        assert!(m.contains(1, 1));
        assert!(!m.contains(2, 2));
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn stuck_cells_are_always_their_kinds_candidates() {
        let mut x = CrossbarBuilder::new(4, 4).seed(0).build().unwrap();
        for r in 0..4 {
            for c in 0..4 {
                x.write_level(r, c, 4).unwrap();
            }
        }
        let mut map = FaultMap::healthy(4, 4);
        map.set(0, 0, Some(FaultKind::StuckAt0));
        map.set(1, 1, Some(FaultKind::StuckAt1));
        x.apply_fault_map(&map);
        let store = OffChipStore::read_from(&x);
        // SA0 cell reads 0 → SA0 candidate for any threshold.
        assert!(CandidateMask::sa0_candidates(&store, 0).contains(0, 0));
        // SA1 cell reads 7 → SA1 candidate for any threshold.
        assert!(CandidateMask::sa1_candidates(&store, 7).contains(1, 1));
    }

    #[test]
    fn explicit_masks_and_level_restriction() {
        let store = store_from_levels(&[(0, 0, 7), (1, 1, 1)]);
        // Pending set: (0,0), (1,1), (2,2).
        let mut pending = vec![false; 16];
        for i in [0usize, 5, 10] {
            pending[i] = true;
        }
        let m = CandidateMask::from_mask(4, 4, &pending);
        assert_eq!(m.count(), 3);
        assert_eq!(m.row_words(1), &[0b0010]);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(0, 0), (1, 1), (2, 2)]);
        // SA0 restriction drops the level-7 cell but keeps low-level ones.
        let sa0 = m.restrict_levels(&store, |level| level <= 1);
        assert!(!sa0.contains(0, 0));
        assert!(sa0.contains(1, 1));
        assert!(sa0.contains(2, 2), "fresh cells read 0");
        assert_eq!(sa0.count(), 2);
    }

    #[test]
    fn group_queries() {
        let store = store_from_levels(&[(2, 3, 7)]);
        let m = CandidateMask::sa1_candidates(&store, 7);
        assert_eq!(m.count(), 1);
        assert!(m.any_in_rows(2..3));
        assert!(!m.any_in_rows(0..2));
        assert!(m.any_in_cols(3..4));
        assert!(!m.any_in_cols(0..3));
        assert!(m.column_has_candidate(0..4, 3));
        assert!(!m.column_has_candidate(0..2, 3));
        assert!(m.row_has_candidate(2, 2..4));
        assert!(!m.row_has_candidate(1, 0..4));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(2, 3)]);
    }
}
