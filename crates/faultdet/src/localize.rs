//! Fault localization from two-direction test flags.
//!
//! A row-direction test cycle drives one *group* of rows and compares every
//! column output; a mismatch flags `(row-group, column)` — "at least one
//! cell in these rows of this column failed to update". The column-direction
//! pass symmetrically flags `(column-group, row)`. A cell is predicted
//! faulty when it sits at the intersection of a flagged column and a flagged
//! row (Fig. 4 of the paper), restricted to the candidate cells under test.

use rram::bits::{range_words, words_for, BitPlane};
use rram::fault::{FaultKind, FaultMap};

use crate::selected::CandidateMask;

/// Mismatch flags collected by one fault-kind pass, as bit planes indexed
/// by group: deterministic (no hashing, the D1 lint bans unordered
/// collections in the detection path) and ready for word-wise
/// intersection. A plane grows to the largest group and line recorded.
#[derive(Debug, Clone, Default)]
pub struct FlagSet {
    /// Flags from row-direction tests: bit `col` of `row_test[group]`.
    row_test: Vec<Vec<u64>>,
    /// Flags from column-direction tests: bit `row` of `col_test[group]`.
    col_test: Vec<Vec<u64>>,
}

/// Sets bit `line` of `planes[group]`, growing both as needed.
fn flag(planes: &mut Vec<Vec<u64>>, group: usize, line: usize) {
    if planes.len() <= group {
        planes.resize_with(group + 1, Vec::new);
    }
    let words = &mut planes[group];
    if words.len() <= line / 64 {
        words.resize(line / 64 + 1, 0);
    }
    words[line / 64] |= 1u64 << (line % 64);
}

/// Whether bit `line` of `planes[group]` is set.
fn flagged(planes: &[Vec<u64>], group: usize, line: usize) -> bool {
    planes
        .get(group)
        .and_then(|words| words.get(line / 64))
        .is_some_and(|w| w >> (line % 64) & 1 == 1)
}

fn count(planes: &[Vec<u64>]) -> usize {
    planes
        .iter()
        .flatten()
        .map(|w| w.count_ones() as usize)
        .sum()
}

impl FlagSet {
    /// Creates an empty flag set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a mismatch seen while driving row group `group` on column
    /// output `col`.
    pub fn flag_row_test(&mut self, group: usize, col: usize) {
        flag(&mut self.row_test, group, col);
    }

    /// Records a mismatch seen while driving column group `group` on row
    /// output `row`.
    pub fn flag_col_test(&mut self, group: usize, row: usize) {
        flag(&mut self.col_test, group, row);
    }

    /// Number of row-direction flags.
    pub fn row_test_flags(&self) -> usize {
        count(&self.row_test)
    }

    /// Number of column-direction flags.
    pub fn col_test_flags(&self) -> usize {
        count(&self.col_test)
    }

    /// Whether the row-direction pass flagged `(group, col)`.
    pub fn has_row_flag(&self, group: usize, col: usize) -> bool {
        flagged(&self.row_test, group, col)
    }

    /// Whether the column-direction pass flagged `(group, row)`.
    pub fn has_col_flag(&self, group: usize, row: usize) -> bool {
        flagged(&self.col_test, group, row)
    }

    /// Predicts the fault map: a candidate cell `(r, c)` is predicted to
    /// carry `kind` iff its row group flagged column `c` **and** its column
    /// group flagged row `r`.
    ///
    /// `test_size` must be the group size used while collecting the flags.
    ///
    /// # Panics
    ///
    /// Panics if `test_size` is zero.
    pub fn predict(
        &self,
        candidates: &CandidateMask,
        kind: FaultKind,
        test_size: usize,
    ) -> FaultMap {
        let plane = self.predict_plane(candidates, test_size);
        let mut map = FaultMap::healthy(candidates.rows(), candidates.cols());
        plane.for_each_one(|r, c| map.set(r, c, Some(kind)));
        map
    }

    /// [`FlagSet::predict`] as a bit plane of the predicted cells: row `r`
    /// is the AND of its candidate words, the row-flag words of its row
    /// group, and the column ranges of the column groups that flagged `r`.
    /// Flags outside the array never join an intersection.
    ///
    /// # Panics
    ///
    /// Panics if `test_size` is zero.
    pub fn predict_plane(&self, candidates: &CandidateMask, test_size: usize) -> BitPlane {
        assert!(test_size > 0, "test size must be non-zero");
        let (rows, cols) = (candidates.rows(), candidates.cols());
        let mut out = BitPlane::new(rows, cols);
        // An intersection needs flags from both directions.
        if self.row_test_flags() == 0 || self.col_test_flags() == 0 {
            return out;
        }
        let words = words_for(cols);
        let col_groups = cols.div_ceil(test_size);
        let group_cols: Vec<Vec<u64>> = (0..col_groups)
            .map(|g| range_words(g * test_size, ((g + 1) * test_size).min(cols), cols))
            .collect();
        let mut col_flags = vec![0u64; words];
        for r in 0..rows {
            let Some(row_flags) = self.row_test.get(r / test_size) else {
                break;
            };
            if row_flags.iter().all(|&w| w == 0) {
                continue;
            }
            // The columns whose column-direction test flagged row `r`.
            col_flags.fill(0);
            for (g, group) in group_cols.iter().enumerate() {
                if flagged(&self.col_test, g, r) {
                    for (acc, &w) in col_flags.iter_mut().zip(group) {
                        *acc |= w;
                    }
                }
            }
            let cand = candidates.row_words(r);
            for (w, dst) in out.row_mut(r).iter_mut().enumerate() {
                let row_flag = row_flags.get(w).copied().unwrap_or(0);
                *dst = cand[w] & row_flag & col_flags[w];
            }
        }
        out
    }
}

/// The `Vec<bool>` lookup-table prediction the bit planes replaced, from
/// explicit flag lists: the oracle of [`FlagSet::predict`].
#[cfg(test)]
pub(crate) fn predict_with_luts(
    row_flags: &[(usize, usize)],
    col_flags: &[(usize, usize)],
    candidates: &CandidateMask,
    kind: FaultKind,
    test_size: usize,
) -> FaultMap {
    let (rows, cols) = (candidates.rows(), candidates.cols());
    let mut map = FaultMap::healthy(rows, cols);
    if row_flags.is_empty() || col_flags.is_empty() {
        return map;
    }
    let row_groups = rows.div_ceil(test_size);
    let col_groups = cols.div_ceil(test_size);
    let mut row_lut = vec![false; row_groups * cols];
    for &(group, col) in row_flags {
        if group < row_groups && col < cols {
            row_lut[group * cols + col] = true;
        }
    }
    let mut col_lut = vec![false; col_groups * rows];
    for &(group, row) in col_flags {
        if group < col_groups && row < rows {
            col_lut[group * rows + row] = true;
        }
    }
    for (r, c) in candidates.iter() {
        if row_lut[(r / test_size) * cols + c] && col_lut[(c / test_size) * rows + r] {
            map.set(r, c, Some(kind));
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fault_is_localized_exactly() {
        // 10x10, test size 5, fault at (2, 7): row test flags (group 0, col 7),
        // column test flags (group 1, row 2).
        let mut flags = FlagSet::new();
        flags.flag_row_test(0, 7);
        flags.flag_col_test(1, 2);
        let candidates = CandidateMask::all(10, 10);
        let map = flags.predict(&candidates, FaultKind::StuckAt0, 5);
        assert_eq!(map.count_faulty(), 1);
        assert_eq!(map.get(2, 7), Some(FaultKind::StuckAt0));
    }

    #[test]
    fn cross_product_false_positives_emerge() {
        // Faults at (0, 0) and (1, 1) share both the row group and the
        // column group (test size 5), so the intersections (0,1) and (1,0)
        // are also predicted — the Fig. 4(a) false-positive pattern.
        let mut flags = FlagSet::new();
        flags.flag_row_test(0, 0);
        flags.flag_row_test(0, 1);
        flags.flag_col_test(0, 0);
        flags.flag_col_test(0, 1);
        let candidates = CandidateMask::all(10, 10);
        let map = flags.predict(&candidates, FaultKind::StuckAt0, 5);
        assert_eq!(map.count_faulty(), 4);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert!(map.get(r, c).is_some());
        }
    }

    #[test]
    fn candidates_limit_predictions() {
        // Same flags as above, but only (0,0) is a candidate: the selected-
        // cell improvement removes the other three predictions.
        let mut flags = FlagSet::new();
        flags.flag_row_test(0, 0);
        flags.flag_row_test(0, 1);
        flags.flag_col_test(0, 0);
        flags.flag_col_test(0, 1);
        let mut xbar = rram::crossbar::CrossbarBuilder::new(10, 10)
            .seed(0)
            .build()
            .unwrap();
        // Mark every cell except (0,0) as high level → not SA0 candidates.
        for r in 0..10 {
            for c in 0..10 {
                if (r, c) != (0, 0) {
                    xbar.write_level(r, c, 7).unwrap();
                }
            }
        }
        let store = crate::reference::OffChipStore::read_from(&xbar);
        let candidates = CandidateMask::sa0_candidates(&store, 0);
        let map = flags.predict(&candidates, FaultKind::StuckAt0, 5);
        assert_eq!(map.count_faulty(), 1);
        assert_eq!(map.get(0, 0), Some(FaultKind::StuckAt0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The bit-plane prediction equals the lookup-table prediction on
        /// random flags (some outside the array) and candidate sets, at
        /// test sizes that do not divide the array and arrays past one
        /// 64-bit word in both directions.
        #[test]
        fn bit_plane_predict_matches_the_lookup_table_oracle(
            seed in 0u64..10_000,
            rows in 1usize..150,
            cols in 1usize..150,
            test_size in 1usize..80,
            flags in 0usize..120,
            density in 0.0f64..1.0,
        ) {
            use rand::Rng;
            let mut rng = rram::rng::sim_rng(seed);
            let mask: Vec<bool> = (0..rows * cols).map(|_| rng.gen_bool(density)).collect();
            let candidates = CandidateMask::from_mask(rows, cols, &mask);
            let (row_groups, col_groups) = (rows.div_ceil(test_size), cols.div_ceil(test_size));
            // Up to two groups and five lines past the array's edges.
            let row_list: Vec<(usize, usize)> = (0..flags)
                .map(|_| (rng.gen_range(0..row_groups + 2), rng.gen_range(0..cols + 5)))
                .collect();
            let col_list: Vec<(usize, usize)> = (0..flags)
                .map(|_| (rng.gen_range(0..col_groups + 2), rng.gen_range(0..rows + 5)))
                .collect();
            let mut set = FlagSet::new();
            for &(g, c) in &row_list {
                set.flag_row_test(g, c);
            }
            for &(g, r) in &col_list {
                set.flag_col_test(g, r);
            }
            for &(g, c) in &row_list {
                proptest::prop_assert!(set.has_row_flag(g, c));
            }
            let want = predict_with_luts(&row_list, &col_list, &candidates, FaultKind::StuckAt1, test_size);
            proptest::prop_assert_eq!(set.predict(&candidates, FaultKind::StuckAt1, test_size), want);
        }
    }

    #[test]
    fn one_direction_alone_is_not_enough() {
        let mut flags = FlagSet::new();
        flags.flag_row_test(0, 3);
        let candidates = CandidateMask::all(8, 8);
        let map = flags.predict(&candidates, FaultKind::StuckAt1, 4);
        assert_eq!(map.count_faulty(), 0);
        assert_eq!(flags.row_test_flags(), 1);
        assert_eq!(flags.col_test_flags(), 0);
    }
}
