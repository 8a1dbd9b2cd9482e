//! Hard-fault taxonomy and dense fault maps.
//!
//! The paper classifies RRAM hard faults into stuck-at-0 (the cell is pinned
//! at its minimum conductance and cannot be SET) and stuck-at-1 (pinned at the
//! maximum conductance and cannot be RESET). Both arise from fabrication
//! defects and from write-endurance wear-out.

use std::fmt;

use crate::bits::BitPlane;

/// The two hard-fault classes of an RRAM cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// Stuck-at-0: conductance pinned at the minimum (high resistance).
    /// The cell always reads as level 0 and ignores SET pulses.
    StuckAt0,
    /// Stuck-at-1: conductance pinned at the maximum (low resistance).
    /// The cell always reads as the top level and ignores RESET pulses.
    StuckAt1,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::StuckAt0 => write!(f, "SA0"),
            FaultKind::StuckAt1 => write!(f, "SA1"),
        }
    }
}

/// The health state of a single cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultState {
    /// The cell can still be programmed (possibly with soft variation).
    #[default]
    Healthy,
    /// The cell carries a hard fault and cannot be reprogrammed.
    Stuck(FaultKind),
}

impl FaultState {
    /// Returns `true` when the cell carries a hard fault.
    #[inline]
    pub fn is_faulty(&self) -> bool {
        matches!(self, FaultState::Stuck(_))
    }

    /// Returns the fault kind, if any.
    pub fn kind(&self) -> Option<FaultKind> {
        match self {
            FaultState::Healthy => None,
            FaultState::Stuck(k) => Some(*k),
        }
    }
}

/// A dense `rows × cols` map of per-cell fault states.
///
/// Used both as the *ground truth* injected into a simulated crossbar and as
/// the *prediction* produced by the on-line detector, so that the two can be
/// compared cell-by-cell for precision/recall scoring.
///
/// # Example
///
/// ```
/// use rram::fault::{FaultKind, FaultMap};
///
/// let mut map = FaultMap::healthy(4, 4);
/// map.set(1, 2, Some(FaultKind::StuckAt0));
/// assert_eq!(map.count_faulty(), 1);
/// assert_eq!(map.get(1, 2), Some(FaultKind::StuckAt0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMap {
    rows: usize,
    cols: usize,
    cells: Vec<Option<FaultKind>>,
}

impl FaultMap {
    /// Creates an all-healthy map.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn healthy(rows: usize, cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "fault map dimensions must be non-zero"
        );
        Self {
            rows,
            cols,
            cells: vec![None; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "({row}, {col}) out of bounds"
        );
        row * self.cols + col
    }

    /// The fault (if any) at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<FaultKind> {
        self.cells[self.idx(row, col)]
    }

    /// Sets or clears the fault at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, fault: Option<FaultKind>) {
        let i = self.idx(row, col);
        self.cells[i] = fault;
    }

    /// Total number of faulty cells.
    pub fn count_faulty(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// Number of cells with the given fault kind.
    pub fn count_kind(&self, kind: FaultKind) -> usize {
        self.cells.iter().filter(|c| **c == Some(kind)).count()
    }

    /// Fraction of faulty cells in `[0, 1]`.
    pub fn fraction_faulty(&self) -> f64 {
        self.count_faulty() as f64 / (self.rows * self.cols) as f64
    }

    /// Marks every faulty cell of `src` on this map with its origin at
    /// `(row0, col0)`, combining kinds the way a differential pair does:
    /// SA1 (the severe kind — it pins full-scale current) wins wherever
    /// either map says SA1. Composes per-tile maps into a layer's logical
    /// map.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not fit at that origin.
    pub fn overlay_at(&mut self, row0: usize, col0: usize, src: &FaultMap) {
        assert!(
            row0 + src.rows <= self.rows && col0 + src.cols <= self.cols,
            "a {}x{} map at ({row0}, {col0}) does not fit {}x{}",
            src.rows,
            src.cols,
            self.rows,
            self.cols
        );
        for (r, line) in src.cells.chunks_exact(src.cols).enumerate() {
            let start = (row0 + r) * self.cols + col0;
            for (dst, &fault) in self.cells[start..start + src.cols].iter_mut().zip(line) {
                if let Some(kind) = fault {
                    *dst = Some(match (*dst, kind) {
                        (Some(FaultKind::StuckAt1), _) | (_, FaultKind::StuckAt1) => {
                            FaultKind::StuckAt1
                        }
                        _ => FaultKind::StuckAt0,
                    });
                }
            }
        }
    }

    /// The faulty cells as a bit plane (kind-agnostic).
    pub fn faulty_plane(&self) -> BitPlane {
        let mut plane = BitPlane::new(self.rows, self.cols);
        for (r, line) in self.cells.chunks_exact(self.cols).enumerate() {
            let words = plane.row_mut(r);
            for (c, cell) in line.iter().enumerate() {
                words[c / 64] |= u64::from(cell.is_some()) << (c % 64);
            }
        }
        plane
    }

    /// Iterates over `(row, col, kind)` for every faulty cell.
    pub fn iter_faulty(&self) -> impl Iterator<Item = (usize, usize, FaultKind)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter_map(move |(i, c)| c.map(|kind| (i / self.cols, i % self.cols, kind)))
    }

    /// Merges another map into this one; existing faults are kept when both
    /// maps mark a cell (first-fault-wins, matching physical irreversibility).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn merge(&mut self, other: &FaultMap) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "fault map dimensions must match"
        );
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            if mine.is_none() {
                *mine = *theirs;
            }
        }
    }

    /// Returns the rows that contain at least one fault.
    pub fn rows_with_faults(&self) -> Vec<usize> {
        (0..self.rows)
            .filter(|&r| (0..self.cols).any(|c| self.get(r, c).is_some()))
            .collect()
    }

    /// Returns the columns that contain at least one fault.
    pub fn cols_with_faults(&self) -> Vec<usize> {
        (0..self.cols)
            .filter(|&c| (0..self.rows).any(|r| self.get(r, c).is_some()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_places_a_map_and_lets_sa1_win() {
        let mut dst = FaultMap::healthy(3, 4);
        dst.set(1, 2, Some(FaultKind::StuckAt0));
        dst.set(1, 3, Some(FaultKind::StuckAt1));
        let mut src = FaultMap::healthy(2, 2);
        src.set(0, 0, Some(FaultKind::StuckAt1));
        src.set(0, 1, Some(FaultKind::StuckAt0));
        src.set(1, 1, Some(FaultKind::StuckAt0));
        dst.overlay_at(1, 2, &src);
        assert_eq!(dst.get(1, 2), Some(FaultKind::StuckAt1), "SA1 beats SA0");
        assert_eq!(dst.get(1, 3), Some(FaultKind::StuckAt1), "SA1 stays");
        assert_eq!(dst.get(2, 3), Some(FaultKind::StuckAt0));
        assert_eq!(dst.get(2, 2), None);
        assert_eq!(dst.count_faulty(), 3);
        assert_eq!(dst.faulty_plane().count_ones(), 3);
    }

    #[test]
    fn healthy_map_has_no_faults() {
        let map = FaultMap::healthy(8, 4);
        assert_eq!(map.rows(), 8);
        assert_eq!(map.cols(), 4);
        assert_eq!(map.count_faulty(), 0);
        assert_eq!(map.fraction_faulty(), 0.0);
        assert!(map.iter_faulty().next().is_none());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut map = FaultMap::healthy(3, 3);
        map.set(0, 0, Some(FaultKind::StuckAt1));
        map.set(2, 1, Some(FaultKind::StuckAt0));
        assert_eq!(map.get(0, 0), Some(FaultKind::StuckAt1));
        assert_eq!(map.get(2, 1), Some(FaultKind::StuckAt0));
        assert_eq!(map.get(1, 1), None);
        assert_eq!(map.count_kind(FaultKind::StuckAt0), 1);
        assert_eq!(map.count_kind(FaultKind::StuckAt1), 1);
        map.set(0, 0, None);
        assert_eq!(map.count_faulty(), 1);
    }

    #[test]
    fn iter_faulty_yields_coordinates() {
        let mut map = FaultMap::healthy(2, 3);
        map.set(1, 2, Some(FaultKind::StuckAt0));
        let faults: Vec<_> = map.iter_faulty().collect();
        assert_eq!(faults, vec![(1, 2, FaultKind::StuckAt0)]);
    }

    #[test]
    fn merge_is_first_fault_wins() {
        let mut a = FaultMap::healthy(2, 2);
        a.set(0, 0, Some(FaultKind::StuckAt0));
        let mut b = FaultMap::healthy(2, 2);
        b.set(0, 0, Some(FaultKind::StuckAt1));
        b.set(1, 1, Some(FaultKind::StuckAt1));
        a.merge(&b);
        assert_eq!(a.get(0, 0), Some(FaultKind::StuckAt0));
        assert_eq!(a.get(1, 1), Some(FaultKind::StuckAt1));
    }

    #[test]
    fn rows_and_cols_with_faults() {
        let mut map = FaultMap::healthy(4, 4);
        map.set(1, 3, Some(FaultKind::StuckAt0));
        map.set(2, 3, Some(FaultKind::StuckAt1));
        assert_eq!(map.rows_with_faults(), vec![1, 2]);
        assert_eq!(map.cols_with_faults(), vec![3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let map = FaultMap::healthy(2, 2);
        let _ = map.get(2, 0);
    }

    #[test]
    fn fault_state_helpers() {
        assert!(!FaultState::Healthy.is_faulty());
        assert!(FaultState::Stuck(FaultKind::StuckAt0).is_faulty());
        assert_eq!(
            FaultState::Stuck(FaultKind::StuckAt1).kind(),
            Some(FaultKind::StuckAt1)
        );
        assert_eq!(FaultState::Healthy.kind(), None);
        assert_eq!(FaultState::default(), FaultState::Healthy);
    }

    #[test]
    fn fault_kind_display() {
        assert_eq!(FaultKind::StuckAt0.to_string(), "SA0");
        assert_eq!(FaultKind::StuckAt1.to_string(), "SA1");
    }
}
