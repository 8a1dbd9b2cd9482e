//! Row-major bit planes: one bit per crossbar cell, 64 cells per word.
//!
//! The detection campaign reasons about sets of cells — the candidates of
//! a kind pass, the lines its sweeps flagged, the cells it predicts and
//! the cells that are really stuck. As bit planes those sets combine a
//! word at a time: a prediction is an AND of candidate, row-flag and
//! column-flag words, and a confusion count is a popcount of two planes.
//!
//! Each row starts on a fresh word (`words_per_row = ⌈cols / 64⌉`), and
//! the bits past `cols` in a row's last word are always zero, so a row's
//! words can be ANDed, ORed and counted without masking.

/// A `rows × cols` set of cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPlane {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

/// Words needed for `bits` bits.
#[inline]
pub fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// The words of the bit range `lo..hi` over a line of `len` bits (bits
/// `lo..hi` set, every other bit clear).
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > len`.
pub fn range_words(lo: usize, hi: usize, len: usize) -> Vec<u64> {
    assert!(
        lo <= hi && hi <= len,
        "bit range {lo}..{hi} outside 0..{len}"
    );
    let mut out = vec![0u64; words_for(len)];
    set_range(&mut out, lo, hi);
    out
}

/// Sets bits `lo..hi` of `words`.
#[inline]
fn set_range(words: &mut [u64], lo: usize, hi: usize) {
    let mut b = lo;
    while b < hi {
        let (w, off) = (b / 64, b % 64);
        let n = (64 - off).min(hi - b);
        let mask = if n == 64 {
            !0
        } else {
            ((1u64 << n) - 1) << off
        };
        words[w] |= mask;
        b += n;
    }
}

/// Whether any of bits `lo..hi` of `words` is set.
#[inline]
pub fn any_in_range(words: &[u64], lo: usize, hi: usize) -> bool {
    let mut b = lo;
    while b < hi {
        let (w, off) = (b / 64, b % 64);
        let n = (64 - off).min(hi - b);
        let mask = if n == 64 {
            !0
        } else {
            ((1u64 << n) - 1) << off
        };
        if words[w] & mask != 0 {
            return true;
        }
        b += n;
    }
    false
}

/// Calls `f(bit)` for every set bit of `words`, ascending.
#[inline]
pub fn for_each_one(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Calls `f(bit)` for every set bit of `words` in `lo..hi`, ascending.
#[inline]
pub fn for_each_one_in(words: &[u64], lo: usize, hi: usize, mut f: impl FnMut(usize)) {
    if lo >= hi {
        return;
    }
    let (first, last) = (lo / 64, (hi - 1) / 64);
    for (w, &word) in words.iter().enumerate().take(last + 1).skip(first) {
        let mut rest = word;
        if w == first {
            rest &= !0u64 << (lo % 64);
        }
        if w == last && !hi.is_multiple_of(64) {
            rest &= (1u64 << (hi % 64)) - 1;
        }
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

impl BitPlane {
    /// An empty plane.
    pub fn new(rows: usize, cols: usize) -> Self {
        let words_per_row = words_for(cols);
        Self {
            rows,
            cols,
            words_per_row,
            words: vec![0; rows * words_per_row],
        }
    }

    /// A plane with every cell set.
    pub fn full(rows: usize, cols: usize) -> Self {
        let mut plane = Self::new(rows, cols);
        for r in 0..rows {
            set_range(plane.row_mut(r), 0, cols);
        }
        plane
    }

    /// The plane of the `true` entries of a row-major `rows × cols` mask.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != rows * cols`.
    pub fn from_bools(rows: usize, cols: usize, mask: &[bool]) -> Self {
        assert_eq!(
            mask.len(),
            rows * cols,
            "mask length must equal rows * cols"
        );
        let mut plane = Self::new(rows, cols);
        if cols == 0 {
            return plane;
        }
        for (r, line) in mask.chunks_exact(cols).enumerate() {
            let row = plane.row_mut(r);
            for (c, &m) in line.iter().enumerate() {
                row[c / 64] |= u64::from(m) << (c % 64);
            }
        }
        plane
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Words per row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The words of row `row` (bit `c % 64` of word `c / 64` is column
    /// `c`).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row(&self, row: usize) -> &[u64] {
        &self.words[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// Mutable words of row `row`. Bits past `cols` must stay clear.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [u64] {
        &mut self.words[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// Whether `(row, col)` is set.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(
            row < self.rows && col < self.cols,
            "({row}, {col}) out of bounds"
        );
        self.row(row)[col / 64] >> (col % 64) & 1 == 1
    }

    /// Sets or clears `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, on: bool) {
        assert!(
            row < self.rows && col < self.cols,
            "({row}, {col}) out of bounds"
        );
        let word = &mut self.row_mut(row)[col / 64];
        let bit = 1u64 << (col % 64);
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Number of set cells.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of cells set in both planes.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn count_and(&self, other: &BitPlane) -> usize {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "plane dimensions must match"
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// ORs `other` into this plane.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn or_assign(&mut self, other: &BitPlane) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "plane dimensions must match"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// ORs `src` (a plane of at most this plane's size) into this plane
    /// with its origin at `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not fit at that origin.
    pub fn or_at(&mut self, row0: usize, col0: usize, src: &BitPlane) {
        assert!(
            row0 + src.rows <= self.rows && col0 + src.cols <= self.cols,
            "a {}x{} plane at ({row0}, {col0}) does not fit {}x{}",
            src.rows,
            src.cols,
            self.rows,
            self.cols
        );
        let (w0, shift) = (col0 / 64, col0 % 64);
        for r in 0..src.rows {
            let from = src.row(r);
            let to = &mut self.row_mut(row0 + r)[w0..];
            for (k, &word) in from.iter().enumerate() {
                if word == 0 {
                    continue;
                }
                to[k] |= word << shift;
                if shift > 0 {
                    let carry = word >> (64 - shift);
                    if carry != 0 {
                        to[k + 1] |= carry;
                    }
                }
            }
        }
    }

    /// Calls `f(row, col)` for every set cell, in row-major order.
    pub fn for_each_one(&self, mut f: impl FnMut(usize, usize)) {
        for r in 0..self.rows {
            for_each_one(self.row(r), |c| f(r, c));
        }
    }

    /// The set cells as `(row, col)`, in row-major order.
    pub fn ones(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.count_ones());
        self.for_each_one(|r, c| out.push((r, c)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count_and_iterate() {
        let mut p = BitPlane::new(3, 130);
        for &(r, c) in &[(0, 0), (0, 63), (0, 64), (1, 129), (2, 70)] {
            p.set(r, c, true);
        }
        assert!(p.get(0, 63) && p.get(0, 64) && p.get(1, 129));
        assert!(!p.get(1, 128));
        assert_eq!(p.count_ones(), 5);
        let mut seen = Vec::new();
        p.for_each_one(|r, c| seen.push((r, c)));
        assert_eq!(seen, vec![(0, 0), (0, 63), (0, 64), (1, 129), (2, 70)]);
        assert_eq!(p.ones(), seen);
        p.set(0, 64, false);
        assert_eq!(p.count_ones(), 4);
    }

    #[test]
    fn full_planes_keep_bits_past_the_last_column_clear() {
        for cols in [1usize, 63, 64, 65, 128, 130] {
            let p = BitPlane::full(2, cols);
            assert_eq!(p.count_ones(), 2 * cols);
            assert_eq!(p, BitPlane::from_bools(2, cols, &vec![true; 2 * cols]));
        }
    }

    #[test]
    fn ranges_match_a_bool_walk() {
        for len in [1usize, 7, 64, 65, 200] {
            for lo in 0..len.min(70) {
                for hi in [lo, lo + 1, (lo + 63).min(len), len] {
                    if hi < lo || hi > len {
                        continue;
                    }
                    let words = range_words(lo, hi, len);
                    let mut ones = Vec::new();
                    for_each_one(&words, |b| ones.push(b));
                    assert_eq!(ones, (lo..hi).collect::<Vec<_>>());
                    let all = range_words(0, len, len);
                    let mut inside = Vec::new();
                    for_each_one_in(&all, lo, hi, |b| inside.push(b));
                    assert_eq!(inside, ones);
                    let probe = range_words(lo.saturating_sub(1), lo, len);
                    assert!(!any_in_range(&probe, lo, hi));
                    assert_eq!(any_in_range(&words, lo, hi), hi > lo);
                }
            }
        }
    }

    #[test]
    fn or_at_places_a_plane_at_any_column_offset() {
        let mut src = BitPlane::new(2, 70);
        for &(r, c) in &[(0, 0), (0, 63), (1, 64), (1, 69)] {
            src.set(r, c, true);
        }
        for col0 in [0usize, 1, 5, 63, 64, 100] {
            let mut dst = BitPlane::new(4, 200);
            dst.or_at(1, col0, &src);
            let mut seen = Vec::new();
            dst.for_each_one(|r, c| seen.push((r, c)));
            assert_eq!(
                seen,
                vec![(1, col0), (1, col0 + 63), (2, col0 + 64), (2, col0 + 69)]
            );
        }
    }
}
