//! Dense `f32` tensors and the matrix kernels the layers build on.
//!
//! Shapes follow the usual deep-learning conventions: activations are
//! `[batch, features]` or `[batch, channels, height, width]`; dense weights
//! are `[in_features, out_features]` so that a crossbar mapping puts inputs
//! on rows and output neurons on columns, matching the paper's `w(n)_{i,j}`
//! indexing.
//!
//! Every matrix product runs through one kernel, `gemm` (DESIGN.md
//! §6.9): four output rows at a time in a register tile that reads each
//! `b` row once for all four, or one SAXPY row at a time where a
//! mostly-zero row skips its zero terms. `matmul` calls it directly,
//! `matmul_tn` packs `selfᵀ` first (a plain copy at batch 1), and
//! `matmul_nt` runs as `(other · selfᵀ)ᵀ` so that `other` is never
//! packed. Each output element is `+0.0` plus its terms in ascending
//! shared index, so tiling, blocking and threads never change a bit.
//! Output rows are independent: above a MAC-count gate priced at the
//! measured thread-spawn cost (`PAR_MIN_FLOPS`) they fan out across
//! [`par`] workers in whole-row blocks; batch-1 training products stay on
//! the calling thread.

// Kernel module: keep the hot loops in iterator/slice style so the
// optimizer sees contiguous accesses (regressions to index loops are
// rejected at compile time).
#![deny(clippy::needless_range_loop)]

use std::fmt;

/// A dense tensor of `f32` values with an explicit shape.
///
/// # Example
///
/// ```
/// use nn::tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
/// let b = Tensor::from_vec(vec![3, 2], vec![1., 0., 0., 1., 1., 1.]);
/// let c = a.matmul(&b);
/// assert_eq!(c.shape(), &[2, 2]);
/// assert_eq!(c.data(), &[4., 5., 10., 11.]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} values]", self.data.len())
        }
    }
}

impl Tensor {
    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = checked_len(&shape);
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let len = checked_len(&shape);
        assert_eq!(
            data.len(),
            len,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true for valid shapes).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Self {
        let len = checked_len(&shape);
        assert_eq!(
            self.data.len(),
            len,
            "cannot reshape {:?} to {:?}",
            self.shape,
            shape
        );
        self.shape = shape;
        self
    }

    /// Number of rows of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Element access for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the indices are out of range.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element access for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the indices are out of range.
    #[inline]
    pub fn at2_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        &mut self.data[r * self.shape[1] + c]
    }

    /// Matrix product `self · other` for 2-D tensors (`[m,k] · [k,n] → [m,n]`).
    ///
    /// Rows of `self` that are mostly zeros skip their zero terms
    /// ([`par::SPARSITY_SKIP_THRESHOLD`]). Output rows are computed
    /// independently (row-blocked across worker threads above a FLOP gate);
    /// results are identical to the sequential kernel at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree or either tensor is not 2-D.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dimensions: {k} vs {k2}");
        let out = gemm(&self.data, k, &other.data, n, Skip::SparseRowsOfA);
        Tensor::from_vec(vec![m, n], out)
    }

    /// Matrix product `selfᵀ · other` (`[k,m]ᵀ · [k,n] → [m,n]`), used for
    /// weight gradients (`dW = Xᵀ · dY`).
    ///
    /// `selfᵀ` is packed into a contiguous `[m,k]` buffer first (for a
    /// one-row `self` the packing is a plain copy), then the product runs
    /// as [`Tensor::matmul`] does, zero skips included: a column of `self`
    /// that is mostly zeros skips its zero terms.
    ///
    /// # Panics
    ///
    /// Panics if the leading dimensions disagree or either tensor is not 2-D.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_tn leading dimensions: {k} vs {k2}");
        let at = transpose(&self.data, k, m);
        let out = gemm(&at, k, &other.data, n, Skip::SparseRowsOfA);
        Tensor::from_vec(vec![m, n], out)
    }

    /// Matrix product `self · otherᵀ` (`[m,k] · [n,k]ᵀ → [m,n]`), used for
    /// input gradients (`dX = dY · Wᵀ`). No term is ever skipped.
    ///
    /// Computed as `(other · selfᵀ)ᵀ`: the SAXPY runs over the rows of
    /// `other` in place, and only `self` and the result are transposed —
    /// `m·k + m·n` moves, none at all for a one-row `self` (batch 1),
    /// where packing `otherᵀ` instead would cost more than the product.
    /// Each output element is still `Σ_p self[i,p]·other[j,p]` in
    /// ascending `p` from `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if the trailing dimensions disagree or either tensor is not 2-D.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_nt trailing dimensions: {k} vs {k2}");
        let out_t = gemm(&other.data, k, &transpose(&self.data, m, k), m, Skip::Never);
        Tensor::from_vec(vec![m, n], transpose(&out_t, n, m))
    }

    /// Adds a row vector to every row of a 2-D tensor (bias addition).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len()` does not equal the column count.
    pub fn add_row_vector(&mut self, bias: &[f32]) {
        let n = self.cols();
        assert_eq!(bias.len(), n, "bias length must equal columns");
        for row in self.data.chunks_mut(n) {
            for (x, &b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Element-wise map producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

/// MAC-count gate below which a product stays on the calling thread.
///
/// A fan-out is paid for in thread spawns: an empty two-worker
/// [`std::thread::scope`] measured 42–44 µs on a 2-vCPU container (Xeon,
/// x86-64 baseline build), and one two-worker pass over a 78k-element row
/// block 59.6 µs against 11.3 µs sequentially. Splitting a product over
/// two workers saves at most half its time, so it only pays once the
/// product takes about twice the spawn cost; at the kernel's 2–8 MACs/ns
/// that is 0.2–0.7 M MACs. The gate sits above that band, so a product
/// that fans out saves at least its own spawn cost: batch-1 training
/// products (at most 0.6 M MACs in VGG-11/8, 78 k in the MLP) stay on the
/// calling thread, and the MLP's 200-sample evaluation forward (15.7 M)
/// still fans out.
const PAR_MIN_FLOPS: usize = 1 << 21;

/// Runs `f(first_row, row_block)` over `out` split into whole-row blocks,
/// in parallel when `flops` clears the gate, sequentially otherwise.
fn run_row_blocked<F>(out: &mut [f32], row_len: usize, flops: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if flops >= PAR_MIN_FLOPS && par::thread_count() > 1 {
        par::for_each_row_block_mut(out, row_len, f);
    } else {
        f(0, out);
    }
}

/// Which zero terms `a[i,p] · b[p,j]` a product drops from its sums.
///
/// Dropping a term whose product is `±0.0` never changes a sum that
/// starts from `+0.0` (such a sum is never `-0.0` under round-to-nearest,
/// and `x + ±0.0 == x` for every other `x`, NaN and ±∞ included). So the
/// rules below are pure speed for finite operands; they matter for bits
/// only when the other factor is ±∞ or NaN, where `0 · ∞ = NaN` would
/// otherwise enter the sum. Each product keeps the rule it has always had.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Skip<'a> {
    /// Keep every term.
    Never,
    /// In an `a` row that is mostly zeros ([`par::SPARSITY_SKIP_THRESHOLD`]),
    /// drop the terms whose `a[i,p]` is zero.
    SparseRowsOfA,
    /// In each output column `j` flagged here, drop the terms whose
    /// `b[p,j]` is zero (the rule of a product whose operands were swapped
    /// to put the long dimension on the SAXPY lanes).
    ZeroBInLanes(&'a [bool]),
}

/// Whether `zeros` zeros among `len` values are more than
/// [`par::SPARSITY_SKIP_THRESHOLD`] of them.
pub(crate) fn mostly_zero(zeros: usize, len: usize) -> bool {
    zeros as f32 > par::SPARSITY_SKIP_THRESHOLD * len as f32
}

/// Whether no value is ±∞ or NaN: the largest magnitude bit pattern is
/// below the exponent-all-ones patterns. An integer max vectorises where a
/// short-circuiting `all` would branch per value.
fn all_finite(values: &[f32]) -> bool {
    let max_abs_bits = values.iter().map(|v| v.to_bits() & 0x7fff_ffff).max();
    max_abs_bits.unwrap_or(0) < 0x7f80_0000
}

fn zero_count(values: &[f32]) -> usize {
    values.iter().filter(|&&v| v == 0.0).count()
}

/// The product `a · b` of row-major `a: [m,k]` and `b: [k,n]` (`m` is
/// `a.len() / k`), dropping the terms `skip` names, row-blocked across
/// workers above [`PAR_MIN_FLOPS`]. Every product in the crate runs here.
pub(crate) fn gemm(a: &[f32], k: usize, b: &[f32], n: usize, skip: Skip<'_>) -> Vec<f32> {
    let m = a.len() / k;
    let b = &b[..k * n];
    // Only `SparseRowsOfA` blocks (four rows and up) ask; the scan is
    // `k·n` against the product's `m·k·n`.
    let b_finite = matches!(skip, Skip::SparseRowsOfA) && m >= 4 && all_finite(b);
    let mut out = vec![0.0f32; m * n];
    run_row_blocked(&mut out, n, m * k * n, |i0, block| {
        let rows = block.len() / n;
        saxpy_rows(&a[i0 * k..(i0 + rows) * k], k, b, n, block, skip, b_finite);
    });
    out
}

/// The shared GEMM microkernel: `c[i,:] = Σ_p a[i,p] · b[p,:]` for a block
/// of output rows (`a: [rows,k]`, `b: [k,n]`, `c: [rows,n]` zeroed).
///
/// Rows go four at a time through [`saxpy_tile4`], which loads each `b`
/// row once for all four and keeps the partial sums in registers, every
/// term included. A block takes it when that gives the bits its skip rule
/// gives:
///
/// * `Never`: always.
/// * `SparseRowsOfA`: when no row is mostly zero, so nothing would drop;
///   or, with `b_finite`, when at most 3/4 of the block is zeros. Every
///   term the rule drops is then `0 · b = ±0.0` and leaves its sum as it
///   is, so the choice is speed alone: measured on this kernel (one x86-64
///   core, `n` = 8–100), the tile beats skipping SAXPY rows up to 70–75 %
///   zeros and loses beyond.
/// * `ZeroBInLanes`: when every `a` entry is finite, for the same reason.
///
/// Other blocks and the last `rows % 4` rows run one SAXPY row at a time
/// ([`saxpy_row`]), where a mostly-zero row saves an `n`-long SAXPY per
/// zero — e.g. activations after §5.2 magnitude pruning has parked >50 %
/// of the weights at zero, or ReLU-sparse features.
///
/// Either way each output element is `+0.0` plus its terms in ascending
/// `p`, each a plain `a·b` product (no FMA), so blocking, tiling and the
/// thread count never change a bit.
fn saxpy_rows(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
    skip: Skip<'_>,
    b_finite: bool,
) {
    for (a4, c4) in a.chunks(4 * k).zip(c.chunks_mut(4 * n)) {
        let tile = a4.len() == 4 * k
            && match skip {
                Skip::Never => true,
                Skip::SparseRowsOfA if b_finite => 4 * zero_count(a4) <= 3 * a4.len(),
                Skip::SparseRowsOfA => !a4
                    .chunks_exact(k)
                    .any(|row| mostly_zero(zero_count(row), k)),
                Skip::ZeroBInLanes(_) => all_finite(a4),
            };
        if tile {
            saxpy_tile4(a4, k, b, n, c4);
        } else {
            for (a_row, c_row) in a4.chunks_exact(k).zip(c4.chunks_exact_mut(n)) {
                saxpy_row(a_row, b, c_row, skip);
            }
        }
    }
}

/// One output row: `c_row += Σ_p a_row[p] · b[p,:]`, ascending `p`,
/// dropping the terms `skip` names.
fn saxpy_row(a_row: &[f32], b: &[f32], c_row: &mut [f32], skip: Skip<'_>) {
    let n = c_row.len();
    let skip_zero_a =
        matches!(skip, Skip::SparseRowsOfA) && mostly_zero(zero_count(a_row), a_row.len());
    for (&a, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
        if skip_zero_a && a == 0.0 {
            continue;
        }
        match skip {
            Skip::ZeroBInLanes(lanes) if !a.is_finite() => {
                for ((c, &bv), &drop) in c_row.iter_mut().zip(b_row).zip(lanes) {
                    if !(drop && bv == 0.0) {
                        *c += a * bv;
                    }
                }
            }
            _ => {
                for (c, &bv) in c_row.iter_mut().zip(b_row) {
                    *c += a * bv;
                }
            }
        }
    }
}

/// Four output rows at once (`a4: [4,k]`, `c4: [4,n]`), every term kept:
/// columns go in register tiles of 8, then 4, then 1.
fn saxpy_tile4(a4: &[f32], k: usize, b: &[f32], n: usize, c4: &mut [f32]) {
    let mut j = 0;
    while j + 8 <= n {
        saxpy_tile::<8>(a4, k, b, n, j, c4);
        j += 8;
    }
    if j + 4 <= n {
        saxpy_tile::<4>(a4, k, b, n, j, c4);
        j += 4;
    }
    while j < n {
        saxpy_tile::<1>(a4, k, b, n, j, c4);
        j += 1;
    }
}

/// Columns `j..j + W` of four output rows, summed in registers over all
/// `k` rows of `b` and stored once.
#[inline(always)]
fn saxpy_tile<const W: usize>(a4: &[f32], k: usize, b: &[f32], n: usize, j: usize, c4: &mut [f32]) {
    let (a0, rest) = a4.split_at(k);
    let (a1, rest) = rest.split_at(k);
    let (a2, a3) = rest.split_at(k);
    let mut acc = [[0.0f32; W]; 4];
    let [c0, c1, c2, c3] = &mut acc;
    let rows = b.chunks_exact(n).zip(a0).zip(a1).zip(a2).zip(a3);
    for ((((b_row, &x0), &x1), &x2), &x3) in rows {
        let lanes = c0
            .iter_mut()
            .zip(c1.iter_mut())
            .zip(c2.iter_mut())
            .zip(c3.iter_mut());
        for ((((y0, y1), y2), y3), &bv) in lanes.zip(&b_row[j..j + W]) {
            *y0 += x0 * bv;
            *y1 += x1 * bv;
            *y2 += x2 * bv;
            *y3 += x3 * bv;
        }
    }
    for (c_row, tile) in c4.chunks_exact_mut(n).zip(&acc) {
        c_row[j..j + W].copy_from_slice(tile);
    }
}

/// Row-major transpose of a `[rows, cols]` buffer into `[cols, rows]`.
///
/// Runs 16 input rows at a time, so each output row gets a 64-byte run
/// per pass and the 16 input rows it reads stay in L1; a plain
/// element-by-element scatter thrashed the cache (75 µs against 22 µs for
/// 64×576 on one core of a 2-vCPU Xeon container).
pub(crate) fn transpose(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    if rows == 1 || cols == 1 {
        return data.to_vec();
    }
    const BLOCK: usize = 16;
    let mut out = vec![0.0f32; rows * cols];
    for (bi, block) in data.chunks(BLOCK * cols).enumerate() {
        for (c, dst_row) in out.chunks_exact_mut(rows).enumerate() {
            let dst = &mut dst_row[bi * BLOCK..];
            for (d, src_row) in dst.iter_mut().zip(block.chunks_exact(cols)) {
                *d = src_row[c];
            }
        }
    }
    out
}

fn checked_len(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "tensor shape cannot be empty");
    assert!(
        shape.iter().all(|&d| d > 0),
        "tensor dimensions must be non-zero: {shape:?}"
    );
    shape.iter().product()
}

/// Unfolds image patches into a matrix for convolution-as-GEMM (im2col).
///
/// `input` is one sample `[channels, height, width]` flattened row-major.
/// Returns a `[out_h * out_w, channels * k * k]` tensor whose row `p` holds
/// the receptive field of output position `p`.
///
/// # Panics
///
/// Panics if the kernel/stride/padding combination does not produce at least
/// one output position.
pub fn im2col(
    input: &[f32],
    channels: usize,
    height: usize,
    width: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (out_h, out_w) = conv_output_size(height, width, k, stride, pad);
    let mut out = vec![0.0f32; out_h * out_w * channels * k * k];
    let row_len = channels * k * k;
    for oy in 0..out_h {
        for ox in 0..out_w {
            let patch = &mut out[(oy * out_w + ox) * row_len..(oy * out_w + ox + 1) * row_len];
            let mut idx = 0;
            for c in 0..channels {
                let plane = &input[c * height * width..(c + 1) * height * width];
                for ky in 0..k {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        patch[idx] = if iy >= 0
                            && ix >= 0
                            && (iy as usize) < height
                            && (ix as usize) < width
                        {
                            plane[iy as usize * width + ix as usize]
                        } else {
                            0.0
                        };
                        idx += 1;
                    }
                }
            }
        }
    }
    Tensor::from_vec(vec![out_h * out_w, row_len], out)
}

/// Folds a patch-gradient matrix back into an image (col2im), accumulating
/// overlapping contributions. Inverse-adjoint of [`im2col`], on its
/// transpose: `cols_t` is `[channels * k * k, out_h * out_w]`, one row per
/// receptive-field entry — the layout the convolution's input-gradient
/// product `W · dY` yields directly.
///
/// Each pixel sums its contributions from `+0.0` in ascending output
/// position, as the position-major fold did. The loop runs one input row
/// at a time: output rows `oy` ascending, then kernel columns `kx`
/// descending, which for a fixed pixel is ascending `ox`; within one
/// `(oy, kx)` every output position feeds a different pixel.
///
/// # Panics
///
/// Panics if `cols_t` has the wrong shape for the given geometry.
pub fn col2im(
    cols_t: &Tensor,
    channels: usize,
    height: usize,
    width: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let (out_h, out_w) = conv_output_size(height, width, k, stride, pad);
    let positions = out_h * out_w;
    assert_eq!(
        cols_t.shape(),
        &[channels * k * k, positions],
        "col2im shape mismatch"
    );
    let mut out = vec![0.0f32; channels * height * width];
    let planes = out.chunks_exact_mut(height * width);
    for (plane, patches) in planes.zip(cols_t.data().chunks_exact(k * k * positions)) {
        for (iy, row) in plane.chunks_exact_mut(width).enumerate() {
            // Output rows whose window covers input row `iy`: ky in 0..k.
            let oy_first = (iy + pad).saturating_sub(k - 1).div_ceil(stride);
            let oy_end = out_h.min((iy + pad) / stride + 1);
            for oy in oy_first..oy_end {
                let ky = iy + pad - oy * stride;
                for kx in (0..k).rev() {
                    let src = &patches[(ky * k + kx) * positions + oy * out_w..][..out_w];
                    // Output columns whose input column kx + ox·stride − pad
                    // lies inside the row.
                    let ox_first = pad.saturating_sub(kx).div_ceil(stride);
                    let Some(last_ix) = (width + pad).checked_sub(kx + 1) else {
                        continue;
                    };
                    let ox_end = out_w.min(last_ix / stride + 1);
                    if ox_first >= ox_end {
                        continue;
                    }
                    let dst = &mut row[ox_first * stride + kx - pad..];
                    let src = &src[ox_first..ox_end];
                    if stride == 1 {
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst.iter_mut().step_by(stride).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Output spatial size of a convolution.
///
/// # Panics
///
/// Panics if the configuration yields no output positions.
pub fn conv_output_size(
    height: usize,
    width: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> (usize, usize) {
    assert!(stride > 0, "stride must be positive");
    assert!(
        height + 2 * pad >= k && width + 2 * pad >= k,
        "kernel {k} larger than padded input {height}x{width}+{pad}"
    );
    (
        (height + 2 * pad - k) / stride + 1,
        (width + 2 * pad - k) / stride + 1,
    )
}

/// The products and the fold as they were before the blocked kernel: one
/// SAXPY row at a time, `selfᵀ` packed for `matmul_tn`, single-accumulator
/// dot products for `matmul_nt`, and a position-major fold over
/// `[positions, channels·k·k]` patches. Kept, sequential, as bit-for-bit
/// oracles for the tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::{conv_output_size, Tensor};

    fn saxpy_row_kernel(a_row: &[f32], b: &[f32], c_row: &mut [f32]) {
        let n = c_row.len();
        let zeros = a_row.iter().filter(|&&a| a == 0.0).count();
        let skip_zeros = zeros as f32 > par::SPARSITY_SKIP_THRESHOLD * a_row.len() as f32;
        for (p, &a) in a_row.iter().enumerate() {
            if skip_zeros && a == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c, &bv) in c_row.iter_mut().zip(b_row) {
                *c += a * bv;
            }
        }
    }

    pub(crate) fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = vec![0.0f32; m * n];
        for (a_row, c_row) in a.data().chunks_exact(k).zip(out.chunks_mut(n)) {
            saxpy_row_kernel(a_row, b.data(), c_row);
        }
        Tensor::from_vec(vec![m, n], out)
    }

    pub(crate) fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m) = (a.rows(), a.cols());
        let mut at = vec![0.0f32; k * m];
        for (p, a_row) in a.data().chunks_exact(m).enumerate() {
            for (i, &v) in a_row.iter().enumerate() {
                at[i * k + p] = v;
            }
        }
        matmul(&Tensor::from_vec(vec![m, k], at), b)
    }

    pub(crate) fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.rows());
        let mut out = vec![0.0f32; m * n];
        for (a_row, c_row) in a.data().chunks_exact(k).zip(out.chunks_mut(n)) {
            for (c, b_row) in c_row.iter_mut().zip(b.data().chunks_exact(k)) {
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                *c = acc;
            }
        }
        Tensor::from_vec(vec![m, n], out)
    }

    /// The fold over position-major `[out_h * out_w, channels * k * k]`
    /// patches.
    pub(crate) fn col2im(
        cols: &Tensor,
        channels: usize,
        height: usize,
        width: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Vec<f32> {
        let (out_h, out_w) = conv_output_size(height, width, k, stride, pad);
        let mut out = vec![0.0f32; channels * height * width];
        let row_len = channels * k * k;
        for oy in 0..out_h {
            for ox in 0..out_w {
                let patch =
                    &cols.data()[(oy * out_w + ox) * row_len..(oy * out_w + ox + 1) * row_len];
                let mut idx = 0;
                for c in 0..channels {
                    for ky in 0..k {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        for kx in 0..k {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if iy >= 0 && ix >= 0 && (iy as usize) < height && (ix as usize) < width
                            {
                                out[c * height * width + iy as usize * width + ix as usize] +=
                                    patch[idx];
                            }
                            idx += 1;
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_from_vec() {
        let t = Tensor::zeros(vec![2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
        assert!(!t.is_empty());
        let t = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        assert_eq!(t.at2(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_len() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0; 5]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![0., 1., 2., 3., 4., 5.]).reshape(vec![3, 2]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at2(2, 1), 5.0);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let i = Tensor::from_vec(vec![2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::from_vec(vec![3, 2], vec![1., 4., 2., 5., 3., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        // aᵀ = [[1,2,3],[4,5,6]]
        let at = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.matmul_tn(&b), at.matmul(&b));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![2, 3], vec![7., 9., 11., 8., 10., 12.]);
        let bt = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&bt));
    }

    /// Bit equality, except that any NaN matches any NaN: IEEE 754 leaves
    /// the payload and sign of a NaN result unspecified, and the compiler
    /// may commute a multiplication's operands.
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// `[rows, cols]` of `sin` noise; every third row is 70 % zeros and the
    /// rest 20 %, so both sides of the sparsity gate run.
    fn mixed_rows(rows: usize, cols: usize, seed: f32) -> Vec<f32> {
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            let zero_every = if r % 3 == 0 { 10 } else { 5 };
            for c in 0..cols {
                let zero = if r % 3 == 0 {
                    (c * 7 + r) % zero_every < 7
                } else {
                    (c * 3 + r) % zero_every == 0
                };
                out.push(if zero {
                    0.0
                } else {
                    ((r * cols + c) as f32 * seed).sin()
                });
            }
        }
        out
    }

    /// Sizes whose product clears [`PAR_MIN_FLOPS`], none a multiple of 4.
    fn parallel_sized() -> (usize, usize, usize) {
        let (k, n) = (131, 127);
        let m = (PAR_MIN_FLOPS / (k * n)) | 1;
        let m = if m * k * n < PAR_MIN_FLOPS { m + 2 } else { m };
        assert!(m * k * n >= PAR_MIN_FLOPS, "must clear the parallel gate");
        (m, k, n)
    }

    #[test]
    fn matmul_family_is_thread_count_invariant() {
        let (m, k, n) = parallel_sized();
        let a = Tensor::from_vec(vec![m, k], mixed_rows(m, k, 0.37));
        let b = Tensor::from_vec(vec![k, n], mixed_rows(k, n, 0.53));
        let a_t = Tensor::from_vec(vec![k, m], mixed_rows(k, m, 0.37));
        let b_t = Tensor::from_vec(vec![n, k], mixed_rows(n, k, 0.53));
        par::set_thread_count(1);
        let seq = (a.matmul(&b), a_t.matmul_tn(&b), a.matmul_nt(&b_t));
        par::set_thread_count(4);
        let parl = (a.matmul(&b), a_t.matmul_tn(&b), a.matmul_nt(&b_t));
        par::set_thread_count(0);
        assert_eq!(seq.0.data(), parl.0.data(), "matmul must be bit-identical");
        assert_eq!(
            seq.1.data(),
            parl.1.data(),
            "matmul_tn must be bit-identical"
        );
        assert_eq!(
            seq.2.data(),
            parl.2.data(),
            "matmul_nt must be bit-identical"
        );
    }

    #[test]
    fn matmul_tn_packed_matches_naive_on_sparse_input() {
        // Mostly-zero operand: exercises the sparsity-gated zero-skip, on
        // the parallel path.
        let (m, k, n) = parallel_sized();
        let mut a = vec![0.0f32; k * m];
        for (i, v) in a.iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = (i as f32 * 0.11).cos();
            }
        }
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.29).sin()).collect();
        let a_t = Tensor::from_vec(vec![k, m], a.clone());
        let b_t = Tensor::from_vec(vec![k, n], b.clone());
        // Naive reference: explicit transpose then matmul.
        let mut at = vec![0.0f32; m * k];
        for (p, row) in a.chunks_exact(m).enumerate() {
            for (i, &v) in row.iter().enumerate() {
                at[i * k + p] = v;
            }
        }
        let reference = Tensor::from_vec(vec![m, k], at).matmul(&b_t);
        par::set_thread_count(4);
        let packed = a_t.matmul_tn(&b_t);
        par::set_thread_count(0);
        assert_eq!(packed.data(), reference.data());
    }

    /// `c[i,j] = Σ_p a(i,p) · b(p,j)` from `+0.0` in ascending `p`; with
    /// `skip_sparse_rows`, a row of `a` with more than half zeros drops
    /// its zero terms.
    fn naive_product(
        (m, k, n): (usize, usize, usize),
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
        skip_sparse_rows: bool,
    ) -> Vec<f32> {
        let mut c = Vec::with_capacity(m * n);
        for i in 0..m {
            let zeros = (0..k).filter(|&p| a(i, p) == 0.0).count();
            let skip = skip_sparse_rows && zeros as f32 > 0.5 * k as f32;
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    if skip && a(i, p) == 0.0 {
                        continue;
                    }
                    acc += a(i, p) * b(p, j);
                }
                c.push(acc);
            }
        }
        c
    }

    #[test]
    fn products_match_naive_triple_loops_bit_for_bit() {
        let (big_k, big_n) = (347, 357);
        assert!(
            17 * big_k * big_n >= PAR_MIN_FLOPS,
            "the big case must fan out"
        );
        for threads in [1, 4] {
            par::set_thread_count(threads);
            for &(k, n) in &[(13usize, 11usize), (big_k, big_n)] {
                for m in [1usize, 2, 3, 4, 5, 17] {
                    let inf = [f32::INFINITY, f32::NEG_INFINITY];
                    let inf_nan = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
                    for specials in [&[][..], &inf, &inf_nan] {
                        check_products_against_naive((m, k, n), specials, threads);
                    }
                }
            }
        }
        par::set_thread_count(0);
    }

    fn check_products_against_naive(
        (m, k, n): (usize, usize, usize),
        specials: &[f32],
        threads: usize,
    ) {
        // `a` rows alternate sparse and dense. The first 13 rows of `b`
        // carry the `specials` (±∞, NaN), some of them facing zeros of `a`.
        let a = mixed_rows(m, k, 0.71);
        let mut b = mixed_rows(k, n, 0.29);
        for (idx, v) in b.iter_mut().enumerate().take(13 * n) {
            if let Some(&special) = [3, 9, 15]
                .iter()
                .position(|&at| idx % 23 == at)
                .and_then(|i| specials.get(i))
            {
                *v = special;
            }
        }
        let non_finite = !specials.is_empty();
        let at = |i: usize, p: usize| a[i * k + p];
        let a_m = Tensor::from_vec(vec![m, k], a.clone());
        let a_t = Tensor::from_vec(vec![k, m], transpose(&a, m, k));
        let b_m = Tensor::from_vec(vec![k, n], b.clone());
        let b_t = Tensor::from_vec(vec![n, k], transpose(&b, k, n));
        let bt = |p: usize, j: usize| b[p * n + j];
        let want_skip = naive_product((m, k, n), at, bt, true);
        let want_all = naive_product((m, k, n), at, bt, false);
        let case = format!("m={m} k={k} n={n} threads={threads} specials={specials:?}");
        assert!(
            same_bits(a_m.matmul(&b_m).data(), &want_skip),
            "matmul {case}"
        );
        assert!(
            same_bits(a_t.matmul_tn(&b_m).data(), &want_skip),
            "matmul_tn {case}"
        );
        assert!(
            same_bits(a_m.matmul_nt(&b_t).data(), &want_all),
            "matmul_nt {case}"
        );
        if non_finite {
            // The non-finite terms reach the sums, and the skips decide
            // which of them do.
            assert!(want_all.iter().any(|v| v.is_nan()), "{case}");
            assert!(!same_bits(&want_skip, &want_all), "{case}");
        } else {
            // With a finite `b` every skipped term is ±0.0.
            assert!(same_bits(&want_skip, &want_all), "{case}");
        }
    }

    #[test]
    fn bias_addition() {
        let mut t = Tensor::zeros(vec![2, 3]);
        t.add_row_vector(&[1., 2., 3.]);
        assert_eq!(t.data(), &[1., 2., 3., 1., 2., 3.]);
    }

    #[test]
    fn map_applies_elementwise() {
        let t = Tensor::from_vec(vec![1, 3], vec![-1., 0., 2.]);
        let r = t.map(|x| x.max(0.0));
        assert_eq!(r.data(), &[0., 0., 2.]);
    }

    #[test]
    fn conv_output_size_formula() {
        assert_eq!(conv_output_size(32, 32, 3, 1, 1), (32, 32));
        assert_eq!(conv_output_size(32, 32, 2, 2, 0), (16, 16));
        assert_eq!(conv_output_size(5, 5, 3, 1, 0), (3, 3));
    }

    #[test]
    fn im2col_simple_3x3_kernel2() {
        // One channel, 3x3 image, 2x2 kernel, stride 1, no padding.
        #[rustfmt::skip]
        let img = vec![
            0., 1., 2.,
            3., 4., 5.,
            6., 7., 8.,
        ];
        let cols = im2col(&img, 1, 3, 3, 2, 1, 0);
        assert_eq!(cols.shape(), &[4, 4]);
        assert_eq!(&cols.data()[0..4], &[0., 1., 3., 4.]);
        assert_eq!(&cols.data()[12..16], &[4., 5., 7., 8.]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let img = vec![1.0; 4]; // 2x2
        let cols = im2col(&img, 1, 2, 2, 3, 1, 1);
        assert_eq!(cols.shape(), &[4, 9]);
        // Top-left patch covers padding on top and left: corners are zero.
        let first = &cols.data()[0..9];
        assert_eq!(first[0], 0.0);
        assert_eq!(first[4], 1.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let (c, h, w, k, s, p) = (2, 4, 4, 3, 1, 1);
        let x: Vec<f32> = (0..c * h * w).map(|i| (i as f32 * 0.37).sin()).collect();
        let cols = im2col(&x, c, h, w, k, s, p);
        let y: Vec<f32> = (0..cols.len()).map(|i| (i as f32 * 0.13).cos()).collect();
        let (positions, row_len) = (cols.rows(), cols.cols());
        let y_t = Tensor::from_vec(vec![row_len, positions], transpose(&y, positions, row_len));
        let lhs: f32 = cols.data().iter().zip(&y).map(|(a, b)| a * b).sum();
        let folded = col2im(&y_t, c, h, w, k, s, p);
        let rhs: f32 = x.iter().zip(&folded).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_keeps_the_position_major_accumulation_order() {
        for (c, h, w) in [(2, 5, 7), (3, 6, 6), (1, 3, 2)] {
            for k in 1..=3 {
                for stride in 1..=3 {
                    for pad in 0..=2 {
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        let (oh, ow) = conv_output_size(h, w, k, stride, pad);
                        let (positions, row_len) = (oh * ow, c * k * k);
                        let g: Vec<f32> = (0..positions * row_len)
                            .map(|i| (i as f32 * 0.618).sin() * 1e3_f32.powf((i % 5) as f32 - 2.0))
                            .collect();
                        let cols = Tensor::from_vec(vec![positions, row_len], g.clone());
                        let cols_t = Tensor::from_vec(
                            vec![row_len, positions],
                            transpose(&g, positions, row_len),
                        );
                        assert_eq!(
                            col2im(&cols_t, c, h, w, k, stride, pad),
                            reference::col2im(&cols, c, h, w, k, stride, pad),
                            "c={c} h={h} w={w} k={k} stride={stride} pad={pad}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn conv_output_size_rejects_big_kernel() {
        let _ = conv_output_size(2, 2, 5, 1, 0);
    }
}
