//! Dense `f32` tensors and the matrix kernels the layers build on.
//!
//! Shapes follow the usual deep-learning conventions: activations are
//! `[batch, features]` or `[batch, channels, height, width]`; dense weights
//! are `[in_features, out_features]` so that a crossbar mapping puts inputs
//! on rows and output neurons on columns, matching the paper's `w(n)_{i,j}`
//! indexing.
//!
//! The three GEMM kernels share one inner microkernel (`saxpy_row_kernel`)
//! operating on contiguous rows: `matmul` uses it directly, `matmul_tn`
//! packs `selfᵀ` first so the inner loop never strides, and `matmul_nt`
//! runs contiguous dot products. Output rows are independent, so all three
//! fan out across [`par`] worker threads above a FLOP-count gate — each
//! worker owns a block of whole output rows, which keeps every output
//! element's accumulation order identical to the sequential kernel
//! (bit-identical results at any thread count).

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
    /// Output rows are computed independently (row-blocked across worker
    /// threads above a FLOP gate); results are identical to the sequential
    /// kernel at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree or either tensor is not 2-D.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dimensions: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        let a = &self.data;
        let b = &other.data;
        run_row_blocked(&mut out, n, m * k * n, |i0, block| {
            for (bi, c_row) in block.chunks_mut(n).enumerate() {
                let i = i0 + bi;
                saxpy_row_kernel(&a[i * k..(i + 1) * k], b, c_row);
            }
        });
        Tensor::from_vec(vec![m, n], out)
    }

    /// Matrix product `selfᵀ · other` (`[k,m]ᵀ · [k,n] → [m,n]`), used for
    /// weight gradients (`dW = Xᵀ · dY`).
    ///
    /// `selfᵀ` is packed into a contiguous `[m,k]` buffer first, so the hot
    /// loop is the same contiguous SAXPY microkernel as [`Tensor::matmul`]
    /// instead of the former `p`-outer sweep that re-touched the entire
    /// output matrix once per shared-dimension step. Per output element the
    /// accumulation still runs in ascending `p` order, so results match the
    /// old kernel exactly.
    ///
    /// # Panics
    ///
    /// Panics if the leading dimensions disagree or either tensor is not 2-D.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_tn leading dimensions: {k} vs {k2}");
        // Pack Aᵀ row-major: at[i*k + p] = a[p*m + i].
        let mut at = vec![0.0f32; k * m];
        for (p, a_row) in self.data.chunks_exact(m).enumerate() {
            for (i, &v) in a_row.iter().enumerate() {
                at[i * k + p] = v;
            }
        }
        let mut out = vec![0.0f32; m * n];
        let b = &other.data;
        run_row_blocked(&mut out, n, m * k * n, |i0, block| {
            for (bi, c_row) in block.chunks_mut(n).enumerate() {
                let i = i0 + bi;
                saxpy_row_kernel(&at[i * k..(i + 1) * k], b, c_row);
            }
        });
        Tensor::from_vec(vec![m, n], out)
    }

    /// Matrix product `self · otherᵀ` (`[m,k] · [n,k]ᵀ → [m,n]`), used for
    /// input gradients (`dX = dY · Wᵀ`). Both operands are walked
    /// contiguously (dot products), row-blocked across workers.
    ///
    /// # Panics
    ///
    /// Panics if the trailing dimensions disagree or either tensor is not 2-D.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_nt trailing dimensions: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        let a = &self.data;
        let b = &other.data;
        run_row_blocked(&mut out, n, m * k * n, |i0, block| {
            for (bi, c_row) in block.chunks_mut(n).enumerate() {
                let a_row = &a[(i0 + bi) * k..(i0 + bi + 1) * k];
                for (c, b_row) in c_row.iter_mut().zip(b.chunks_exact(k)) {
                    let mut acc = 0.0f32;
                    for (&av, &bv) in a_row.iter().zip(b_row) {
                        acc += av * bv;
                    }
                    *c = acc;
                }
            }
        });
        Tensor::from_vec(vec![m, n], out)
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

/// MAC-count gate below which the GEMM kernels stay on the calling thread
/// (a thread spawn costs ~10 µs ≈ tens of thousands of MACs).
const PAR_MIN_FLOPS: usize = 1 << 16;

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

/// The shared GEMM microkernel: `c_row += Σ_p a_row[p] · b[p-th row]`, all
/// slices contiguous. The zero-skip branch is gated on measured sparsity
/// ([`par::SPARSITY_SKIP_THRESHOLD`]): skipping a zero `a` saves an
/// `n`-length SAXPY but costs a branch per `p`, which only wins on
/// mostly-zero operands — e.g. activations after §5.2 magnitude pruning
/// has parked >50 % of the weights at zero, or ReLU-sparse features.
/// Skipping never changes the result: each skipped contribution is
/// `±0.0 · b` with finite `b`, which leaves an IEEE-754 accumulator on the
/// value it would otherwise hold.
#[inline]
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
/// overlapping contributions. Inverse-adjoint of [`im2col`].
///
/// `cols` must be `[out_h * out_w, channels * k * k]`.
///
/// # Panics
///
/// Panics if `cols` has the wrong shape for the given geometry.
pub fn col2im(
    cols: &Tensor,
    channels: usize,
    height: usize,
    width: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let (out_h, out_w) = conv_output_size(height, width, k, stride, pad);
    assert_eq!(
        cols.shape(),
        &[out_h * out_w, channels * k * k],
        "col2im shape mismatch"
    );
    let mut out = vec![0.0f32; channels * height * width];
    let row_len = channels * k * k;
    for oy in 0..out_h {
        for ox in 0..out_w {
            let patch = &cols.data()[(oy * out_w + ox) * row_len..(oy * out_w + ox + 1) * row_len];
            let mut idx = 0;
            for c in 0..channels {
                for ky in 0..k {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if iy >= 0 && ix >= 0 && (iy as usize) < height && (ix as usize) < width {
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

    #[test]
    fn matmul_family_is_thread_count_invariant() {
        // Large enough to clear PAR_MIN_FLOPS so the parallel path runs.
        let (m, k, n) = (37, 65, 41);
        let fill =
            |len: usize, f: f32| -> Vec<f32> { (0..len).map(|i| ((i as f32) * f).sin()).collect() };
        let a = Tensor::from_vec(vec![m, k], fill(m * k, 0.37));
        let b = Tensor::from_vec(vec![k, n], fill(k * n, 0.53));
        let a_t = Tensor::from_vec(vec![k, m], fill(k * m, 0.37));
        let b_t = Tensor::from_vec(vec![n, k], fill(n * k, 0.53));
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
        // Mostly-zero operand: exercises the sparsity-gated zero-skip.
        let (k, m, n) = (50, 30, 46); // 69k MACs clears the parallel gate too
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
        assert_eq!(a_t.matmul_tn(&b_t).data(), reference.data());
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
        let y_t = Tensor::from_vec(cols.shape().to_vec(), y.clone());
        let lhs: f32 = cols.data().iter().zip(&y).map(|(a, b)| a * b).sum();
        let folded = col2im(&y_t, c, h, w, k, s, p);
        let rhs: f32 = x.iter().zip(&folded).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn conv_output_size_rejects_big_kernel() {
        let _ = conv_output_size(2, 2, 5, 1, 0);
    }
}
