//! 2-D convolution layer (im2col + GEMM).

use crate::init::he_uniform;
use crate::layer::{Layer, LayerParams};
use crate::tensor::{col2im, conv_output_size, gemm, im2col, mostly_zero, Skip, Tensor};
use rand::Rng;

/// A 2-D convolution over `[B, C, H, W]` activations.
///
/// The kernel tensor is stored as a `[in_ch · k · k, out_ch]` matrix — the
/// exact shape mapped onto an RRAM crossbar (receptive field on the rows,
/// output channels on the columns), so the fault-tolerant trainer can treat
/// convolutional and dense layers uniformly.
///
/// Per sample, forward is `cols · W` over the im2col patches `cols`
/// (`[positions, in_ch·k·k]`), which a training-mode forward keeps for
/// backward. Backward runs both of its products on the layouts it already
/// has, the output gradient `dY` in its own `[out_ch, positions]` (NCHW)
/// order: `dWᵀ = dY · cols` and `dcolsᵀ = W · dY`, each a SAXPY along the
/// long dimension (receptive field, positions) instead of `out_ch`, and
/// neither packs nor transposes an operand (DESIGN.md §6.9).
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    w: Tensor,
    b: Vec<f32>,
    dw: Tensor,
    db: Vec<f32>,
    /// The last training-mode forward's im2col patches, one
    /// `[positions, in_ch·k·k]` tensor per sample.
    cached_cols: Option<Vec<Tensor>>,
    /// `(height, width)` of that forward's input.
    in_hw: (usize, usize),
}

impl Conv2d {
    /// Creates a convolution with He-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            in_ch > 0 && out_ch > 0 && k > 0 && stride > 0,
            "conv dims must be non-zero"
        );
        let rows = in_ch * k * k;
        let w = Tensor::from_vec(vec![rows, out_ch], he_uniform(rows, rows * out_ch, rng));
        Self {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            w,
            b: vec![0.0; out_ch],
            dw: Tensor::zeros(vec![rows, out_ch]),
            db: vec![0.0; out_ch],
            cached_cols: None,
            in_hw: (0, 0),
        }
    }

    /// A 3×3 stride-1 same-padding convolution (the VGG building block).
    pub fn vgg_block<R: Rng + ?Sized>(in_ch: usize, out_ch: usize, rng: &mut R) -> Self {
        Self::new(in_ch, out_ch, 3, 1, 1, rng)
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    fn unpack_shape(input: &Tensor) -> (usize, usize, usize, usize) {
        let s = input.shape();
        assert_eq!(s.len(), 4, "conv2d expects [B, C, H, W], got {s:?}");
        (s[0], s[1], s[2], s[3])
    }

    /// Fills `dw`/`db` from `grad_out` and, when `input_grad` is set,
    /// returns the data of the gradient w.r.t. the cached forward's input
    /// (empty otherwise).
    fn backprop(&mut self, grad_out: &Tensor, input_grad: bool) -> Vec<f32> {
        #[expect(
            clippy::expect_used,
            reason = "documented `Layer::backward` contract — a training-mode forward must precede backward (see the trait's `# Panics` section)"
        )]
        let cols = self
            .cached_cols
            .take()
            .expect("backward called without a training-mode forward");
        let (batch, (h, w)) = (cols.len(), self.in_hw);
        let (oh, ow) = conv_output_size(h, w, self.k, self.stride, self.pad);
        let positions = oh * ow;
        assert_eq!(grad_out.shape(), &[batch, self.out_ch, oh, ow]);
        let rows = self.in_ch * self.k * self.k;
        // dW is summed in place: a fresh 150 KB buffer per step comes back
        // from the allocator as new pages to fault in.
        let dw = self.dw.data_mut();
        dw.fill(0.0);
        self.db = vec![0.0; self.out_ch];
        let mut dx = Vec::with_capacity(if input_grad {
            batch * self.in_ch * h * w
        } else {
            0
        });
        for (g, cols) in grad_out
            .data()
            .chunks_exact(self.out_ch * positions)
            .zip(&cols)
        {
            // db += row sums of the [out_ch, positions] gradient.
            for (d, g_row) in self.db.iter_mut().zip(g.chunks_exact(positions)) {
                for &v in g_row {
                    *d += v;
                }
            }
            // dWᵀ = dY · cols. Terms drop as they did in `colsᵀ · dYᵀ`,
            // where a mostly-zero column of `cols` skipped its zeros.
            let mut zeros = vec![0usize; rows];
            for patch in cols.data().chunks_exact(rows) {
                for (z, &v) in zeros.iter_mut().zip(patch) {
                    *z += usize::from(v == 0.0);
                }
            }
            let sparse: Vec<bool> = zeros.iter().map(|&z| mostly_zero(z, positions)).collect();
            let dw_t = gemm(g, positions, cols.data(), rows, Skip::ZeroBInLanes(&sparse));
            // Per-sample partials, summed into dW in sample order. Each dW
            // row gathers one column of dWᵀ; the `out_ch` lines it reads
            // serve the next 15 rows too.
            for (r, dw_row) in dw.chunks_exact_mut(self.out_ch).enumerate() {
                for (acc, dw_t_row) in dw_row.iter_mut().zip(dw_t.chunks_exact(rows)) {
                    *acc += dw_t_row[r];
                }
            }
            if input_grad {
                // dX = col2im(dcolsᵀ), dcolsᵀ = W · dY.
                let dcols_t = gemm(self.w.data(), self.out_ch, g, positions, Skip::Never);
                let dcols_t = Tensor::from_vec(vec![rows, positions], dcols_t);
                let (k, s, p) = (self.k, self.stride, self.pad);
                dx.extend(col2im(&dcols_t, self.in_ch, h, w, k, s, p));
            }
        }
        dx
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (batch, c, h, w) = Self::unpack_shape(input);
        assert_eq!(
            c, self.in_ch,
            "conv2d expects {} input channels",
            self.in_ch
        );
        let (oh, ow) = conv_output_size(h, w, self.k, self.stride, self.pad);
        let positions = oh * ow;
        let sample_len = c * h * w;
        let mut out = vec![0.0f32; batch * self.out_ch * positions];
        let mut cache = Vec::with_capacity(if train { batch } else { 0 });
        let samples = input.data().chunks_exact(sample_len);
        for (sample, dst) in samples.zip(out.chunks_exact_mut(self.out_ch * positions)) {
            let cols = im2col(sample, c, h, w, self.k, self.stride, self.pad);
            let y = cols.matmul(&self.w); // [positions, out_ch]
            for p in 0..positions {
                for oc in 0..self.out_ch {
                    dst[oc * positions + p] = y.at2(p, oc) + self.b[oc];
                }
            }
            if train {
                cache.push(cols);
            }
        }
        if train {
            self.cached_cols = Some(cache);
            self.in_hw = (h, w);
        }
        Tensor::from_vec(vec![batch, self.out_ch, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dx = self.backprop(grad_out, true);
        let (h, w) = self.in_hw;
        Tensor::from_vec(vec![grad_out.shape()[0], self.in_ch, h, w], dx)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backprop(grad_out, false);
    }

    fn params(&mut self) -> Option<LayerParams<'_>> {
        let rows = self.in_ch * self.k * self.k;
        Some(LayerParams {
            weights: self.w.data_mut(),
            weight_grad: self.dw.data(),
            weight_shape: (rows, self.out_ch),
            bias: Some(&mut self.b),
            bias_grad: Some(&self.db),
        })
    }

    fn kind(&self) -> &'static str {
        "conv2d"
    }

    fn weight_count(&self) -> usize {
        self.in_ch * self.k * self.k * self.out_ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::init_rng;
    use crate::tensor::reference;

    /// The layer as it was before the native-layout products: the input
    /// cloned for backward and unfolded again there, `dY` packed to
    /// `[positions, out_ch]`, `dW += colsᵀ · dYᵀ`, and
    /// `dX = col2im(dYᵀ · Wᵀ)`, all on the previous kernels. Returns
    /// `(output, dW, db, dX)`.
    fn previous(
        conv: &Conv2d,
        input: &Tensor,
        grad_out: &Tensor,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (batch, c, h, w) = Conv2d::unpack_shape(input);
        let (k, s, p) = (conv.k, conv.stride, conv.pad);
        let (oh, ow) = conv_output_size(h, w, k, s, p);
        let (positions, sample_len, out_ch) = (oh * ow, c * h * w, conv.out_ch);
        let mut out = vec![0.0f32; batch * out_ch * positions];
        let mut dw = Tensor::zeros(vec![c * k * k, out_ch]);
        let mut db = vec![0.0f32; out_ch];
        let mut dx = vec![0.0f32; batch * sample_len];
        for bidx in 0..batch {
            let sample = &input.data()[bidx * sample_len..(bidx + 1) * sample_len];
            let cols = im2col(sample, c, h, w, k, s, p);
            let y = reference::matmul(&cols, &conv.w);
            let dst = &mut out[bidx * out_ch * positions..(bidx + 1) * out_ch * positions];
            for pos in 0..positions {
                for oc in 0..out_ch {
                    dst[oc * positions + pos] = y.at2(pos, oc) + conv.b[oc];
                }
            }
            let gsrc = &grad_out.data()[bidx * out_ch * positions..(bidx + 1) * out_ch * positions];
            let mut gmat = vec![0.0f32; positions * out_ch];
            for oc in 0..out_ch {
                for pos in 0..positions {
                    gmat[pos * out_ch + oc] = gsrc[oc * positions + pos];
                }
            }
            let gmat = Tensor::from_vec(vec![positions, out_ch], gmat);
            let dw_sample = reference::matmul_tn(&cols, &gmat);
            for (acc, &v) in dw.data_mut().iter_mut().zip(dw_sample.data()) {
                *acc += v;
            }
            for pos in 0..positions {
                for (oc, d) in db.iter_mut().enumerate() {
                    *d += gmat.at2(pos, oc);
                }
            }
            let dcols = reference::matmul_nt(&gmat, &conv.w);
            let folded = reference::col2im(&dcols, c, h, w, k, s, p);
            dx[bidx * sample_len..(bidx + 1) * sample_len].copy_from_slice(&folded);
        }
        (out, dw.into_data(), db, dx)
    }

    /// Bit equality, except that any NaN matches any NaN (IEEE 754 leaves
    /// NaN payloads and signs unspecified).
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    #[test]
    fn matches_the_previous_layer_bit_for_bit() {
        let noise = |len: usize, salt: usize, zero_every: usize| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    let v = ((i * 31 + salt * 7) as f32 * 0.173).sin();
                    // ReLU-like zeros: whole runs, so some patch columns and
                    // rows are mostly zero and others are not.
                    if (i / 5 + salt).is_multiple_of(zero_every) || v < -0.4 {
                        0.0
                    } else {
                        v
                    }
                })
                .collect()
        };
        let (in_ch, out_ch, h, w) = (3, 5, 7, 6);
        let mut cases = 0;
        for batch in [1, 3] {
            for stride in [1, 2] {
                for pad in [0, 1] {
                    for k in 1..=3 {
                        for non_finite in [false, true] {
                            let mut rng = init_rng(k as u64);
                            let mut conv = Conv2d::new(in_ch, out_ch, k, stride, pad, &mut rng);
                            // Pruned weights: some zeros.
                            for (i, v) in conv.w.data_mut().iter_mut().enumerate() {
                                if i % 4 == 1 {
                                    *v = 0.0;
                                }
                            }
                            conv.b = (0..out_ch).map(|i| i as f32 * 0.1 - 0.2).collect();
                            let x_len = batch * in_ch * h * w;
                            let x = Tensor::from_vec(vec![batch, in_ch, h, w], noise(x_len, k, 3));
                            let y = conv.forward(&x, true);
                            let mut g = noise(y.len(), stride + pad, 4);
                            if non_finite {
                                // ±∞ and NaN gradients, some facing zero
                                // patch entries.
                                for (i, v) in g.iter_mut().enumerate() {
                                    match i % 17 {
                                        2 => *v = f32::INFINITY,
                                        8 => *v = f32::NEG_INFINITY,
                                        13 => *v = f32::NAN,
                                        _ => {}
                                    }
                                }
                            }
                            let g = Tensor::from_vec(y.shape().to_vec(), g);
                            let (want_y, want_dw, want_db, want_dx) = previous(&conv, &x, &g);
                            let dx = conv.backward(&g);
                            let case = format!(
                                "batch={batch} stride={stride} pad={pad} k={k} non_finite={non_finite}"
                            );
                            assert!(same_bits(y.data(), &want_y), "output {case}");
                            assert!(same_bits(conv.dw.data(), &want_dw), "dW {case}");
                            assert!(same_bits(&conv.db, &want_db), "db {case}");
                            assert!(same_bits(dx.data(), &want_dx), "dX {case}");
                            // backward_params fills the same parameter
                            // gradients.
                            let _ = conv.forward(&x, true);
                            conv.backward_params(&g);
                            assert!(
                                same_bits(conv.dw.data(), &want_dw),
                                "dW (params only) {case}"
                            );
                            assert!(same_bits(&conv.db, &want_db), "db (params only) {case}");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 48);
    }

    #[test]
    fn forward_identity_kernel_passes_input_through() {
        let mut rng = init_rng(1);
        // 1x1 kernel with weight 1 is the identity for 1->1 channels.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.w = Tensor::from_vec(vec![1, 1], vec![1.0]);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn forward_known_3x3_sum_kernel() {
        let mut rng = init_rng(2);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        conv.w = Tensor::from_vec(vec![9, 1], vec![1.0; 9]);
        let x = Tensor::from_vec(vec![1, 1, 3, 3], vec![1.0; 9]);
        let y = conv.forward(&x, false);
        // Center output sums all 9 ones; corners see only 4.
        assert_eq!(y.at_center(), 9.0);
        assert_eq!(y.data()[0], 4.0);
    }

    trait CenterExt {
        fn at_center(&self) -> f32;
    }
    impl CenterExt for Tensor {
        fn at_center(&self) -> f32 {
            self.data()[self.len() / 2]
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = init_rng(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::from_vec(
            vec![1, 2, 4, 4],
            (0..32).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1).collect(),
        );
        let y = conv.forward(&x, true);
        let ones = Tensor::from_vec(y.shape().to_vec(), vec![1.0; y.len()]);
        let dx = conv.backward(&ones);

        let eps = 1e-2;
        let loss =
            |conv: &mut Conv2d, x: &Tensor| -> f32 { conv.forward(x, false).data().iter().sum() };
        let base = loss(&mut conv, &x);

        for &w_idx in &[0usize, 17, 53] {
            conv.w.data_mut()[w_idx] += eps;
            let plus = loss(&mut conv, &x);
            conv.w.data_mut()[w_idx] -= eps;
            let fd = (plus - base) / eps;
            let analytic = conv.dw.data()[w_idx];
            assert!(
                (fd - analytic).abs() < 0.05,
                "dW[{w_idx}]: fd {fd} vs {analytic}"
            );
        }
        for &x_idx in &[0usize, 9, 31] {
            let mut x2 = x.clone();
            x2.data_mut()[x_idx] += eps;
            let plus = loss(&mut conv, &x2);
            let fd = (plus - base) / eps;
            assert!(
                (fd - dx.data()[x_idx]).abs() < 0.05,
                "dX[{x_idx}]: fd {fd} vs {}",
                dx.data()[x_idx]
            );
        }
    }

    #[test]
    fn bias_grad_counts_positions_and_batch() {
        let mut rng = init_rng(4);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng);
        let x = Tensor::from_vec(vec![2, 1, 2, 2], vec![0.0; 8]);
        let y = conv.forward(&x, true);
        let ones = Tensor::from_vec(y.shape().to_vec(), vec![1.0; y.len()]);
        let _ = conv.backward(&ones);
        // 2 samples × 4 positions of ones per channel.
        assert_eq!(conv.db, vec![8.0, 8.0]);
    }

    #[test]
    fn params_expose_im2col_shape() {
        let mut rng = init_rng(5);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let p = conv.params().unwrap();
        assert_eq!(p.weight_shape, (27, 8));
        assert_eq!(conv.weight_count(), 27 * 8);
        assert_eq!(conv.kind(), "conv2d");
    }

    #[test]
    fn stride_two_halves_resolution() {
        let mut rng = init_rng(6);
        let mut conv = Conv2d::new(1, 1, 2, 2, 0, &mut rng);
        let x = Tensor::zeros(vec![1, 1, 8, 8]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
    }
}
