//! 2-D convolution layer (im2col + GEMM).

use crate::init::he_uniform;
use crate::layer::{Layer, LayerParams};
use crate::tensor::{col2im, conv_output_size, im2col, Tensor};
use rand::Rng;

/// A 2-D convolution over `[B, C, H, W]` activations.
///
/// The kernel tensor is stored as a `[in_ch · k · k, out_ch]` matrix — the
/// exact shape mapped onto an RRAM crossbar (receptive field on the rows,
/// output channels on the columns), so the fault-tolerant trainer can treat
/// convolutional and dense layers uniformly.
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
    cached_input: Option<Tensor>,
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
            cached_input: None,
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
        for bidx in 0..batch {
            let sample = &input.data()[bidx * sample_len..(bidx + 1) * sample_len];
            let cols = im2col(sample, c, h, w, self.k, self.stride, self.pad);
            let y = cols.matmul(&self.w); // [positions, out_ch]
            let dst =
                &mut out[bidx * self.out_ch * positions..(bidx + 1) * self.out_ch * positions];
            for p in 0..positions {
                for oc in 0..self.out_ch {
                    dst[oc * positions + p] = y.at2(p, oc) + self.b[oc];
                }
            }
        }
        if train {
            self.cached_input = Some(input.clone());
            self.in_hw = (h, w);
        }
        Tensor::from_vec(vec![batch, self.out_ch, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "documented `Layer::backward` contract — a training-mode forward must precede backward (see the trait's `# Panics` section)"
        )]
        let input = self
            .cached_input
            .take()
            .expect("backward called without a training-mode forward");
        let (batch, c, h, w) = Self::unpack_shape(&input);
        let (oh, ow) = conv_output_size(h, w, self.k, self.stride, self.pad);
        let positions = oh * ow;
        assert_eq!(grad_out.shape(), &[batch, self.out_ch, oh, ow]);
        let sample_len = c * h * w;
        let rows = self.in_ch * self.k * self.k;
        self.dw = Tensor::zeros(vec![rows, self.out_ch]);
        self.db = vec![0.0; self.out_ch];
        let mut dx = vec![0.0f32; batch * sample_len];
        for bidx in 0..batch {
            let sample = &input.data()[bidx * sample_len..(bidx + 1) * sample_len];
            let cols = im2col(sample, c, h, w, self.k, self.stride, self.pad);
            // grad_out sample, transposed to [positions, out_ch].
            let gsrc = &grad_out.data()
                [bidx * self.out_ch * positions..(bidx + 1) * self.out_ch * positions];
            let mut gmat = vec![0.0f32; positions * self.out_ch];
            for oc in 0..self.out_ch {
                for p in 0..positions {
                    gmat[p * self.out_ch + oc] = gsrc[oc * positions + p];
                }
            }
            let gmat = Tensor::from_vec(vec![positions, self.out_ch], gmat);
            // dW += colsᵀ · g
            let dw_sample = cols.matmul_tn(&gmat);
            for (acc, &v) in self.dw.data_mut().iter_mut().zip(dw_sample.data()) {
                *acc += v;
            }
            // db += column sums of g
            for p in 0..positions {
                for oc in 0..self.out_ch {
                    self.db[oc] += gmat.at2(p, oc);
                }
            }
            // dX = col2im(g · Wᵀ)
            let dcols = gmat.matmul_nt(&self.w);
            let folded = col2im(&dcols, c, h, w, self.k, self.stride, self.pad);
            dx[bidx * sample_len..(bidx + 1) * sample_len].copy_from_slice(&folded);
        }
        Tensor::from_vec(vec![batch, c, h, w], dx)
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
