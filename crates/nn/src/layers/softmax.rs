//! Row-wise softmax layer.
//!
//! Training normally uses [`crate::loss::softmax_cross_entropy`] directly on
//! logits (numerically better and cheaper); this explicit layer exists for
//! inference pipelines and for tests that need calibrated probabilities.

use crate::layer::Layer;
use crate::tensor::Tensor;

/// Row-wise softmax over a `[B, K]` tensor.
#[derive(Debug, Clone, Default)]
pub struct Softmax {
    cached_output: Option<Tensor>,
}

impl Softmax {
    /// Creates a softmax layer.
    pub fn new() -> Self {
        Self {
            cached_output: None,
        }
    }
}

/// Computes a numerically stable row-wise softmax.
pub(crate) fn softmax_rows(input: &Tensor) -> Tensor {
    let k = input.cols();
    let mut out = input.clone();
    for row in out.data_mut().chunks_mut(k) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
    out
}

impl Layer for Softmax {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let y = softmax_rows(input);
        if train {
            self.cached_output = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "documented `Layer::backward` contract — a training-mode forward must precede backward (see the trait's `# Panics` section)"
        )]
        let y = self
            .cached_output
            .take()
            .expect("backward called without a training-mode forward");
        let k = y.cols();
        let mut dx = Tensor::zeros(y.shape().to_vec());
        for ((dx_row, y_row), g_row) in dx
            .data_mut()
            .chunks_mut(k)
            .zip(y.data().chunks(k))
            .zip(grad_out.data().chunks(k))
        {
            // dx_i = y_i * (g_i - Σ_j g_j y_j)
            let dot: f32 = g_row.iter().zip(y_row).map(|(g, y)| g * y).sum();
            for ((d, &yv), &gv) in dx_row.iter_mut().zip(y_row).zip(g_row) {
                *d = yv * (gv - dot);
            }
        }
        dx
    }

    fn kind(&self) -> &'static str {
        "softmax"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let mut sm = Softmax::new();
        let x = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., -1., 0., 1.]);
        let y = sm.forward(&x, false);
        for row in y.data().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn is_shift_invariant() {
        let mut sm = Softmax::new();
        let a = sm.forward(&Tensor::from_vec(vec![1, 3], vec![1., 2., 3.]), false);
        let b = sm.forward(&Tensor::from_vec(vec![1, 3], vec![101., 102., 103.]), false);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut sm = Softmax::new();
        let x = Tensor::from_vec(vec![1, 4], vec![0.3, -0.2, 0.8, 0.1]);
        let y = sm.forward(&x, true);
        // Loss = y[2] (pick one output), so dL/dy = e_2.
        let mut g = Tensor::zeros(vec![1, 4]);
        g.data_mut()[2] = 1.0;
        let dx = sm.backward(&g);
        let eps = 1e-3;
        for i in 0..4 {
            let mut x2 = x.clone();
            x2.data_mut()[i] += eps;
            let y2 = softmax_rows(&x2);
            let fd = (y2.data()[2] - y.data()[2]) / eps;
            assert!(
                (fd - dx.data()[i]).abs() < 1e-3,
                "i={i}: fd {fd} vs {}",
                dx.data()[i]
            );
        }
    }
}
