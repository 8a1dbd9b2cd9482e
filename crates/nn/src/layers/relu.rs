//! Rectified linear activation.

use crate::layer::Layer;
use crate::tensor::Tensor;

/// Element-wise `max(0, x)` activation.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.mask = Some(input.data().iter().map(|&x| x > 0.0).collect());
        }
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "documented `Layer::backward` contract — a training-mode forward must precede backward (see the trait's `# Panics` section)"
        )]
        let mask = self
            .mask
            .take()
            .expect("backward called without a training-mode forward");
        assert_eq!(
            mask.len(),
            grad_out.len(),
            "gradient shape changed since forward"
        );
        let data = grad_out
            .data()
            .iter()
            .zip(&mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.shape().to_vec(), data)
    }

    fn kind(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-2., -0.5, 0., 3.]);
        let y = relu.forward(&x, false);
        assert_eq!(y.data(), &[0., 0., 0., 3.]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-1., 2., -3., 4.]);
        let _ = relu.forward(&x, true);
        let g = Tensor::from_vec(vec![1, 4], vec![10., 20., 30., 40.]);
        let dx = relu.backward(&g);
        assert_eq!(dx.data(), &[0., 20., 0., 40.]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        // Subgradient convention: f'(0) = 0.
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![1, 1], vec![0.0]);
        let _ = relu.forward(&x, true);
        let g = Tensor::from_vec(vec![1, 1], vec![5.0]);
        assert_eq!(relu.backward(&g).data(), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "without a training-mode forward")]
    fn backward_requires_forward() {
        let mut relu = Relu::new();
        let g = Tensor::zeros(vec![1, 1]);
        let _ = relu.backward(&g);
    }
}
