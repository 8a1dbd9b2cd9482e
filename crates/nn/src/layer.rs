//! The [`Layer`] trait and the parameter view used by external trainers.

use std::fmt;

use crate::tensor::Tensor;

/// Mutable view over one layer's trainable parameters.
///
/// Weights are exposed as a flat slice with an explicit 2-D crossbar
/// orientation `(rows, cols)` = `(inputs, output neurons)`; this is the
/// matrix that gets mapped onto RRAM crossbars and that the threshold
/// trainer and re-mapping step in `ftt-core` operate on.
#[derive(Debug)]
pub struct LayerParams<'a> {
    /// Flat weight storage, row-major over `weight_shape`.
    pub weights: &'a mut [f32],
    /// Gradient of the loss w.r.t. `weights`, filled by `backward`.
    pub weight_grad: &'a [f32],
    /// `(rows, cols)` of the weight matrix: rows are crossbar inputs,
    /// columns are output neurons.
    pub weight_shape: (usize, usize),
    /// Bias vector (one entry per output neuron), if the layer has one.
    pub bias: Option<&'a mut [f32]>,
    /// Gradient of the loss w.r.t. the bias.
    pub bias_grad: Option<&'a [f32]>,
}

/// A differentiable network layer.
///
/// Layers cache whatever they need during `forward(.., train=true)` so that
/// the subsequent `backward` can run; calling `backward` without a prior
/// training-mode forward pass panics.
pub trait Layer: fmt::Debug {
    /// Computes the layer output. When `train` is true the layer caches
    /// the activations needed for [`Layer::backward`].
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer input.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward pass preceded this call.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Back-propagates `grad_out` into the layer's parameter gradients
    /// only, without the gradient w.r.t. the input. `Network::backward`
    /// calls this on its first parameterised layer, below which nothing
    /// reads a gradient. The default runs [`Layer::backward`] and drops the
    /// input gradient.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward pass preceded this call.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Mutable access to the layer's parameters, if it has any.
    fn params(&mut self) -> Option<LayerParams<'_>> {
        None
    }

    /// Short layer-kind tag, e.g. `"dense"` or `"conv2d"`.
    fn kind(&self) -> &'static str;

    /// Number of trainable weights (excluding biases).
    fn weight_count(&self) -> usize {
        0
    }
}
