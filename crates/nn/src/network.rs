//! Sequential network container.

use std::fmt;

use crate::layer::{Layer, LayerParams};
use crate::tensor::Tensor;

/// A sequential stack of layers.
///
/// # Example
///
/// ```
/// use nn::network::Network;
/// use nn::layers::{Dense, Relu};
/// use nn::init::init_rng;
/// use nn::tensor::Tensor;
///
/// let mut rng = init_rng(0);
/// let mut net = Network::new();
/// net.push(Dense::new(4, 8, &mut rng));
/// net.push(Relu::new());
/// net.push(Dense::new(8, 2, &mut rng));
///
/// let x = Tensor::zeros(vec![1, 4]);
/// let y = net.forward(&x);
/// assert_eq!(y.shape(), &[1, 2]);
/// ```
#[derive(Default)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kinds: Vec<&str> = self.layers.iter().map(|l| l.kind()).collect();
        f.debug_struct("Network").field("layers", &kinds).finish()
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers (including parameter-free ones).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Inference-mode forward pass (no caches are retained).
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.run_forward(input, false)
    }

    /// Training-mode forward pass: layers cache activations for `backward`.
    pub fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.run_forward(input, true)
    }

    fn run_forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Back-propagates the loss gradient, filling each parameterized
    /// layer's gradients.
    ///
    /// The pass stops at the first parameterized layer, which fills its
    /// parameter gradients only ([`Layer::backward_params`]): nothing reads
    /// the gradient w.r.t. the network input, so it is never computed, and
    /// layers below that one are not visited. A network without parameters
    /// does nothing.
    ///
    /// # Panics
    ///
    /// Panics if [`Network::forward_train`] did not precede this call.
    pub fn backward(&mut self, grad_out: &Tensor) {
        let Some(first) = self.layers.iter_mut().position(|l| l.params().is_some()) else {
            return;
        };
        let (below, above) = self.layers.split_at_mut(first + 1);
        let mut g: Option<Tensor> = None;
        for layer in above.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_out)));
        }
        below[first].backward_params(g.as_ref().unwrap_or(grad_out));
    }

    /// Iterates over `(layer_index, params)` for every parameterized layer.
    pub fn param_layers_mut(&mut self) -> impl Iterator<Item = (usize, LayerParams<'_>)> {
        self.layers
            .iter_mut()
            .enumerate()
            .filter_map(|(i, l)| l.params().map(|p| (i, p)))
    }

    /// The indices of layers that carry weights, in network order.
    pub fn weight_layer_indices(&mut self) -> Vec<usize> {
        self.layers
            .iter_mut()
            .enumerate()
            .filter_map(|(i, l)| l.params().map(|_| i))
            .collect()
    }

    /// Parameters of one layer by its index, if it has any.
    pub fn layer_params_mut(&mut self, index: usize) -> Option<LayerParams<'_>> {
        self.layers.get_mut(index)?.params()
    }

    /// The kind tag of a layer by index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range; [`Network::try_layer_kind`] is
    /// the non-panicking variant.
    pub fn layer_kind(&self, index: usize) -> &'static str {
        self.layers[index].kind()
    }

    /// The kind tag of a layer by index, or `None` when out of range.
    pub fn try_layer_kind(&self, index: usize) -> Option<&'static str> {
        self.layers.get(index).map(|l| l.kind())
    }

    /// Total number of trainable weights (excluding biases).
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(|l| l.weight_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::init_rng;
    use crate::layers::{Dense, Relu};

    fn mlp() -> Network {
        let mut rng = init_rng(1);
        let mut net = Network::new();
        net.push(Dense::new(4, 6, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(6, 3, &mut rng));
        net
    }

    #[test]
    fn forward_produces_expected_shape() {
        let mut net = mlp();
        let x = Tensor::zeros(vec![5, 4]);
        assert_eq!(net.forward(&x).shape(), &[5, 3]);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }

    #[test]
    fn backward_fills_all_param_grads() {
        let mut net = mlp();
        let x = Tensor::from_vec(vec![2, 4], (0..8).map(|i| i as f32 * 0.1).collect());
        let y = net.forward_train(&x);
        let g = Tensor::from_vec(y.shape().to_vec(), vec![1.0; y.len()]);
        net.backward(&g);
        let mut count = 0;
        for (_, p) in net.param_layers_mut() {
            assert_eq!(p.weight_grad.len(), p.weights.len());
            assert!(
                p.weight_grad.iter().any(|&g| g != 0.0),
                "grads should be non-zero"
            );
            let (bias, bias_grad) = (p.bias.unwrap(), p.bias_grad.unwrap());
            assert_eq!(bias_grad.len(), bias.len());
            assert!(bias_grad.iter().any(|&g| g != 0.0), "bias grads too");
            count += 1;
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn backward_stops_at_the_first_parameterised_layer_with_the_same_grads() {
        // A leading ReLU sits below the first parameterised layer.
        let build = || {
            let mut net = mlp();
            net.layers.insert(0, Box::new(Relu::new()));
            net
        };
        let x = Tensor::from_vec(vec![3, 4], (0..12).map(|i| i as f32 * 0.3 - 1.0).collect());
        let (mut net, mut full) = (build(), build());
        let y = net.forward_train(&x);
        assert_eq!(full.forward_train(&x), y);
        let g = Tensor::from_vec(
            y.shape().to_vec(),
            (0..y.len()).map(|i| i as f32 - 4.0).collect(),
        );
        net.backward(&g);
        // Reference: every layer's full backward, input gradient included.
        let mut gf = g.clone();
        for layer in full.layers.iter_mut().rev() {
            gf = layer.backward(&gf);
        }
        assert_eq!(gf.shape(), &[3, 4]);
        let grads = |net: &mut Network| -> Vec<(Vec<f32>, Vec<f32>)> {
            net.param_layers_mut()
                .map(|(_, p)| (p.weight_grad.to_vec(), p.bias_grad.unwrap().to_vec()))
                .collect()
        };
        assert_eq!(grads(&mut net), grads(&mut full));
    }

    #[test]
    fn weight_layer_indices_skip_activations() {
        let mut net = mlp();
        assert_eq!(net.weight_layer_indices(), vec![0, 2]);
        assert_eq!(net.layer_kind(1), "relu");
        assert_eq!(net.weight_count(), 4 * 6 + 6 * 3);
    }

    #[test]
    fn layer_params_mut_by_index() {
        let mut net = mlp();
        assert!(net.layer_params_mut(0).is_some());
        assert!(net.layer_params_mut(1).is_none());
        assert!(net.layer_params_mut(99).is_none());
    }

    #[test]
    fn debug_lists_layer_kinds() {
        let net = mlp();
        let s = format!("{net:?}");
        assert!(s.contains("dense") && s.contains("relu"));
    }
}
