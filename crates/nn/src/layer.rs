//! The closed set of layers a network may contain, plus the gradient
//! containers used during backpropagation.

use serde::{Deserialize, Serialize};

use dpv_tensor::{Matrix, Vector};

use crate::{Activation, BatchNorm1d, Conv2d, Dense, Flatten, MaxPool2d};

/// Shape of a channel-major feature map `(channels, height, width)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TensorShape {
    /// Number of channels.
    pub channels: usize,
    /// Height in pixels / cells.
    pub height: usize,
    /// Width in pixels / cells.
    pub width: usize,
}

impl TensorShape {
    /// Creates a shape.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
        }
    }

    /// Total number of elements when flattened.
    pub fn len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Returns `true` when the shape contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One layer of a feed-forward network.
///
/// The enum is deliberately closed (not a trait object): the verification
/// crates pattern-match on it to build MILP encodings and abstract
/// transformers, and a closed set makes the soundness argument auditable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Fully connected affine layer.
    Dense(Dense),
    /// Element-wise activation.
    Activation(Activation),
    /// Frozen-statistics batch normalisation (affine at verification time).
    BatchNorm(BatchNorm1d),
    /// 2-D convolution over flattened channel-major feature maps.
    Conv2d(Conv2d),
    /// Non-overlapping 2-D max pooling.
    MaxPool2d(MaxPool2d),
    /// Flattening marker (numerically the identity).
    Flatten(Flatten),
}

/// Per-layer cache produced by the forward pass in training mode and
/// consumed by the backward pass.
#[derive(Debug, Clone)]
pub enum LayerCache {
    /// The layer's input vector (dense, batch-norm, conv, activation).
    Input(Vector),
    /// Input plus max-pool argmax indices.
    PoolIndices {
        /// The layer input.
        input: Vector,
        /// Flat input index of the maximum for each output cell.
        indices: Vec<usize>,
    },
    /// Layers with no trainable parameters and trivial backward rule.
    None,
}

/// Gradients of a layer's trainable parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerGrad {
    /// Dense or convolution gradients.
    WeightBias {
        /// Gradient of the weight matrix.
        weights: Matrix,
        /// Gradient of the bias vector.
        bias: Vector,
    },
    /// Batch-norm gradients.
    GammaBeta {
        /// Gradient of the scale vector.
        gamma: Vector,
        /// Gradient of the shift vector.
        beta: Vector,
    },
    /// The layer has no trainable parameters.
    None,
}

impl Layer {
    /// Output dimension given the input dimension `input_dim`.
    ///
    /// For shape-carrying layers (conv, pool, flatten) the recorded shape is
    /// authoritative; `input_dim` is only used by activations, which preserve
    /// dimension.
    pub fn output_dim(&self, input_dim: usize) -> usize {
        match self {
            Layer::Dense(d) => d.output_dim(),
            Layer::Activation(_) => input_dim,
            Layer::BatchNorm(bn) => bn.dim(),
            Layer::Conv2d(c) => c.output_dim(),
            Layer::MaxPool2d(p) => p.output_dim(),
            Layer::Flatten(f) => f.dim(),
        }
    }

    /// Expected input dimension, when the layer constrains it (`None` for
    /// activations, which accept any dimension).
    pub fn input_dim(&self) -> Option<usize> {
        match self {
            Layer::Dense(d) => Some(d.input_dim()),
            Layer::Activation(_) => None,
            Layer::BatchNorm(bn) => Some(bn.dim()),
            Layer::Conv2d(c) => Some(c.input_dim()),
            Layer::MaxPool2d(p) => Some(p.input_dim()),
            Layer::Flatten(f) => Some(f.dim()),
        }
    }

    /// Returns `true` when the layer is exactly representable in the MILP /
    /// abstract-interpretation verifiers (affine or piecewise-linear).
    pub fn is_piecewise_linear(&self) -> bool {
        match self {
            Layer::Dense(_) | Layer::BatchNorm(_) | Layer::Conv2d(_) | Layer::Flatten(_) => true,
            Layer::MaxPool2d(_) => true,
            Layer::Activation(a) => a.is_piecewise_linear(),
        }
    }

    /// Returns `true` when the layer has trainable parameters.
    pub fn has_parameters(&self) -> bool {
        matches!(
            self,
            Layer::Dense(_) | Layer::BatchNorm(_) | Layer::Conv2d(_)
        )
    }

    /// Number of trainable scalar parameters.
    pub fn parameter_count(&self) -> usize {
        match self {
            Layer::Dense(d) => d.weights().rows() * d.weights().cols() + d.bias().len(),
            Layer::BatchNorm(bn) => 2 * bn.dim(),
            Layer::Conv2d(c) => c.weights().rows() * c.weights().cols() + c.bias().len(),
            _ => 0,
        }
    }

    /// Returns `true` when every parameter the layer computes with is
    /// finite: weights and biases, batch-norm statistics and epsilon, and a
    /// leaky ReLU's slope.
    pub fn has_finite_parameters(&self) -> bool {
        let finite = |values: &[f64]| values.iter().all(|v| v.is_finite());
        match self {
            Layer::Dense(d) => finite(d.weights().as_slice()) && finite(d.bias().as_slice()),
            Layer::Conv2d(c) => finite(c.weights().as_slice()) && finite(c.bias().as_slice()),
            Layer::BatchNorm(bn) => {
                finite(bn.gamma().as_slice())
                    && finite(bn.beta().as_slice())
                    && finite(bn.running_mean().as_slice())
                    && finite(bn.running_var().as_slice())
                    && bn.eps().is_finite()
            }
            Layer::Activation(Activation::LeakyReLU(slope)) => slope.is_finite(),
            Layer::Activation(_) | Layer::MaxPool2d(_) | Layer::Flatten(_) => true,
        }
    }

    /// Short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Layer::Dense(d) => format!("dense {}x{}", d.output_dim(), d.input_dim()),
            Layer::Activation(a) => a.name().to_string(),
            Layer::BatchNorm(bn) => format!("batchnorm {}", bn.dim()),
            Layer::Conv2d(c) => format!(
                "conv2d {}ch k{} s{} ({} -> {})",
                c.output_shape().channels,
                c.kernel(),
                c.stride(),
                c.input_dim(),
                c.output_dim()
            ),
            Layer::MaxPool2d(p) => format!(
                "maxpool2d {} ({} -> {})",
                p.pool(),
                p.input_dim(),
                p.output_dim()
            ),
            Layer::Flatten(f) => format!("flatten {}", f.dim()),
        }
    }

    /// Inference-mode forward pass.
    pub fn forward(&self, x: &Vector) -> Vector {
        match self {
            Layer::Dense(d) => d.forward(x),
            Layer::Activation(a) => a.apply_vector(x),
            Layer::BatchNorm(bn) => bn.forward(x),
            Layer::Conv2d(c) => c.forward(x),
            Layer::MaxPool2d(p) => p.forward(x),
            Layer::Flatten(f) => f.forward(x),
        }
    }

    /// Batched inference forward pass over a feature-major frame batch
    /// (rows = input dimension, columns = frames).
    ///
    /// Column `f` of the result is **bit-identical** to `forward` of column
    /// `f` of the input: the dense, activation and batch-norm kernels
    /// perform the exact per-frame operation sequence of their scalar
    /// counterparts and only vectorise across the frame lanes. Spatial
    /// layers (convolution, pooling) fall back to the scalar kernel per
    /// frame — they never appear past the cut layer in the monitor hot
    /// path.
    ///
    /// # Panics
    /// Panics when `x.rows()` does not match the layer input dimension.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        match self {
            Layer::Dense(d) => d.forward_batch(x),
            Layer::Activation(a) => a.apply_matrix(x),
            Layer::BatchNorm(bn) => bn.forward_batch(x),
            Layer::Conv2d(c) => c.forward_batch(x),
            other => {
                let columns: Vec<Vector> = (0..x.cols())
                    .map(|f| other.forward(&x.col_vector(f)))
                    .collect();
                Matrix::from_columns(&columns).expect("layer outputs share one dimension")
            }
        }
    }

    /// Training-mode forward pass: returns the output and a cache for the
    /// backward pass. Batch-norm layers additionally update their running
    /// statistics.
    pub fn forward_train(&mut self, x: &Vector) -> (Vector, LayerCache) {
        match self {
            Layer::Dense(d) => (d.forward(x), LayerCache::Input(x.clone())),
            Layer::Activation(a) => (a.apply_vector(x), LayerCache::Input(x.clone())),
            Layer::BatchNorm(bn) => {
                bn.update_statistics(x);
                (bn.forward(x), LayerCache::Input(x.clone()))
            }
            Layer::Conv2d(c) => (c.forward(x), LayerCache::Input(x.clone())),
            Layer::MaxPool2d(p) => {
                let (out, indices) = p.forward_with_indices(x);
                (
                    out,
                    LayerCache::PoolIndices {
                        input: x.clone(),
                        indices,
                    },
                )
            }
            Layer::Flatten(f) => (f.forward(x), LayerCache::None),
        }
    }

    /// Backward pass: given the cache from [`Layer::forward_train`] and the
    /// gradient with respect to the layer output, returns the gradient with
    /// respect to the layer input and the parameter gradients.
    ///
    /// # Panics
    /// Panics when the cache variant does not match the layer kind.
    pub fn backward(&self, cache: &LayerCache, grad_output: &Vector) -> (Vector, LayerGrad) {
        match (self, cache) {
            (Layer::Dense(d), LayerCache::Input(input)) => {
                let (gi, gw, gb) = d.backward(input, grad_output);
                (
                    gi,
                    LayerGrad::WeightBias {
                        weights: gw,
                        bias: gb,
                    },
                )
            }
            (Layer::Activation(a), LayerCache::Input(input)) => {
                let grad_input = Vector::from_vec(
                    input
                        .iter()
                        .zip(grad_output.iter())
                        .map(|(x, g)| a.derivative(*x) * g)
                        .collect(),
                );
                (grad_input, LayerGrad::None)
            }
            (Layer::BatchNorm(bn), LayerCache::Input(input)) => {
                let (gi, gg, gb) = bn.backward(input, grad_output);
                (
                    gi,
                    LayerGrad::GammaBeta {
                        gamma: gg,
                        beta: gb,
                    },
                )
            }
            (Layer::Conv2d(c), LayerCache::Input(input)) => {
                let (gi, gw, gb) = c.backward(input, grad_output);
                (
                    gi,
                    LayerGrad::WeightBias {
                        weights: gw,
                        bias: gb,
                    },
                )
            }
            (Layer::MaxPool2d(p), LayerCache::PoolIndices { indices, .. }) => {
                (p.backward(indices, grad_output), LayerGrad::None)
            }
            (Layer::Flatten(_), _) => (grad_output.clone(), LayerGrad::None),
            _ => panic!("layer/cache mismatch in backward pass"),
        }
    }

    /// Applies parameter gradients scaled by `lr` (plain SGD step). Layers
    /// without parameters ignore the call.
    ///
    /// # Panics
    /// Panics when the gradient variant does not match the layer kind.
    pub fn apply_grad(&mut self, lr: f64, grad: &LayerGrad) {
        match (self, grad) {
            (Layer::Dense(d), LayerGrad::WeightBias { weights, bias }) => {
                d.apply_gradients(lr, weights, bias)
            }
            (Layer::Conv2d(c), LayerGrad::WeightBias { weights, bias }) => {
                c.weights_mut().add_scaled(-lr, weights);
                let update = bias.scale(lr);
                *c.bias_mut() -= &update;
            }
            (Layer::BatchNorm(bn), LayerGrad::GammaBeta { gamma, beta }) => {
                bn.apply_gradients(lr, gamma, beta)
            }
            (_, LayerGrad::None) => {}
            _ => panic!("layer/gradient mismatch in apply_grad"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_tensor::{Initializer, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tensor_shape_len() {
        let s = TensorShape::new(3, 4, 5);
        assert_eq!(s.len(), 60);
        assert!(!s.is_empty());
        assert!(TensorShape::new(0, 4, 5).is_empty());
    }

    #[test]
    fn output_dim_per_layer_kind() {
        let dense = Layer::Dense(Dense::from_parts(Matrix::zeros(3, 2), Vector::zeros(3)));
        assert_eq!(dense.output_dim(2), 3);
        assert_eq!(dense.input_dim(), Some(2));
        let act = Layer::Activation(Activation::ReLU);
        assert_eq!(act.output_dim(7), 7);
        assert_eq!(act.input_dim(), None);
        let bn = Layer::BatchNorm(BatchNorm1d::new(4));
        assert_eq!(bn.output_dim(4), 4);
    }

    #[test]
    fn piecewise_linear_classification() {
        assert!(Layer::Activation(Activation::ReLU).is_piecewise_linear());
        assert!(!Layer::Activation(Activation::Sigmoid).is_piecewise_linear());
        assert!(Layer::BatchNorm(BatchNorm1d::new(2)).is_piecewise_linear());
    }

    #[test]
    fn parameter_counts() {
        let dense = Layer::Dense(Dense::from_parts(Matrix::zeros(3, 2), Vector::zeros(3)));
        assert_eq!(dense.parameter_count(), 9);
        assert!(dense.has_parameters());
        let bn = Layer::BatchNorm(BatchNorm1d::new(4));
        assert_eq!(bn.parameter_count(), 8);
        let act = Layer::Activation(Activation::Tanh);
        assert_eq!(act.parameter_count(), 0);
        assert!(!act.has_parameters());
    }

    #[test]
    fn forward_train_and_backward_roundtrip_dense_relu() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut dense = Layer::Dense(Dense::new(3, 2, Initializer::HeNormal, &mut rng));
        let mut relu = Layer::Activation(Activation::ReLU);
        let x = Vector::from_slice(&[0.5, -0.2, 0.9]);
        let (h, cache_d) = dense.forward_train(&x);
        let (y, cache_r) = relu.forward_train(&h);
        assert_eq!(y.len(), 2);
        let grad_out = Vector::ones(2);
        let (grad_h, _) = relu.backward(&cache_r, &grad_out);
        let (grad_x, grad_d) = dense.backward(&cache_d, &grad_h);
        assert_eq!(grad_x.len(), 3);
        assert!(matches!(grad_d, LayerGrad::WeightBias { .. }));
    }

    #[test]
    fn describe_is_informative() {
        let dense = Layer::Dense(Dense::from_parts(Matrix::zeros(3, 2), Vector::zeros(3)));
        assert!(dense.describe().contains("dense"));
        assert!(Layer::Activation(Activation::ReLU)
            .describe()
            .contains("relu"));
    }

    #[test]
    #[should_panic(expected = "layer/cache mismatch")]
    fn backward_rejects_mismatched_cache() {
        let dense = Layer::Dense(Dense::from_parts(Matrix::zeros(1, 1), Vector::zeros(1)));
        let _ = dense.backward(&LayerCache::None, &Vector::zeros(1));
    }
}
