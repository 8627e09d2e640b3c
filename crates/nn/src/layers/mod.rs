//! Network layers.
//!
//! Every layer implements [`Layer`]: a stateful forward pass (caching what
//! backward needs), a backward pass producing the input gradient and
//! filling parameter gradients, and hooks for the per-layer weight
//! quantizer installed by quantization-aware training.

mod conv;
mod dense;
mod pool;
mod relu;

pub use conv::Conv2d;
pub use dense::Dense;
pub use pool::{AvgPool2d, MaxPool2d};
pub use relu::Relu;

use qnn_quant::Quantizer;
use qnn_tensor::{Shape, Tensor};

use crate::error::NnError;
use crate::network::Mode;
use crate::param::Param;

/// A shared-ownership quantizer handle, installed per layer by
/// [`Network::set_precision`](crate::Network::set_precision).
pub type QuantizerHandle = std::sync::Arc<dyn Quantizer + Send + Sync>;

/// A sequential network layer.
///
/// The trait is object-safe; a [`Network`](crate::Network) holds
/// `Box<dyn Layer>`s. Layers without parameters use the default no-op
/// implementations of the parameter and quantizer hooks.
pub trait Layer: std::fmt::Debug + Send {
    /// Stable layer kind name, e.g. `"conv2d"`.
    fn name(&self) -> &'static str;

    /// Computes the layer output. In [`Mode::Train`] the layer caches
    /// whatever [`backward`](Layer::backward) will need.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError>;

    /// [`forward`](Layer::forward) on an input the caller hands over —
    /// what [`Network`](crate::Network) calls, so a layer whose output has
    /// the input's shape can compute it in the input's buffer instead of
    /// allocating. The default borrows `input` and calls `forward`;
    /// overrides must return exactly what `forward` would.
    ///
    /// # Errors
    ///
    /// Same as [`forward`](Layer::forward).
    fn forward_owned(&mut self, input: Tensor, mode: Mode) -> Result<Tensor, NnError> {
        self.forward(&input, mode)
    }

    /// Computes the input gradient from the output gradient and accumulates
    /// parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] if no training-mode forward pass
    /// preceded this call.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError>;

    /// Output shape for a given input shape (both without the batch axis).
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn output_shape(&self, input: &Shape) -> Result<Shape, NnError>;

    /// Mutable access to trainable parameters (weights first, then bias).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Shared access to trainable parameters.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Installs (or clears) the weight quantizer for QAT / quantized
    /// inference. No-op for parameterless layers.
    fn set_weight_quantizer(&mut self, _q: Option<QuantizerHandle>) {}

    /// The installed weight quantizer, if any.
    fn weight_quantizer(&self) -> Option<&QuantizerHandle> {
        None
    }

    /// Installs (or clears) the quantizer that produced this layer's
    /// *input* activations — [`Network`](crate::Network) wires in the
    /// activation quantizer of the preceding slot so Dense/Conv2d know the
    /// input grid and can dispatch to the native quantized kernels. No-op
    /// for layers without a fast path.
    fn set_input_quantizer(&mut self, _q: Option<QuantizerHandle>) {}

    /// Installs (or clears) the quantizer the network applies to this
    /// layer's *output* activations, so the native path can fuse that snap
    /// into the kernel epilogue instead of a separate whole-tensor pass.
    /// No-op for layers without a fast path.
    fn set_output_quantizer(&mut self, _q: Option<QuantizerHandle>) {}

    /// True when this layer's most recent forward already applied the
    /// installed output quantizer through the fused kernel epilogue —
    /// [`Network`](crate::Network) then skips its separate activation
    /// quantize pass for that slot. Layers that don't fuse always return
    /// `false`; the network pass is the (bit-identical) fallback.
    fn output_quant_applied(&self) -> bool {
        false
    }
}

/// Flattens a batch `(N, C, H, W)` (or passes through `(N, D)`) into
/// `(N, D)` — the implicit reshape before a dense layer.
pub(crate) fn flatten_batch(input: &Tensor) -> Result<Tensor, NnError> {
    match input.shape().rank() {
        2 => Ok(input.clone()),
        4 => {
            let n = input.shape().dim(0);
            let d = input.len() / n;
            Ok(input.reshape(Shape::d2(n, d))?)
        }
        r => Err(NnError::Tensor(qnn_tensor::TensorError::RankMismatch {
            op: "flatten",
            expected: 4,
            actual: r,
        })),
    }
}
