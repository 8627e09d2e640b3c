use qnn_quant::packed::{conv_on_grid, ConvGridScratch, Epilogue, Fallback};
use qnn_quant::BitCodec;
use qnn_tensor::conv::{
    conv2d_backward_with, conv2d_each_with, conv2d_with, ConvScratch, Geometry,
};
use qnn_tensor::{init, rng, Shape, Tensor};

use crate::error::NnError;
use crate::layers::{Layer, QuantizerHandle};
use crate::native::{self, PlanCache};
use crate::network::Mode;
use crate::param::Param;

/// A 2-D convolution layer with bias.
///
/// Under quantization-aware training the forward pass convolves with the
/// **quantized** weights while `weight.value` keeps the full-precision
/// shadow copy; `backward` computes gradients against the quantized
/// weights (what the hardware multiplies by) and deposits them on the
/// shadow parameter, implementing the straight-through estimator.
///
/// Biases are *not* quantized: the modelled accelerator accumulates in a
/// wide adder tree and adds the bias at accumulator precision, so storing
/// biases at weight precision would model hardware the paper doesn't
/// describe.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    geom: Geometry,
    in_channels: usize,
    out_channels: usize,
    weight_q: Option<QuantizerHandle>,
    input_q: Option<QuantizerHandle>,
    /// The network's quantizer for this layer's *output* activations,
    /// fused into the native kernel epilogue when possible.
    output_q: Option<QuantizerHandle>,
    /// Whether the last forward applied `output_q` through the fused
    /// epilogue for *every* sample (so the network skips its separate
    /// quantize pass).
    fused_out_q: bool,
    cache: Option<ConvCache>,
    /// Eval-mode quantized-weight cache. Shadow weights only change
    /// through [`Layer::params_mut`] (optimizer, state load, fault
    /// injection) or [`Layer::set_weight_quantizer`], both of which clear
    /// this — so between mutations, re-quantizing the whole weight tensor
    /// every forward is pure waste on the serving hot path.
    frozen_qw: Option<Tensor>,
    /// Packed-weight cache for the native quantized fast path: the plan of
    /// `frozen_qw`, cleared whenever the weights are quantized again.
    plan: PlanCache,
    /// Per-layer packing / gradient buffers, allocated once and reused by
    /// every forward/backward call (see [`ConvScratch`]).
    scratch: ConvScratch,
    /// The native route's per-image buffers (see [`ConvGridScratch`]).
    grid: ConvGridScratch,
}

#[derive(Debug)]
struct ConvCache {
    input: Tensor,
    qweight: Tensor,
}

impl Conv2d {
    /// Creates a convolution layer with Xavier-initialized weights.
    ///
    /// `kernel`, `stride` and `pad` follow the paper's Table I notation
    /// (`conv 5×5×20` = 20 output channels, 5×5 kernel).
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0` or `stride == 0` (via [`Geometry::square`]).
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        let geom = Geometry::square(kernel, stride, pad);
        let mut r = rng::seeded(seed);
        let weight =
            init::xavier_uniform(Shape::d4(out_channels, in_channels, kernel, kernel), &mut r);
        Conv2d {
            weight: Param::new(weight, true),
            bias: Param::zeros(Shape::d1(out_channels), false),
            geom,
            in_channels,
            out_channels,
            weight_q: None,
            input_q: None,
            output_q: None,
            fused_out_q: false,
            cache: None,
            frozen_qw: None,
            plan: PlanCache::default(),
            scratch: ConvScratch::new(),
            grid: ConvGridScratch::default(),
        }
    }

    /// The layer's convolution geometry.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The weights actually used in the forward pass: the shadow copy
    /// passed through the installed quantizer (or as-is when none).
    pub fn effective_weight(&self) -> Tensor {
        match &self.weight_q {
            Some(q) => q.quantize(&self.weight.value),
            None => self.weight.value.clone(),
        }
    }

    /// The native quantized forward pass: per sample, the integer kernel
    /// under the exactness certificate ([`conv_on_grid`]), falling back to
    /// the f32 route [`conv2d_with`] runs when a sample fails it; each
    /// declined sample counts as `nn.fwd.fallback.conv2d.<reason>`, the
    /// [`Fallback`] name. Returns `None` (and the caller runs the
    /// simulated whole-batch path) when the input shape is unexpected, or
    /// when no sample can go native: activations that are not fixed-point
    /// of at most 16 bits count every sample as `not_fixed`, and weights
    /// with no packable plan count every sample as `unpackable`.
    ///
    /// Both branches replicate the reference computation exactly — the
    /// same patches, the same GEMM semantics, the same per-channel bias add
    /// (fused into the kernel's row tail on the native branch: the same
    /// f32 additions, elementwise, so bit-identical) — so the output
    /// matches [`conv2d_with`] bit-for-bit regardless of which samples
    /// went native.
    ///
    /// The output activation quantizer is additionally fused per native
    /// sample (when tracing is off). If any sample falls back, the layer
    /// reports the fusion as *not* applied and the network re-quantizes
    /// the whole tensor: quantizers are idempotent (`q(q(x)) == q(x)`, a
    /// documented [`qnn_quant::Quantizer`] contract), so the already-fused
    /// samples come through that pass unchanged.
    fn forward_native(&mut self, input: &Tensor, qw: &Tensor) -> Option<Tensor> {
        let iq = self.input_q.as_ref()?;
        let wq = self.weight_q.as_ref()?;
        let shape = input.shape();
        if shape.rank() != 4 || shape.dim(1) != self.in_channels {
            return None;
        }
        let (n, c, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        let (oh, ow) = self.geom.output_hw(h, w).ok()?;
        let decline = |reason: Fallback| {
            qnn_trace::counter!(format!("nn.fwd.fallback.conv2d.{}", reason.name()), n);
            None
        };
        let codec = match iq.bit_codec() {
            Some(codec @ BitCodec::Fixed(f)) if f.word_bits() <= 16 => codec,
            _ => return decline(Fallback::NotFixed),
        };
        let kdim = c * self.geom.kh * self.geom.kw;
        let o = self.out_channels;
        let Some(plan) = self.plan.plan_for(wq.as_ref(), o, kdim, qw.as_slice()) else {
            return decline(Fallback::Unpackable);
        };
        let sample_flops = (2 * o * oh * ow * kdim) as u64;
        let out_q = if qnn_trace::enabled() {
            None
        } else {
            self.output_q.as_deref()
        };
        // One bias per output channel: the conv orientation's row tail.
        let epi = Epilogue {
            bias: Some(self.bias.value.as_slice()),
            out_quant: out_q,
        };
        let (geom, grid) = (self.geom, &mut self.grid);
        let (out, native) = conv2d_each_with(
            &mut self.scratch,
            input,
            qw,
            &self.bias.value,
            geom,
            |image, dst| match conv_on_grid(&codec, image, (c, h, w), geom, plan, &epi, grid, dst) {
                Ok(()) => true,
                Err(reason) => {
                    qnn_trace::counter!(format!("nn.fwd.fallback.conv2d.{}", reason.name()), 1);
                    false
                }
            },
        )
        .ok()?;
        let simulated = n - native;
        if native > 0 {
            qnn_trace::counter!(native::CTR_FLOPS_NATIVE, native as u64 * sample_flops);
        }
        if simulated > 0 {
            qnn_trace::counter!(native::CTR_FLOPS_SIMULATED, simulated as u64 * sample_flops);
        }
        self.fused_out_q = out_q.is_some() && simulated == 0;
        Some(out)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        // Eval reuses the frozen quantized weights (taken here, put back
        // below); training always re-quantizes the live shadow copy.
        let qw = match (mode, self.frozen_qw.take()) {
            (Mode::Eval, Some(w)) => w,
            _ => {
                // New quantized weights: a cached plan packed the old.
                self.plan.clear();
                self.effective_weight()
            }
        };
        self.fused_out_q = false;
        let native_out = if mode == Mode::Eval && native::native_enabled() {
            self.forward_native(input, &qw)
        } else {
            None
        };
        let out = match native_out {
            Some(out) => out,
            None => {
                self.fused_out_q = false;
                let out = conv2d_with(&mut self.scratch, input, &qw, &self.bias.value, self.geom)?;
                let s = out.shape();
                let px = s.dim(2) * s.dim(3);
                let kdim = self.in_channels * self.geom.kh * self.geom.kw;
                let flops = (2 * s.dim(0) * self.out_channels * px * kdim) as u64;
                qnn_trace::counter!(native::CTR_FLOPS_SIMULATED, flops);
                out
            }
        };
        if mode == Mode::Train {
            self.cache = Some(ConvCache {
                input: input.clone(),
                qweight: qw,
            });
        } else {
            self.cache = None;
            self.frozen_qw = Some(qw);
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let cache = self
            .cache
            .take()
            .ok_or(NnError::NoForwardCache { layer: "conv2d" })?;
        let (gx, gw, gb) = conv2d_backward_with(
            &mut self.scratch,
            &cache.input,
            &cache.qweight,
            grad_out,
            self.geom,
        )?;
        // Straight-through estimator: the gradient w.r.t. the quantized
        // weight is applied to the shadow weight unchanged. Clipping (zero
        // gradient outside the representable range) is handled by the
        // optimizer via the quantizer's range, see `Sgd::step_quantized`.
        self.weight.grad = gw;
        self.bias.grad = gb;
        Ok(gx)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        if input.rank() != 3 || input.dim(0) != self.in_channels {
            return Err(NnError::InvalidSpec {
                network: String::new(),
                reason: format!(
                    "conv2d expects ({}, h, w) input, got {input}",
                    self.in_channels
                ),
            });
        }
        let (oh, ow) = self.geom.output_hw(input.dim(1), input.dim(2))?;
        Ok(Shape::d3(self.out_channels, oh, ow))
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // The caller may mutate the shadow weights through these refs.
        self.frozen_qw = None;
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn set_weight_quantizer(&mut self, q: Option<QuantizerHandle>) {
        self.weight_q = q;
        self.frozen_qw = None;
        self.plan.clear();
    }

    fn weight_quantizer(&self) -> Option<&QuantizerHandle> {
        self.weight_q.as_ref()
    }

    fn set_input_quantizer(&mut self, q: Option<QuantizerHandle>) {
        self.input_q = q;
    }

    fn set_output_quantizer(&mut self, q: Option<QuantizerHandle>) {
        self.output_q = q;
        self.fused_out_q = false;
    }

    fn output_quant_applied(&self) -> bool {
        self.fused_out_q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn_quant::Binary;
    use std::sync::Arc;

    #[test]
    fn forward_shape() {
        let mut l = Conv2d::new(1, 20, 5, 1, 0, 1);
        let x = Tensor::zeros(Shape::d4(2, 1, 28, 28));
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape().dims(), &[2, 20, 24, 24]);
        assert_eq!(
            l.output_shape(&Shape::d3(1, 28, 28)).unwrap(),
            Shape::d3(20, 24, 24)
        );
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut l = Conv2d::new(1, 2, 3, 1, 0, 1);
        let g = Tensor::zeros(Shape::d4(1, 2, 2, 2));
        assert!(matches!(
            l.backward(&g),
            Err(NnError::NoForwardCache { layer: "conv2d" })
        ));
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut l = Conv2d::new(1, 2, 3, 1, 0, 1);
        let x = Tensor::zeros(Shape::d4(1, 1, 4, 4));
        l.forward(&x, Mode::Eval).unwrap();
        let g = Tensor::zeros(Shape::d4(1, 2, 2, 2));
        assert!(l.backward(&g).is_err());
    }

    #[test]
    fn quantizer_binarizes_forward_weights() {
        let mut l = Conv2d::new(1, 1, 2, 1, 0, 7);
        l.set_weight_quantizer(Some(Arc::new(Binary::new())));
        let w = l.effective_weight();
        assert!(w.as_slice().iter().all(|&x| x == 1.0 || x == -1.0));
        // Shadow stays full precision.
        assert!(l.params()[0]
            .value
            .as_slice()
            .iter()
            .any(|&x| x != 1.0 && x != -1.0));
    }

    #[test]
    fn gradient_lands_on_shadow_param() {
        let mut l = Conv2d::new(1, 1, 2, 1, 0, 3);
        let x = Tensor::ones(Shape::d4(1, 1, 3, 3));
        let y = l.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones(y.shape().clone());
        l.backward(&g).unwrap();
        assert!(l.params()[0].grad.sum() != 0.0);
        assert!(l.params()[1].grad.sum() != 0.0);
    }

    #[test]
    fn eval_weight_freeze_tracks_mutation() {
        let mut l = Conv2d::new(1, 1, 2, 1, 0, 7);
        l.set_weight_quantizer(Some(Arc::new(Binary::new())));
        let x = Tensor::ones(Shape::d4(1, 1, 3, 3));
        let y0 = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(l.forward(&x, Mode::Eval).unwrap(), y0);
        // Negate every shadow weight through params_mut; the frozen
        // quantized copy must be rebuilt, flipping the (bias-free) output.
        let mut params = l.params_mut();
        for v in params[0].value.as_mut_slice() {
            *v = -*v;
        }
        drop(params);
        let y1 = l.forward(&x, Mode::Eval).unwrap();
        for (a, b) in y0.as_slice().iter().zip(y1.as_slice()) {
            assert_eq!(*b, -*a);
        }
    }

    #[test]
    fn output_shape_rejects_wrong_channels() {
        let l = Conv2d::new(3, 8, 3, 1, 1, 1);
        assert!(l.output_shape(&Shape::d3(1, 8, 8)).is_err());
    }
}
