use qnn_tensor::gemm::{gemm_nn_with, gemm_nt_with, gemm_tn_with, GemmScratch};
use qnn_tensor::{init, rng, Shape, Tensor};

use crate::error::NnError;
use crate::layers::{flatten_batch, Layer, QuantizerHandle};
use crate::native::{self, PlanCache};
use crate::network::Mode;
use crate::param::Param;

/// A fully-connected ("innerproduct" in Caffe/Table I terms) layer.
///
/// Accepts either `(N, D)` or `(N, C, H, W)` input — the spatial case is
/// flattened, matching how the paper's architectures transition from
/// convolutional to dense stages. Quantization semantics mirror
/// [`Conv2d`](crate::layers::Conv2d): quantized weights forward, shadow
/// weights updated, biases left at accumulator precision.
#[derive(Debug)]
pub struct Dense {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    weight_q: Option<QuantizerHandle>,
    input_q: Option<QuantizerHandle>,
    /// The network's quantizer for this layer's *output* activations,
    /// fused into the native kernel epilogue when possible.
    output_q: Option<QuantizerHandle>,
    /// Whether the last forward applied `output_q` through the fused
    /// epilogue (so the network skips its separate quantize pass).
    fused_out_q: bool,
    cache: Option<DenseCache>,
    /// Eval-mode quantized-weight cache; see the field of the same name on
    /// [`Conv2d`](crate::layers::Conv2d) for the invalidation contract.
    frozen_qw: Option<Tensor>,
    /// Packed-weight cache for the native quantized fast path: the plan of
    /// `frozen_qw`, cleared whenever the weights are quantized again.
    plan: PlanCache,
    /// Per-layer GEMM packing buffers, allocated once and reused by every
    /// forward/backward call.
    scratch: GemmScratch,
}

#[derive(Debug)]
struct DenseCache {
    input2d: Tensor,
    input_shape: Shape,
    qweight: Tensor,
}

impl Dense {
    /// Creates a dense layer `(out, in)` with Xavier-initialized weights.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let mut r = rng::seeded(seed);
        let weight = init::xavier_uniform(Shape::d2(out_features, in_features), &mut r);
        Dense {
            weight: Param::new(weight, true),
            bias: Param::zeros(Shape::d1(out_features), false),
            in_features,
            out_features,
            weight_q: None,
            input_q: None,
            output_q: None,
            fused_out_q: false,
            cache: None,
            frozen_qw: None,
            plan: PlanCache::default(),
            scratch: GemmScratch::default(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weights used in the forward pass (shadow copy through the
    /// quantizer, or as-is when none is installed).
    pub fn effective_weight(&self) -> Tensor {
        match &self.weight_q {
            Some(q) => q.quantize(&self.weight.value),
            None => self.weight.value.clone(),
        }
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let x = flatten_batch(input)?;
        if x.shape().dim(1) != self.in_features {
            return Err(NnError::InvalidSpec {
                network: String::new(),
                reason: format!(
                    "dense expects {} input features, got {}",
                    self.in_features,
                    x.shape().dim(1)
                ),
            });
        }
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
        // y = x · Wᵀ + b — the (out, in) weight matrix is the B operand of
        // an NT product, so no transpose is ever materialised.
        let n = x.shape().dim(0);
        let mut out = vec![0.0f32; n * self.out_features];
        let flops = (2 * n * self.in_features * self.out_features) as u64;
        // Native quantized fast path (Eval only): runs the integer kernels
        // when the exactness certificate guarantees bit-identity with the
        // simulated GEMM below. The bias add is fused into the kernel
        // epilogue, and so is the output activation quantizer — except
        // under tracing, where the network's separate quantize pass must
        // keep running so its per-pass telemetry is observed.
        self.fused_out_q = false;
        let out_q = if qnn_trace::enabled() {
            None
        } else {
            self.output_q.as_deref()
        };
        let went_native = mode == Mode::Eval
            && native::native_enabled()
            && match (&self.input_q, &self.weight_q) {
                (Some(iq), Some(wq)) => {
                    let codec = iq.bit_codec();
                    let plan = self.plan.plan_for(
                        wq.as_ref(),
                        self.out_features,
                        self.in_features,
                        qw.as_slice(),
                    );
                    match (codec, plan) {
                        (Some(codec), Some(plan)) => {
                            let epi = qnn_quant::packed::Epilogue {
                                bias: Some(self.bias.value.as_slice()),
                                out_quant: out_q,
                            };
                            qnn_quant::packed::matmul_on_grid_fused(
                                &codec,
                                x.as_slice(),
                                n,
                                self.in_features,
                                false,
                                plan,
                                &epi,
                                &mut out,
                            )
                        }
                        _ => false,
                    }
                }
                _ => false,
            };
        if went_native {
            qnn_trace::counter!(native::CTR_FLOPS_NATIVE, flops);
            self.fused_out_q = out_q.is_some();
        } else {
            qnn_trace::counter!(native::CTR_FLOPS_SIMULATED, flops);
            gemm_nt_with(
                &mut self.scratch,
                n,
                self.in_features,
                self.out_features,
                x.as_slice(),
                qw.as_slice(),
                &mut out,
            );
            let b = self.bias.value.as_slice();
            for i in 0..n {
                for j in 0..self.out_features {
                    out[i * self.out_features + j] += b[j];
                }
            }
        }
        let out = Tensor::from_vec(Shape::d2(n, self.out_features), out)?;
        if mode == Mode::Train {
            self.cache = Some(DenseCache {
                input2d: x,
                input_shape: input.shape().clone(),
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
            .ok_or(NnError::NoForwardCache { layer: "dense" })?;
        // dW = dYᵀ · X ; db = column sums of dY ; dX = dY · W. Both products
        // run as TN/NN GEMMs straight off the cached slices.
        let n = grad_out.shape().dim(0);
        let gos = grad_out.as_slice();
        let mut gw = vec![0.0f32; self.out_features * self.in_features];
        gemm_tn_with(
            &mut self.scratch,
            self.out_features,
            n,
            self.in_features,
            gos,
            cache.input2d.as_slice(),
            &mut gw,
        );
        let mut gb = vec![0.0f32; self.out_features];
        for i in 0..n {
            for j in 0..self.out_features {
                gb[j] += gos[i * self.out_features + j];
            }
        }
        let mut gx = vec![0.0f32; n * self.in_features];
        gemm_nn_with(
            &mut self.scratch,
            n,
            self.out_features,
            self.in_features,
            gos,
            cache.qweight.as_slice(),
            &mut gx,
        );
        let gx2 = Tensor::from_vec(Shape::d2(n, self.in_features), gx)?;
        self.weight.grad = Tensor::from_vec(Shape::d2(self.out_features, self.in_features), gw)?;
        self.bias.grad = Tensor::from_vec(Shape::d1(self.out_features), gb)?;
        Ok(gx2.reshape(cache.input_shape)?)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        let d = input.len();
        if d != self.in_features {
            return Err(NnError::InvalidSpec {
                network: String::new(),
                reason: format!(
                    "dense expects {} input features, got {d} from {input}",
                    self.in_features
                ),
            });
        }
        Ok(Shape::d1(self.out_features))
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

    #[test]
    fn forward_matches_hand_computation() {
        let mut l = Dense::new(2, 2, 1);
        l.weight.value = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]).unwrap();
        l.bias.value = Tensor::from_vec(Shape::d1(2), vec![0.5, -0.5]).unwrap();
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1., 1.]).unwrap();
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn flattens_spatial_input() {
        let mut l = Dense::new(8, 3, 1);
        let x = Tensor::ones(Shape::d4(2, 2, 2, 2));
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut l = Dense::new(3, 2, 5);
        let x = Tensor::from_vec(Shape::d2(2, 3), vec![0.5, -1., 2., 0., 1., -0.5]).unwrap();
        let y = l.forward(&x, Mode::Train).unwrap();
        let gout = Tensor::ones(y.shape().clone());
        let gx = l.backward(&gout).unwrap();
        let eps = 1e-3;
        // weight gradient check
        let w0 = l.weight.value.clone();
        for idx in [0usize, 3, 5] {
            let mut wp = w0.clone();
            wp.as_mut_slice()[idx] += eps;
            // Through params_mut, like real callers — direct field writes
            // would bypass the eval-weight freeze invalidation.
            l.params_mut()[0].value = wp;
            let yp = l.forward(&x, Mode::Eval).unwrap().sum();
            let mut wm = w0.clone();
            wm.as_mut_slice()[idx] -= eps;
            l.params_mut()[0].value = wm;
            let ym = l.forward(&x, Mode::Eval).unwrap().sum();
            l.params_mut()[0].value = w0.clone();
            let num = (yp - ym) / (2.0 * eps);
            assert!((num - l.weight.grad.as_slice()[idx]).abs() < 1e-2);
        }
        // input gradient = row sums of W columns
        let mut expect = [0.0f32; 3];
        for (j, e) in expect.iter_mut().enumerate() {
            for o in 0..2 {
                *e += w0.as_slice()[o * 3 + j];
            }
        }
        for i in 0..2 {
            for (j, e) in expect.iter().enumerate() {
                assert!((gx.as_slice()[i * 3 + j] - e).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn eval_weight_freeze_invalidated_by_params_mut() {
        let mut l = Dense::new(2, 1, 9);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1., 1.]).unwrap();
        let y0 = l.forward(&x, Mode::Eval).unwrap().sum();
        l.params_mut()[0].value = Tensor::ones(Shape::d2(1, 2));
        // Second Eval forward must see the new weights, not the frozen copy.
        assert_eq!(l.forward(&x, Mode::Eval).unwrap().sum(), 2.0);
        assert_ne!(y0, 2.0);
    }

    #[test]
    fn rejects_wrong_feature_count() {
        let mut l = Dense::new(4, 2, 1);
        let x = Tensor::zeros(Shape::d2(1, 5));
        assert!(l.forward(&x, Mode::Eval).is_err());
        assert!(l.output_shape(&Shape::d1(5)).is_err());
    }

    #[test]
    fn output_shape_flattens() {
        let l = Dense::new(12, 7, 1);
        assert_eq!(l.output_shape(&Shape::d3(3, 2, 2)).unwrap(), Shape::d1(7));
    }
}
