use std::sync::Arc;

use qnn_faults::{BufferKind, FaultInjector};
use qnn_quant::{calibrate, BitCodec, Precision, Scheme};
use qnn_tensor::Tensor;

use crate::arch::{LayerSpec, NetworkSpec};
use crate::error::NnError;
use crate::layers::{AvgPool2d, Conv2d, Dense, Layer, MaxPool2d, QuantizerHandle, Relu};
use crate::param::Param;

/// Whether a forward pass caches intermediates for backprop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Cache for a subsequent backward pass.
    Train,
    /// Inference only — no caches retained.
    Eval,
}

/// How activation quantizer ranges are assigned across layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActivationCalibration {
    /// One radix point per feature-map tensor position (Ristretto's
    /// dynamic fixed point; what the paper's software stack does).
    #[default]
    PerLayer,
    /// A single radix point shared by every feature map — the paper's
    /// accelerator supports one radix position; per-layer radix support is
    /// the multi-radix architecture it names as future work.
    Global,
}

/// A sequential network: layers from a [`NetworkSpec`] plus optional
/// quantization state.
///
/// Quantization attaches in two places, mirroring the paper's hardware:
/// each weighted layer holds a *weight* quantizer (applied to the shadow
/// weights every forward pass), and the network holds *activation*
/// quantizers applied to the input image and to every layer output (the
/// values that traverse the accelerator's input/output buffer subsystems).
pub struct Network {
    spec: NetworkSpec,
    layers: Vec<Box<dyn Layer>>,
    /// `act_q[0]` quantizes the network input; `act_q[i+1]` the output of
    /// layer `i`. All `None` when running full precision.
    act_q: Vec<Option<QuantizerHandle>>,
    /// `snap_is_identity[i]` marks slots whose snap provably changes no
    /// bit (see [`identity_snaps`]), so forwards skip them. Decided once
    /// per installed precision; all `false` when none is installed.
    snap_is_identity: Vec<bool>,
    precision: Option<Precision>,
    /// One precision per weighted layer when a mixed assignment is
    /// installed ([`set_precision_per_layer`](Self::set_precision_per_layer));
    /// mutually exclusive with `precision`.
    per_layer: Option<Vec<Precision>>,
    /// When set, every forward pass corrupts each activation tensor after
    /// its quantization step — the `Bin` buffer fault model.
    act_faults: Option<FaultInjector>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("spec", &self.spec.name())
            .field("layers", &self.layers.len())
            .field("precision", &self.precision.map(|p| p.label()))
            .finish()
    }
}

impl Network {
    /// Instantiates a runnable network from a spec, seeding each layer's
    /// initializer deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] if the spec does not validate.
    pub fn build(spec: &NetworkSpec, seed: u64) -> Result<Self, NnError> {
        let summaries = spec.summaries()?;
        let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(summaries.len());
        for s in &summaries {
            let layer_seed = qnn_tensor::rng::derive_seed(seed, s.index as u64);
            let layer: Box<dyn Layer> = match s.spec {
                LayerSpec::Conv {
                    out_channels,
                    kernel,
                    stride,
                    pad,
                } => Box::new(Conv2d::new(
                    s.input.dim(0),
                    out_channels,
                    kernel,
                    stride,
                    pad,
                    layer_seed,
                )),
                LayerSpec::Relu => Box::new(Relu::new()),
                LayerSpec::MaxPool {
                    kernel,
                    stride,
                    ceil,
                } => Box::new(MaxPool2d::new(kernel, stride, ceil)),
                LayerSpec::AvgPool {
                    kernel,
                    stride,
                    ceil,
                } => Box::new(AvgPool2d::new(kernel, stride, ceil)),
                LayerSpec::Dense { units } => {
                    Box::new(Dense::new(s.input.len(), units, layer_seed))
                }
            };
            layers.push(layer);
        }
        let n = layers.len();
        Ok(Network {
            spec: spec.clone(),
            layers,
            act_q: vec![None; n + 1],
            snap_is_identity: vec![false; n + 1],
            precision: None,
            per_layer: None,
            act_faults: None,
        })
    }

    /// The spec this network was built from.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// The installed precision, if uniformly quantized. `None` both for
    /// full-precision networks and for mixed per-layer assignments (see
    /// [`precision_per_layer`](Self::precision_per_layer)).
    pub fn precision(&self) -> Option<Precision> {
        self.precision
    }

    /// The installed per-layer assignment (one precision per weighted
    /// layer), if a mixed assignment is active.
    pub fn precision_per_layer(&self) -> Option<&[Precision]> {
        self.per_layer.as_deref()
    }

    /// Whether any quantizers are installed — uniform or per-layer.
    pub fn is_quantized(&self) -> bool {
        self.precision.is_some() || self.per_layer.is_some()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.params().iter().map(|p| p.len()).sum::<usize>())
            .sum()
    }

    fn check_input(&self, batch: &Tensor) -> Result<(), NnError> {
        let (c, h, w) = self.spec.input();
        let ok = batch.shape().rank() == 4
            && batch.shape().dim(1) == c
            && batch.shape().dim(2) == h
            && batch.shape().dim(3) == w;
        if !ok {
            return Err(NnError::InputMismatch {
                expected: (c, h, w),
                actual: batch.shape().to_string(),
            });
        }
        Ok(())
    }

    /// Runs the network on a batch `(N, C, H, W)`, returning logits
    /// `(N, classes)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputMismatch`] for a wrong batch shape, or any
    /// layer error.
    pub fn forward(&mut self, batch: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        self.check_input(batch)?;
        qnn_trace::counter!("nn.fwd.images", batch.shape().dim(0) as u64);
        let mut x = match &self.act_q[0] {
            Some(q) => q.quantize(batch),
            None => batch.clone(),
        };
        corrupt_activations(&mut self.act_faults, &self.act_q[0], &mut x);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            qnn_trace::span!("fwd:{}:{}", i, layer.name());
            x = layer.forward_owned(x, mode)?;
            if let Some(q) = &self.act_q[i + 1] {
                // Feature maps are the largest tensors in the pass; snap
                // them across the worker pool (bit-identical to serial) —
                // unless the snap is the identity or the layer already
                // applied this quantizer through its fused kernel epilogue.
                if !self.snap_is_identity[i + 1] && !layer.output_quant_applied() {
                    qnn_quant::quantize_inplace_par(q.as_ref(), &mut x);
                }
            }
            corrupt_activations(&mut self.act_faults, &self.act_q[i + 1], &mut x);
        }
        Ok(x)
    }

    /// Runs a forward pass capturing the network input and every layer
    /// output (post-quantization) — the samples activation calibration
    /// needs.
    ///
    /// # Errors
    ///
    /// Same as [`forward`](Network::forward).
    pub fn forward_trace(&mut self, batch: &Tensor) -> Result<Vec<Tensor>, NnError> {
        self.check_input(batch)?;
        let mut trace = Vec::with_capacity(self.layers.len() + 1);
        let mut x = match &self.act_q[0] {
            Some(q) => q.quantize(batch),
            None => batch.clone(),
        };
        trace.push(x.clone());
        for (i, layer) in self.layers.iter_mut().enumerate() {
            x = layer.forward_owned(x, Mode::Eval)?;
            if let Some(q) = &self.act_q[i + 1] {
                if !self.snap_is_identity[i + 1] && !layer.output_quant_applied() {
                    qnn_quant::quantize_inplace_par(q.as_ref(), &mut x);
                }
            }
            trace.push(x.clone());
        }
        Ok(trace)
    }

    /// Backpropagates a logits gradient, filling every parameter's `grad`.
    ///
    /// Activation quantizers backpropagate as straight-through (identity):
    /// the staircase's true zero derivative would stall learning.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] unless a [`Mode::Train`] forward
    /// pass preceded this call.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Result<(), NnError> {
        let mut g = grad_logits.clone();
        let last = self.layers.len().saturating_sub(1);
        for (j, layer) in self.layers.iter_mut().rev().enumerate() {
            qnn_trace::span!("bwd:{}:{}", last - j, layer.name());
            g = layer.backward(&g)?;
        }
        Ok(())
    }

    /// Class predictions for a batch.
    ///
    /// # Errors
    ///
    /// Same as [`forward`](Network::forward).
    pub fn predict(&mut self, batch: &Tensor) -> Result<Vec<usize>, NnError> {
        let logits = self.forward(batch, Mode::Eval)?;
        let n = logits.shape().dim(0);
        let k = logits.shape().dim(1);
        let data = logits.as_slice();
        Ok((0..n)
            .map(|i| {
                let row = &data[i * k..(i + 1) * k];
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect())
    }

    /// Mutable access to every parameter, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Shared access to every parameter, in layer order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Clears every parameter gradient.
    pub fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Snapshots all parameter values (shadow copies), in layer order.
    pub fn state_dict(&self) -> Vec<Tensor> {
        self.params().iter().map(|p| p.value.clone()).collect()
    }

    /// Restores parameter values from a [`state_dict`](Network::state_dict)
    /// snapshot; momentum buffers are reset.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] if the snapshot does not match this
    /// network's parameter list.
    pub fn load_state(&mut self, state: &[Tensor]) -> Result<(), NnError> {
        let mut params = self.params_mut();
        if params.len() != state.len() {
            return Err(NnError::InvalidSpec {
                network: "load_state".to_string(),
                reason: format!("{} tensors for {} parameters", state.len(), params.len()),
            });
        }
        for (p, t) in params.iter_mut().zip(state.iter()) {
            if p.value.shape() != t.shape() {
                return Err(NnError::InvalidSpec {
                    network: "load_state".to_string(),
                    reason: format!(
                        "shape mismatch: parameter {} vs snapshot {}",
                        p.value.shape(),
                        t.shape()
                    ),
                });
            }
            p.value = t.clone();
            p.velocity = Tensor::zeros(t.shape().clone());
        }
        Ok(())
    }

    /// Installs quantizers for `precision`, calibrating ranges from the
    /// current weights and a forward trace over `calib_batch`.
    ///
    /// This follows the paper's methodology: call it on a network whose
    /// weights were initialized from the converged full-precision model,
    /// then retrain (the shadow weights keep learning underneath the
    /// quantizers).
    ///
    /// # Errors
    ///
    /// Propagates calibration and forward-pass errors.
    pub fn set_precision(
        &mut self,
        precision: Precision,
        method: calibrate::Method,
        calib_batch: &Tensor,
        act_mode: ActivationCalibration,
    ) -> Result<(), NnError> {
        // Calibrate against unquantized behaviour.
        self.clear_precision();
        let trace = self.forward_trace(calib_batch)?;

        // Weight quantizers: per weighted layer, from its own shadow weights
        // (the paper allows an independent radix between parameters and data;
        // Ristretto further keys it per layer).
        for layer in &mut self.layers {
            let params = layer.params();
            if params.is_empty() {
                continue;
            }
            let weight = &params[0].value;
            let q = calibrate::scheme_for(precision.weights(), &[weight], method)?;
            let handle: QuantizerHandle = Arc::from(q);
            layer.set_weight_quantizer(Some(handle));
        }

        // Activation quantizers per slot (input + each layer output).
        match precision.activations() {
            Scheme::Float32 => { /* leave act_q as None */ }
            scheme => match act_mode {
                ActivationCalibration::PerLayer => {
                    for (i, t) in trace.iter().enumerate() {
                        let q = calibrate::scheme_for(scheme, &[t], method)?;
                        self.act_q[i] = Some(Arc::from(q));
                    }
                }
                ActivationCalibration::Global => {
                    let refs: Vec<&Tensor> = trace.iter().collect();
                    let q = calibrate::scheme_for(scheme, &refs, method)?;
                    let handle: QuantizerHandle = Arc::from(q);
                    for slot in &mut self.act_q {
                        *slot = Some(Arc::clone(&handle));
                    }
                }
            },
        }
        // Tell each layer which quantizer produced its input (`act_q[i]`
        // quantizes layer `i`'s input), so Dense/Conv2d can dispatch to the
        // native integer kernels when the format and certificate allow —
        // and which quantizer snaps its output (`act_q[i + 1]`), so the
        // native path can fuse that snap into the kernel epilogue.
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.set_input_quantizer(self.act_q[i].clone());
            layer.set_output_quantizer(self.act_q[i + 1].clone());
        }
        self.snap_is_identity = identity_snaps(&self.spec, &self.act_q);
        self.precision = Some(precision);
        Ok(())
    }

    /// Installs a **mixed** precision assignment: one [`Precision`] per
    /// weighted layer, calibrated exactly like
    /// [`set_precision`](Self::set_precision) but with every weighted
    /// layer carrying its own weight and activation formats — the search
    /// space of `qnn tune`. Each activation slot (network input and
    /// every layer output) is calibrated per layer with the activation
    /// scheme of the weighted layer that *consumes* it; slots after the
    /// last weighted layer use that layer's scheme. A `Float32`
    /// activation scheme leaves its slot unquantized.
    ///
    /// # Errors
    ///
    /// [`NnError::InvalidConfig`] when `assignment` does not have
    /// exactly one entry per weighted layer; otherwise propagates
    /// calibration and forward-pass errors.
    pub fn set_precision_per_layer(
        &mut self,
        assignment: &[Precision],
        method: calibrate::Method,
        calib_batch: &Tensor,
    ) -> Result<(), NnError> {
        let weighted: Vec<usize> = self
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.params().is_empty())
            .map(|(i, _)| i)
            .collect();
        if assignment.len() != weighted.len() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "per-layer assignment has {} precisions, network `{}` has {} weighted layers",
                    assignment.len(),
                    self.spec.name(),
                    weighted.len()
                ),
            });
        }
        // Calibrate against unquantized behaviour.
        self.clear_precision();
        let trace = self.forward_trace(calib_batch)?;

        // Weight quantizers: each weighted layer from its own assigned
        // format.
        let mut next = 0usize;
        for layer in &mut self.layers {
            if layer.params().is_empty() {
                continue;
            }
            let p = assignment[next];
            next += 1;
            let params = layer.params();
            let weight = &params[0].value;
            let q = calibrate::scheme_for(p.weights(), &[weight], method)?;
            let handle: QuantizerHandle = Arc::from(q);
            layer.set_weight_quantizer(Some(handle));
        }

        // Activation slots: slot `i` feeds layer `i`, so it takes the
        // activation scheme of the next weighted layer at or after `i` —
        // the format of the buffer that value would actually occupy.
        let slot_precision = |i: usize| -> Precision {
            match weighted.iter().position(|&li| li >= i) {
                Some(w) => assignment[w],
                None => assignment[assignment.len() - 1],
            }
        };
        for (i, t) in trace.iter().enumerate() {
            match slot_precision(i).activations() {
                Scheme::Float32 => { /* leave the slot as None */ }
                scheme => {
                    let q = calibrate::scheme_for(scheme, &[t], method)?;
                    self.act_q[i] = Some(Arc::from(q));
                }
            }
        }
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.set_input_quantizer(self.act_q[i].clone());
            layer.set_output_quantizer(self.act_q[i + 1].clone());
        }
        self.snap_is_identity = identity_snaps(&self.spec, &self.act_q);
        self.per_layer = Some(assignment.to_vec());
        Ok(())
    }

    /// Removes all quantizers, returning the network to full precision
    /// (shadow weights are untouched).
    pub fn clear_precision(&mut self) {
        for layer in &mut self.layers {
            layer.set_weight_quantizer(None);
            layer.set_input_quantizer(None);
            layer.set_output_quantizer(None);
        }
        for slot in &mut self.act_q {
            *slot = None;
        }
        self.snap_is_identity.fill(false);
        self.precision = None;
        self.per_layer = None;
    }

    /// Applies the clipped straight-through estimator to every weighted
    /// layer: parameter gradients are zeroed where the shadow value lies
    /// outside its quantizer's representable range.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (impossible unless parameters were mutated
    /// inconsistently).
    pub fn apply_ste_clip(&mut self) -> Result<(), NnError> {
        for layer in &mut self.layers {
            let q = match layer.weight_quantizer() {
                Some(q) => Arc::clone(q),
                None => continue,
            };
            let params = layer.params_mut();
            for p in params {
                if !p.decay {
                    continue; // biases are not quantized
                }
                p.grad = qnn_quant::ste::clipped_pass_through(&p.value, &p.grad, q.as_ref())?;
            }
        }
        Ok(())
    }

    /// Flips bits of every weighted layer's stored weights through the
    /// layer's encoded representation, modelling soft errors in the
    /// accelerator's `SB` (synapse) buffer. Returns the flip count.
    ///
    /// Each layer's weight quantizer supplies the [`BitCodec`] targeted
    /// by the flips (sign/exponent/mantissa for float, integer bits for
    /// fixed point, exponent code for pow2, the sign bit for binary); an
    /// unquantized layer is treated as IEEE-754 binary32. Corrupted
    /// values land exactly on the format's grid, so subsequent
    /// fake-quantize passes leave the damage untouched. Biases are
    /// spared, matching the quantization scheme (only `decay` parameters
    /// are quantized).
    ///
    /// Injection is serial and draws only from `inj`, so the damage is
    /// reproducible at any thread count.
    pub fn inject_weight_faults(&mut self, inj: &mut FaultInjector) -> u64 {
        let mut flips = 0u64;
        for layer in &mut self.layers {
            let codec = layer
                .weight_quantizer()
                .and_then(|q| q.bit_codec())
                .unwrap_or(BitCodec::Float32);
            for p in layer.params_mut() {
                if !p.decay {
                    continue;
                }
                flips += inj.corrupt_slice(&codec, BufferKind::Weight, p.value.as_mut_slice());
            }
        }
        flips
    }

    /// Installs (or clears) the activation fault injector: when set,
    /// every forward pass corrupts each activation tensor right after
    /// its quantization point — the `Bin` (input-neuron) buffer fault
    /// model. Pass `None` to restore clean inference.
    pub fn set_activation_faults(&mut self, inj: Option<FaultInjector>) {
        self.act_faults = inj;
    }

    /// Per-layer weight quantizer descriptions (for reports); `None`
    /// entries are unquantized layers.
    pub fn weight_quantizer_descriptions(&self) -> Vec<Option<String>> {
        self.layers
            .iter()
            .map(|l| l.weight_quantizer().map(|q| q.describe()))
            .collect()
    }
}

/// Which activation slots' snaps are the identity, given the installed
/// quantizers: slot `i + 1` when layer `i` is a relu or a max-pool and
/// slots `i` and `i + 1` hold the same fixed-point format (rounding mode
/// included). Such a layer's input already lies on slot `i`'s grid — its
/// own slot was snapped, fused into a kernel epilogue, or skipped by this
/// same rule — and relu and max-pool emit only input elements or `+0.0`.
/// A fixed-point snap maps grid values to themselves (quantizers are
/// idempotent) and `+0.0` to `+0.0`, and never emits `-0.0` itself, so
/// `x.max(0.0)` meets no `-0.0` either. Activation faults keep this true:
/// they flip bits through the slot's codec and land on its grid. Avg-pool
/// never skips: a window mean need not lie on the grid.
fn identity_snaps(spec: &NetworkSpec, act_q: &[Option<QuantizerHandle>]) -> Vec<bool> {
    let fixed = |q: &Option<QuantizerHandle>| match q.as_ref().and_then(|q| q.bit_codec()) {
        Some(BitCodec::Fixed(f)) => Some(f),
        _ => None,
    };
    let mut skip = vec![false; act_q.len()];
    for (i, layer) in spec.layers().iter().enumerate() {
        let grid_preserving = matches!(layer, LayerSpec::Relu | LayerSpec::MaxPool { .. });
        skip[i + 1] = grid_preserving
            && matches!((fixed(&act_q[i]), fixed(&act_q[i + 1])), (Some(a), Some(b)) if a == b);
    }
    skip
}

/// Applies the activation fault model to one tensor: flips stored-word
/// bits through the slot's quantizer codec (binary32 when unquantized).
fn corrupt_activations(
    inj: &mut Option<FaultInjector>,
    q: &Option<QuantizerHandle>,
    x: &mut Tensor,
) {
    if let Some(inj) = inj {
        let codec = q
            .as_ref()
            .and_then(|q| q.bit_codec())
            .unwrap_or(BitCodec::Float32);
        inj.corrupt_slice(&codec, BufferKind::Act, x.as_mut_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::NetworkSpec;
    use qnn_quant::calibrate::Method;
    use qnn_tensor::Shape;

    fn tiny_spec() -> NetworkSpec {
        NetworkSpec::new("tiny", (1, 8, 8))
            .conv(4, 3, 1, 1)
            .relu()
            .max_pool(2, 2)
            .dense(5)
    }

    fn batch(n: usize) -> Tensor {
        let len = n * 64;
        Tensor::from_vec(
            Shape::d4(n, 1, 8, 8),
            (0..len).map(|i| ((i as f32) * 0.31).sin()).collect(),
        )
        .unwrap()
    }

    #[test]
    fn build_and_forward_shapes() {
        let mut net = Network::build(&tiny_spec(), 1).unwrap();
        let y = net.forward(&batch(3), Mode::Eval).unwrap();
        assert_eq!(y.shape().dims(), &[3, 5]);
    }

    #[test]
    fn deterministic_build() {
        let mut a = Network::build(&tiny_spec(), 9).unwrap();
        let mut b = Network::build(&tiny_spec(), 9).unwrap();
        let x = batch(2);
        assert_eq!(
            a.forward(&x, Mode::Eval).unwrap(),
            b.forward(&x, Mode::Eval).unwrap()
        );
        let mut c = Network::build(&tiny_spec(), 10).unwrap();
        assert_ne!(
            b.forward(&x, Mode::Eval).unwrap(),
            c.forward(&x, Mode::Eval).unwrap()
        );
    }

    #[test]
    fn input_shape_validated() {
        let mut net = Network::build(&tiny_spec(), 1).unwrap();
        let bad = Tensor::zeros(Shape::d4(1, 3, 8, 8));
        assert!(matches!(
            net.forward(&bad, Mode::Eval),
            Err(NnError::InputMismatch { .. })
        ));
    }

    #[test]
    fn state_dict_round_trips() {
        let mut a = Network::build(&tiny_spec(), 1).unwrap();
        let mut b = Network::build(&tiny_spec(), 2).unwrap();
        let x = batch(2);
        let ya = a.forward(&x, Mode::Eval).unwrap();
        b.load_state(&a.state_dict()).unwrap();
        assert_eq!(b.forward(&x, Mode::Eval).unwrap(), ya);
    }

    #[test]
    fn load_state_validates() {
        let a = Network::build(&tiny_spec(), 1).unwrap();
        let mut b = Network::build(&tiny_spec(), 2).unwrap();
        let mut state = a.state_dict();
        state.pop();
        assert!(b.load_state(&state).is_err());
    }

    #[test]
    fn set_precision_quantizes_forward() {
        let mut net = Network::build(&tiny_spec(), 1).unwrap();
        let x = batch(2);
        let y_fp = net.forward(&x, Mode::Eval).unwrap();
        net.set_precision(
            Precision::fixed(4, 4),
            Method::MaxAbs,
            &x,
            ActivationCalibration::PerLayer,
        )
        .unwrap();
        let y_q = net.forward(&x, Mode::Eval).unwrap();
        assert_ne!(y_fp, y_q, "4-bit quantization must perturb the output");
        // And clearing restores the FP path exactly.
        net.clear_precision();
        assert_eq!(net.forward(&x, Mode::Eval).unwrap(), y_fp);
    }

    #[test]
    fn per_layer_assignment_installs_mixed_quantizers() {
        let mut net = Network::build(&tiny_spec(), 1).unwrap();
        let x = batch(2);
        let y_fp = net.forward(&x, Mode::Eval).unwrap();
        let weighted = net.layers.iter().filter(|l| !l.params().is_empty()).count();
        let assignment: Vec<Precision> = (0..weighted)
            .map(|i| {
                if i == 0 {
                    Precision::fixed(4, 4)
                } else {
                    Precision::fixed(16, 16)
                }
            })
            .collect();
        net.set_precision_per_layer(&assignment, Method::MaxAbs, &x)
            .unwrap();
        assert_eq!(net.precision(), None, "mixed is not a uniform precision");
        assert_eq!(net.precision_per_layer(), Some(assignment.as_slice()));
        assert!(net.is_quantized());
        let y_mixed = net.forward(&x, Mode::Eval).unwrap();
        assert_ne!(y_fp, y_mixed, "a 4-bit layer must perturb the output");
        // A uniform assignment through the per-layer path matches the
        // uniform installer bit for bit: same calibration, same slots.
        let uniform = vec![Precision::fixed(8, 8); weighted];
        net.set_precision_per_layer(&uniform, Method::MaxAbs, &x)
            .unwrap();
        let y_via_per_layer = net.forward(&x, Mode::Eval).unwrap();
        net.set_precision(
            Precision::fixed(8, 8),
            Method::MaxAbs,
            &x,
            ActivationCalibration::PerLayer,
        )
        .unwrap();
        assert_eq!(net.forward(&x, Mode::Eval).unwrap(), y_via_per_layer);
        // Clearing restores the FP path exactly.
        net.clear_precision();
        assert!(!net.is_quantized());
        assert_eq!(net.forward(&x, Mode::Eval).unwrap(), y_fp);
    }

    #[test]
    fn per_layer_assignment_length_is_validated() {
        let mut net = Network::build(&tiny_spec(), 1).unwrap();
        let x = batch(2);
        assert!(matches!(
            net.set_precision_per_layer(&[Precision::fixed(8, 8)], Method::MaxAbs, &x),
            Err(NnError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn quantized_gradients_flow() {
        let mut net = Network::build(&tiny_spec(), 1).unwrap();
        let x = batch(2);
        net.set_precision(
            Precision::fixed(8, 8),
            Method::MaxAbs,
            &x,
            ActivationCalibration::PerLayer,
        )
        .unwrap();
        let y = net.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones(y.shape().clone());
        net.backward(&g).unwrap();
        let total_grad: f32 = net
            .params()
            .iter()
            .map(|p| p.grad.as_slice().iter().map(|v| v.abs()).sum::<f32>())
            .sum();
        assert!(total_grad > 0.0);
    }

    #[test]
    fn sixteen_bit_barely_changes_output() {
        let mut net = Network::build(&tiny_spec(), 1).unwrap();
        let x = batch(2);
        let y_fp = net.forward(&x, Mode::Eval).unwrap();
        net.set_precision(
            Precision::fixed(16, 16),
            Method::MaxAbs,
            &x,
            ActivationCalibration::PerLayer,
        )
        .unwrap();
        let y_q = net.forward(&x, Mode::Eval).unwrap();
        let max_err = y_fp
            .as_slice()
            .iter()
            .zip(y_q.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let scale = y_fp
            .as_slice()
            .iter()
            .map(|v| v.abs())
            .fold(0.0f32, f32::max)
            .max(1e-6);
        assert!(max_err / scale < 0.01, "relative error {}", max_err / scale);
    }

    #[test]
    fn global_activation_calibration_shares_one_quantizer() {
        let mut net = Network::build(&tiny_spec(), 1).unwrap();
        let x = batch(2);
        net.set_precision(
            Precision::fixed(8, 8),
            Method::MaxAbs,
            &x,
            ActivationCalibration::Global,
        )
        .unwrap();
        let descs: std::collections::HashSet<String> = net
            .act_q
            .iter()
            .map(|q| q.as_ref().unwrap().describe())
            .collect();
        assert_eq!(descs.len(), 1);
    }

    /// An 8×8 conv-relu-pool network shaped like the serving stack's.
    fn serve_shaped_spec() -> NetworkSpec {
        NetworkSpec::new("serve-shaped", (1, 8, 8))
            .conv(6, 3, 1, 1)
            .relu()
            .max_pool(2, 2)
            .conv(10, 3, 1, 1)
            .relu()
            .max_pool(2, 2)
            .dense(10)
    }

    fn images(spec: &NetworkSpec, n: usize, seed: u64) -> Tensor {
        let (c, h, w) = spec.input();
        let mut r = qnn_tensor::rng::seeded(seed);
        let data = (0..n * c * h * w)
            .map(|_| r.gen_range(-1.0f32..1.0))
            .collect();
        Tensor::from_vec(Shape::d4(n, c, h, w), data).unwrap()
    }

    /// The installs every skip test runs: the seven paper precisions with
    /// per-layer calibration, then one mixed per-layer assignment.
    const INSTALLS: usize = 8;

    fn install(net: &mut Network, k: usize, calib: &Tensor) {
        let sweep = Precision::paper_sweep();
        match sweep.get(k) {
            Some(&p) => net
                .set_precision(p, Method::MaxAbs, calib, ActivationCalibration::PerLayer)
                .unwrap(),
            None => {
                let menu = [
                    Precision::fixed(8, 8),
                    Precision::fixed(16, 16),
                    Precision::power_of_two(),
                    Precision::fixed(4, 4),
                ];
                let weighted = net.layers.iter().filter(|l| !l.params().is_empty()).count();
                let mixed: Vec<Precision> = (0..weighted).map(|i| menu[i % menu.len()]).collect();
                net.set_precision_per_layer(&mixed, Method::MaxAbs, calib)
                    .unwrap();
            }
        }
    }

    /// `forward` without the skip: every layer, then every slot's
    /// `quantize_inplace_par` (fused epilogue or not — snaps are
    /// idempotent), then the slot's fault injection.
    fn forward_snapping_every_slot(
        net: &mut Network,
        batch: &Tensor,
        mode: Mode,
        faults: &mut Option<FaultInjector>,
    ) -> Tensor {
        let mut x = batch.clone();
        for (i, q) in net.act_q.iter().enumerate() {
            if i > 0 {
                x = net.layers[i - 1].forward(&x, mode).unwrap();
            }
            if let Some(q) = q {
                qnn_quant::quantize_inplace_par(q.as_ref(), &mut x);
            }
            corrupt_activations(faults, q, &mut x);
        }
        x
    }

    /// Holds a lock over the process-global native override and worker
    /// count, restoring both on drop.
    struct Exclusive {
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    fn exclusive() -> Exclusive {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // `Drop` restores the toggles even after a panic, so a poisoned
        // lock's `()` is still valid.
        Exclusive {
            _lock: LOCK
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }

    impl Drop for Exclusive {
        fn drop(&mut self) {
            crate::set_native(None);
            qnn_tensor::par::set_threads(None);
        }
    }

    #[test]
    fn skipped_snaps_change_no_bit() {
        let _g = exclusive();
        let specs = [
            crate::zoo::lenet(),
            crate::zoo::convnet(),
            crate::zoo::alex(),
            serve_shaped_spec(),
        ];
        let mut skipped = 0usize;
        for (si, spec) in specs.iter().enumerate() {
            let mut net = Network::build(spec, 40 + si as u64).unwrap();
            let calib = images(spec, 4, 50 + si as u64);
            let x = images(spec, 2, 60 + si as u64);
            for k in 0..INSTALLS {
                install(&mut net, k, &calib);
                skipped += net.snap_is_identity.iter().filter(|&&s| s).count();
                for combo in 0..16u64 {
                    let mode = if combo & 1 == 0 {
                        Mode::Eval
                    } else {
                        Mode::Train
                    };
                    let threads = if combo & 2 == 0 { 1 } else { 4 };
                    crate::set_native(Some(combo & 4 == 0));
                    qnn_tensor::par::set_threads(Some(threads));
                    let faults = (combo & 8 != 0).then(|| FaultInjector::new(2e-3, combo).unwrap());
                    net.set_activation_faults(faults.clone());
                    let got = net.forward(&x, mode).unwrap();
                    let want = forward_snapping_every_slot(&mut net, &x, mode, &mut faults.clone());
                    let same = got
                        .as_slice()
                        .iter()
                        .zip(want.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "{} install {k} {mode:?} threads={threads} native={} faults={}",
                        spec.name(),
                        combo & 4 == 0,
                        faults.is_some()
                    );
                }
                net.set_activation_faults(None);
            }
        }
        assert!(
            skipped > 0,
            "some snap must be skipped, or the check is vacuous"
        );
    }

    #[test]
    fn identity_snap_decisions() {
        let fixed = |q: &Option<QuantizerHandle>| match q.as_ref().and_then(|q| q.bit_codec()) {
            Some(BitCodec::Fixed(f)) => Some(f),
            _ => None,
        };
        // Relu and max-pool slots seen skipping and keeping their snap:
        // both must occur, or the "if and only if" below is half unchecked.
        let (mut skipped, mut kept) = (0usize, 0usize);
        for (si, spec) in [
            crate::zoo::lenet(),
            crate::zoo::convnet(),
            crate::zoo::alex(),
            serve_shaped_spec(),
        ]
        .iter()
        .enumerate()
        {
            let mut net = Network::build(spec, 70 + si as u64).unwrap();
            let calib = images(spec, 4, 80 + si as u64);
            for k in 0..INSTALLS {
                install(&mut net, k, &calib);
                assert!(!net.snap_is_identity[0], "the input snap never skips");
                for (i, layer) in spec.layers().iter().enumerate() {
                    let skip = net.snap_is_identity[i + 1];
                    match layer {
                        LayerSpec::Relu | LayerSpec::MaxPool { .. } => {
                            let same = fixed(&net.act_q[i]).is_some()
                                && fixed(&net.act_q[i]) == fixed(&net.act_q[i + 1]);
                            assert_eq!(skip, same, "{} install {k} slot {}", spec.name(), i + 1);
                            skipped += usize::from(skip);
                            kept += usize::from(!skip && fixed(&net.act_q[i + 1]).is_some());
                        }
                        _ => assert!(!skip, "{} install {k}: {layer:?} slot skips", spec.name()),
                    }
                }
                net.clear_precision();
                assert!(
                    net.snap_is_identity.iter().all(|&s| !s),
                    "clear_precision keeps a skip"
                );
            }
            // One shared format: every relu and max-pool snap is the identity.
            for p in Precision::paper_sweep().into_iter().skip(1) {
                net.set_precision(p, Method::MaxAbs, &calib, ActivationCalibration::Global)
                    .unwrap();
                for (i, layer) in spec.layers().iter().enumerate() {
                    let grid_preserving =
                        matches!(layer, LayerSpec::Relu | LayerSpec::MaxPool { .. });
                    assert_eq!(
                        net.snap_is_identity[i + 1],
                        grid_preserving,
                        "{} {p} slot {}",
                        spec.name(),
                        i + 1
                    );
                }
            }
        }
        assert!(skipped > 0 && kept > 0, "skipped {skipped}, kept {kept}");
    }

    #[test]
    fn ste_clip_freezes_out_of_range_weights() {
        let mut net = Network::build(&tiny_spec(), 1).unwrap();
        let x = batch(2);
        net.set_precision(
            Precision::fixed(8, 8),
            Method::MaxAbs,
            &x,
            ActivationCalibration::PerLayer,
        )
        .unwrap();
        // Push one weight far out of range, give it gradient, clip.
        {
            let mut params = net.params_mut();
            params[0].value.as_mut_slice()[0] = 100.0;
            params[0].grad = Tensor::ones(params[0].value.shape().clone());
        }
        net.apply_ste_clip().unwrap();
        let params = net.params();
        assert_eq!(params[0].grad.as_slice()[0], 0.0);
        assert_eq!(params[0].grad.as_slice()[1], 1.0);
    }
}
