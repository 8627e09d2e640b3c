use qnn_tensor::Tensor;

/// A map from `f32` onto a format's representable grid.
///
/// This is the Ristretto-style *simulated quantization* contract: the
/// returned values are ordinary `f32`s, but every one of them is exactly
/// representable in the target format, so f32 arithmetic over them models
/// what the reduced-precision hardware computes (up to accumulator
/// rounding, which the paper's accelerator performs at full internal
/// width).
///
/// Implementors must be idempotent: `q(q(x)) == q(x)` for all finite `x`.
/// The property tests in this crate enforce that for every shipped format.
pub trait Quantizer: std::fmt::Debug {
    /// Snaps a single value onto the representable grid.
    fn quantize_value(&self, x: f32) -> f32;

    /// Number of storage bits per value in this format.
    fn bits(&self) -> u32;

    /// Short human-readable format name, e.g. `"Q3.4"` or `"pow2[6b]"`.
    fn describe(&self) -> String;

    /// Snaps every element of a slice in place — the batch form of
    /// [`quantize_value`](Quantizer::quantize_value), and the entry point
    /// every tensor-level pass funnels through.
    ///
    /// The default loops over `quantize_value`; formats with per-element
    /// libm calls (fixed point's `exp2`, pow2's `log2`) override it with a
    /// loop that hoists the format constants so the body vectorizes.
    /// **Overrides must be bit-identical to the default** — the serving
    /// stack's bit-identity contract rides on every element snapping the
    /// same way no matter which path ran.
    fn quantize_slice(&self, data: &mut [f32]) {
        for v in data {
            *v = self.quantize_value(*v);
        }
    }

    /// Snaps every element of a tensor, producing a new tensor.
    fn quantize(&self, t: &Tensor) -> Tensor {
        let mut out = t.clone();
        self.quantize_slice(out.as_mut_slice());
        if qnn_trace::enabled() {
            observe_pass(
                &self.describe(),
                t.as_slice(),
                out.as_slice(),
                self.min_value(),
                self.max_value(),
            );
        }
        out
    }

    /// Snaps every element of a tensor in place.
    fn quantize_inplace(&self, t: &mut Tensor) {
        if qnn_trace::enabled() {
            let before = t.as_slice().to_vec();
            self.quantize_slice(t.as_mut_slice());
            observe_pass(
                &self.describe(),
                &before,
                t.as_slice(),
                self.min_value(),
                self.max_value(),
            );
        } else {
            self.quantize_slice(t.as_mut_slice());
        }
    }

    /// Largest representable value (used for saturation-aware clipping in
    /// the straight-through estimator).
    fn max_value(&self) -> f32;

    /// Smallest (most negative) representable value.
    fn min_value(&self) -> f32;

    /// Shadow-weight range outside which the clipped straight-through
    /// estimator zeroes gradients.
    ///
    /// Defaults to the representable range. Binary overrides this to
    /// `[-1, 1]` (the BinaryConnect convention): its representable "range"
    /// is just `{±scale}`, which would freeze almost every weight.
    fn ste_clip_range(&self) -> (f32, f32) {
        (self.min_value(), self.max_value())
    }

    /// The bit-level codec behind this quantizer's grid, if the format
    /// has a defined stored-word layout (all shipped formats do). Fault
    /// injection uses this to flip bits in the *encoded* representation.
    fn bit_codec(&self) -> Option<crate::codec::BitCodec> {
        None
    }
}

/// Chunk length of parallel fake-quantize passes. Fixed (never derived from
/// the thread count) so chunk boundaries — and with them every rounding
/// decision — are identical no matter how many workers run. Element-wise
/// snapping has no cross-element state, so the result equals the serial pass
/// bit-for-bit anyway; the fixed chunking keeps the execution shape
/// deterministic too.
const PAR_CHUNK: usize = 8192;

/// Snaps every element of `t` in place, spreading fixed-size chunks over
/// the `qnn_tensor::par` pool.
///
/// This is the fake-quantize hot path of quantization-aware training: every
/// forward pass snaps each activation tensor, so large feature maps benefit
/// from the pool while small ones stay on the calling thread (a single
/// chunk never spawns).
pub fn quantize_inplace_par<Q: Quantizer + Sync + ?Sized>(q: &Q, t: &mut Tensor) {
    let before = if qnn_trace::enabled() {
        Some(t.as_slice().to_vec())
    } else {
        None
    };
    qnn_tensor::par::for_each_chunk_mut(t.as_mut_slice(), PAR_CHUNK, |_, chunk| {
        q.quantize_slice(chunk);
    });
    if let Some(before) = before {
        observe_pass(
            &q.describe(),
            &before,
            t.as_slice(),
            q.min_value(),
            q.max_value(),
        );
    }
}

/// Records one tensor pass of quantization telemetry, keyed by format
/// label: the mean absolute snap error into `quant.abs_err/<label>` and
/// the fraction of elements outside the representable range (clipped to
/// the rails) into `quant.sat_rate/<label>`. One histogram sample each per
/// pass — bounded cost regardless of tensor size. Callers gate on
/// [`qnn_trace::enabled`]; the quantized values themselves are computed
/// identically whether or not tracing is on.
fn observe_pass(label: &str, before: &[f32], after: &[f32], lo: f32, hi: f32) {
    debug_assert_eq!(before.len(), after.len());
    if before.is_empty() {
        return;
    }
    let mut abs_err = 0.0f64;
    let mut saturated = 0usize;
    for (&b, &a) in before.iter().zip(after) {
        abs_err += f64::from((a - b).abs());
        if b > hi || b < lo {
            saturated += 1;
        }
    }
    let n = before.len() as f64;
    qnn_trace::observe!(format!("quant.abs_err/{label}"), abs_err / n);
    qnn_trace::observe!(format!("quant.sat_rate/{label}"), saturated as f64 / n);
}

/// The identity quantizer: 32-bit float, i.e. no quantization.
///
/// Serves as the full-precision baseline in every sweep.
///
/// ```
/// use qnn_quant::{IdentityQuantizer, Quantizer};
///
/// let q = IdentityQuantizer;
/// assert_eq!(q.quantize_value(0.1234567), 0.1234567);
/// assert_eq!(q.bits(), 32);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityQuantizer;

impl Quantizer for IdentityQuantizer {
    fn bit_codec(&self) -> Option<crate::codec::BitCodec> {
        Some(crate::codec::BitCodec::Float32)
    }

    fn quantize_value(&self, x: f32) -> f32 {
        x
    }

    fn bits(&self) -> u32 {
        32
    }

    fn describe(&self) -> String {
        "float32".to_string()
    }

    fn max_value(&self) -> f32 {
        f32::MAX
    }

    fn min_value(&self) -> f32 {
        f32::MIN
    }
}

/// The pair of quantizers a network runs under: one for parameters, one for
/// inputs/feature maps.
///
/// The paper (§II) treats inputs and feature maps with the same precision
/// while letting the parameter precision differ — `(w, in)` throughout its
/// tables. This type is the calibrated, concrete realisation of a
/// [`Precision`](crate::Precision) descriptor.
pub struct QuantizerPair {
    /// Quantizer applied to weights and biases.
    pub weights: Box<dyn Quantizer + Send + Sync>,
    /// Quantizer applied to the input image and every feature map.
    pub activations: Box<dyn Quantizer + Send + Sync>,
}

impl QuantizerPair {
    /// A full-precision pair (both sides identity).
    pub fn identity() -> Self {
        QuantizerPair {
            weights: Box::new(IdentityQuantizer),
            activations: Box::new(IdentityQuantizer),
        }
    }
}

impl std::fmt::Debug for QuantizerPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizerPair")
            .field("weights", &self.weights.describe())
            .field("activations", &self.activations.describe())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn_tensor::Shape;

    #[test]
    fn identity_passes_through_tensors() {
        let t = Tensor::from_vec(Shape::d1(3), vec![1.5, -2.25, 0.0]).unwrap();
        assert_eq!(IdentityQuantizer.quantize(&t), t);
    }

    #[test]
    fn pair_debug_shows_formats() {
        let p = QuantizerPair::identity();
        let s = format!("{p:?}");
        assert!(s.contains("float32"));
    }

    #[test]
    fn quantizer_is_object_safe() {
        let q: Box<dyn Quantizer> = Box::new(IdentityQuantizer);
        assert_eq!(q.bits(), 32);
    }

    #[test]
    fn tracing_records_error_and_saturation_without_changing_values() {
        // Serialize against any other test using the global collector.
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());

        // The collector is process-global and the histograms are keyed by
        // format, so this test quantizes a format no other test in the
        // crate uses: a parallel test's samples cannot land in its counts.
        let q = crate::Fixed::new(7, 2).unwrap(); // Q4.2: range [-16, 15.75]
        let t = Tensor::from_vec(Shape::d1(4), vec![0.3, -1.27, 100.0, -0.02]).unwrap();
        let plain = q.quantize(&t);

        qnn_trace::start();
        let traced = q.quantize(&t);
        let mut inplace = t.clone();
        q.quantize_inplace(&mut inplace);
        let mut par = t.clone();
        quantize_inplace_par(&q, &mut par);
        let trace = qnn_trace::stop();

        // Bit-identical outputs with tracing on.
        assert_eq!(traced, plain);
        assert_eq!(inplace, plain);
        assert_eq!(par, plain);

        let label = q.describe();
        let err = &trace.hists[&format!("quant.abs_err/{label}")];
        let sat = &trace.hists[&format!("quant.sat_rate/{label}")];
        // Three passes → one sample each.
        assert_eq!(err.count, 3);
        assert_eq!(sat.count, 3);
        // One of four elements (100.0) saturates.
        assert!((sat.max - 0.25).abs() < 1e-12, "sat.max = {}", sat.max);
        assert!(err.max > 0.0);
    }
}
