//! Native low-precision fast-path dispatch for inference.
//!
//! When a layer's inputs are quantized to fixed-point and its weights to a
//! format that packs as i16 raws scaled by a power of two (fixed-point of
//! at most 16 bits, binary with a power-of-two scale, or power-of-two with
//! an exponent span of at most 14), the Eval-mode forward pass can skip the
//! simulated f32 GEMM and run the one integer kernel in
//! `qnn_tensor::qgemm` instead: a register-blocked i16 `vpmaddwd`
//! microkernel over the weights' cached packed-B panel, with the
//! requantize, bias and next-layer quantize fused into its tail. The
//! committed `BENCH_kernels.json` (256³, 1 thread) times it at 2.02×
//! (fixed8), 2.25× (fixed16), 1.80× (binary ±1 weights × fixed16) and
//! 2.37× (pow2) the f32 GEMM, measured against that GEMM's vectorized
//! AVX2 build.
//!
//! **The fast path never changes results.** Dispatch goes through
//! [`qnn_quant::packed::matmul_on_grid`], which is gated on the exactness
//! certificate: the kernel runs only when every product and partial sum is
//! exactly representable in both the integer accumulator and f32, in which
//! case the simulated path's f32 arithmetic is itself exact and the two
//! agree bit for bit. Anything else — off-grid values, formats that do not
//! pack (wider than 16 bits, non-power-of-two binary scales, wide pow2
//! spans), non-fixed activations, certificate overflow — falls back to the
//! simulated GEMM. The trace counters `nn.fwd.flops.native` /
//! `nn.fwd.flops.simulated` record which path each layer's MACs took.
//!
//! The toggle: set `QNN_NATIVE=0` (or `off`/`false`) to disable dispatch
//! globally, or call [`set_native`] at runtime (used by the equivalence
//! tests to compare both paths in-process).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use qnn_quant::packed::PackedWeights;
use qnn_quant::Quantizer;

/// Trace counter: forward MAC flops executed by native integer kernels.
pub(crate) const CTR_FLOPS_NATIVE: &str = "nn.fwd.flops.native";
/// Trace counter: forward MAC flops executed by the simulated f32 path.
pub(crate) const CTR_FLOPS_SIMULATED: &str = "nn.fwd.flops.simulated";

/// Runtime override: 0 = none (env/default), 1 = force on, 2 = force off.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn env_default() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        !matches!(
            std::env::var("QNN_NATIVE").as_deref().map(str::trim),
            Ok("0") | Ok("off") | Ok("false")
        )
    })
}

/// Overrides native dispatch at runtime: `Some(true)` forces it on,
/// `Some(false)` forces it off, `None` restores the `QNN_NATIVE`
/// environment default (enabled unless set to `0`/`off`/`false`).
pub fn set_native(on: Option<bool>) {
    let v = match on {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// Whether layers may dispatch to the native quantized kernels.
pub fn native_enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => env_default(),
    }
}

/// Cached packed weights for one layer, packed from the layer's frozen
/// quantized weights (`frozen_qw`) and kept while the layer reuses them.
/// The layer clears the cache whenever it quantizes its weights again,
/// and it does so after every change to them: `params_mut` (an SGD step,
/// a state load, an injected weight fault) and `set_weight_quantizer` drop
/// the frozen copy. `plan == None` caches "known unpackable" so hopeless
/// formats don't re-run the packer every batch.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    plan: Option<PackedWeights>,
    populated: bool,
}

impl PlanCache {
    /// Drops any cached plan: the layer's quantized weights are new.
    pub(crate) fn clear(&mut self) {
        self.plan = None;
        self.populated = false;
    }

    /// The plan for quantized weights `qw` (`rows×cols` row-major) under
    /// quantizer `q`, packed on the first call after a [`clear`]
    /// (`PlanCache::clear`) and reused until the next.
    pub(crate) fn plan_for(
        &mut self,
        q: &dyn Quantizer,
        rows: usize,
        cols: usize,
        qw: &[f32],
    ) -> Option<&PackedWeights> {
        if !self.populated {
            self.plan = q
                .bit_codec()
                .and_then(|codec| PackedWeights::pack(&codec, rows, cols, qw));
            self.populated = true;
        }
        self.plan.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn_quant::Fixed;
    use std::sync::Arc;

    #[test]
    fn toggle_round_trips() {
        set_native(Some(false));
        assert!(!native_enabled());
        set_native(Some(true));
        assert!(native_enabled());
        set_native(None);
    }

    #[test]
    fn plan_cache_repacks_only_after_clear() {
        let f = Fixed::new(8, 4).unwrap();
        let q: Arc<dyn Quantizer + Send + Sync> = Arc::new(f);
        let mut cache = PlanCache::default();
        let w = [0.5f32, -0.25, 1.0, 0.0];
        assert!(cache.plan_for(q.as_ref(), 2, 2, &w).is_some());
        // No clear → the cached plan stands, whatever is passed.
        let bad = [0.5f32, -0.25, 1.0, 0.1];
        assert!(cache.plan_for(q.as_ref(), 2, 2, &bad).is_some());
        // Cleared → repack; an off-grid value → no plan, and that
        // answer is cached too.
        cache.clear();
        assert!(cache.plan_for(q.as_ref(), 2, 2, &bad).is_none());
        assert!(cache.plan_for(q.as_ref(), 2, 2, &w).is_none());
        // And recovers when the weights return to the grid.
        cache.clear();
        assert!(cache.plan_for(q.as_ref(), 2, 2, &w).is_some());
    }
}
