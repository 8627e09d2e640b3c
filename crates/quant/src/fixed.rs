use crate::error::FormatError;
use crate::quantizer::Quantizer;

/// Rounding mode used when snapping a value onto the fixed-point grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoundMode {
    /// Round to nearest, ties away from zero (the common DSP default and
    /// what Ristretto's `round()` does).
    #[default]
    NearestAway,
    /// Round to nearest, ties to even (IEEE-754 style; eliminates the tiny
    /// upward bias of ties-away under repeated accumulation).
    NearestEven,
    /// Truncate toward negative infinity (cheapest hardware: drop bits).
    Floor,
}

impl RoundMode {
    /// Discriminant of [`RoundMode::NearestAway`] for const-generic encode
    /// specialization (see [`Fixed::encode_f64_mode`]).
    pub(crate) const AWAY: u8 = RoundMode::NearestAway as u8;
    /// Discriminant of [`RoundMode::NearestEven`].
    pub(crate) const EVEN: u8 = RoundMode::NearestEven as u8;
    /// Discriminant of [`RoundMode::Floor`].
    pub(crate) const FLOOR: u8 = RoundMode::Floor as u8;
}

/// Two's-complement fixed-point format: `word_bits` total bits with
/// `frac_bits` of them after the radix point.
///
/// The quantization step is `2^-frac_bits`; the representable range is
/// `[-2^(word-1), 2^(word-1) - 1] · 2^-frac_bits`, and out-of-range inputs
/// **saturate** (the paper's accelerator clamps rather than wraps —
/// wrap-around in a neural network is catastrophic, saturation is merely
/// lossy).
///
/// `frac_bits` may be negative (radix point right of the LSB, for tensors
/// with large dynamic range) or exceed `word_bits` (all-fractional formats
/// for tensors entirely inside (-1, 1)); both occur in practice when
/// Ristretto-style calibration picks the radix per tensor.
///
/// ```
/// use qnn_quant::{Fixed, Quantizer};
///
/// let q8 = Fixed::new(8, 6)?; // Q1.6: range [-2, 1.984375], step 1/64
/// assert_eq!(q8.quantize_value(0.5), 0.5);
/// assert_eq!(q8.quantize_value(0.009), 0.015625); // snaps to nearest step
/// assert_eq!(q8.quantize_value(3.0), 1.984375);
/// assert_eq!(q8.quantize_value(-3.0), -2.0);
/// # Ok::<(), qnn_quant::FormatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fixed {
    word_bits: u32,
    frac_bits: i32,
    round: RoundMode,
}

impl Fixed {
    /// Supported word widths, inclusive.
    pub const SUPPORTED_WIDTHS: (u32, u32) = (2, 32);

    /// Creates a fixed-point format with the default rounding
    /// ([`RoundMode::NearestAway`]).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidWidth`] if `word_bits` is outside
    /// `2..=32`.
    pub fn new(word_bits: u32, frac_bits: i32) -> Result<Self, FormatError> {
        Self::with_rounding(word_bits, frac_bits, RoundMode::default())
    }

    /// Creates a fixed-point format with an explicit rounding mode.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidWidth`] if `word_bits` is outside
    /// `2..=32`.
    pub fn with_rounding(
        word_bits: u32,
        frac_bits: i32,
        round: RoundMode,
    ) -> Result<Self, FormatError> {
        if word_bits < Self::SUPPORTED_WIDTHS.0 || word_bits > Self::SUPPORTED_WIDTHS.1 {
            return Err(FormatError::InvalidWidth {
                format: "fixed",
                bits: word_bits,
                supported: Self::SUPPORTED_WIDTHS,
            });
        }
        // Keep the step representable in f32 with margin.
        if !(-96..=96).contains(&frac_bits) {
            return Err(FormatError::InvalidParameter {
                format: "fixed",
                reason: format!("frac_bits {frac_bits} outside supported -96..=96"),
            });
        }
        Ok(Fixed {
            word_bits,
            frac_bits,
            round,
        })
    }

    /// Total word width in bits.
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// Fractional bits (radix-point position).
    pub fn frac_bits(&self) -> i32 {
        self.frac_bits
    }

    /// The rounding mode.
    pub fn round_mode(&self) -> RoundMode {
        self.round
    }

    /// Quantization step `2^-frac_bits`.
    pub fn step(&self) -> f32 {
        (self.frac_bits as f32).exp2().recip()
    }

    /// Largest representable raw integer, `2^(word-1) - 1`.
    fn raw_max(&self) -> i64 {
        (1i64 << (self.word_bits - 1)) - 1
    }

    /// Smallest representable raw integer, `-2^(word-1)`.
    fn raw_min(&self) -> i64 {
        -(1i64 << (self.word_bits - 1))
    }

    /// `2^frac_bits` as f64 — the scale both [`encode`](Self::encode) and
    /// [`decode`](Self::decode) apply. Exposed so batch loops (the packers)
    /// can hoist the `exp2` libm call out of their per-element loop.
    #[inline(always)]
    pub(crate) fn scale_f64(&self) -> f64 {
        (self.frac_bits as f64).exp2()
    }

    /// The saturated raw code as an *integral f64* — the encode kernel that
    /// [`encode_with_scale`](Self::encode_with_scale) (and through it every
    /// codec path) narrows to i64. The packers consume the f64 form
    /// directly: AVX2 has no vectorized f64→i64 convert, so staying in f64
    /// lets their hot loop vectorize, while `as i64` on the same value is
    /// exact (the result is integral and within ±2^31).
    #[inline(always)]
    pub(crate) fn encode_f64_with_scale(&self, x: f32, scale: f64) -> f64 {
        match self.round {
            RoundMode::NearestAway => self.encode_f64_mode::<{ RoundMode::AWAY }>(x, scale),
            RoundMode::NearestEven => self.encode_f64_mode::<{ RoundMode::EVEN }>(x, scale),
            RoundMode::Floor => self.encode_f64_mode::<{ RoundMode::FLOOR }>(x, scale),
        }
    }

    /// The encode kernel with the rounding mode lifted to a compile-time
    /// constant (one of [`RoundMode::AWAY`]/[`RoundMode::EVEN`]/
    /// [`RoundMode::FLOOR`], which must match `self.round`). Batch loops
    /// monomorphize over `M` so their bodies contain no switch — a switch
    /// in the loop is the one shape the auto-vectorizer refuses outright.
    #[inline(always)]
    pub(crate) fn encode_f64_mode<const M: u8>(&self, x: f32, scale: f64) -> f64 {
        debug_assert_eq!(M, self.round as u8, "const mode must mirror self.round");
        let scaled = x as f64 * scale;
        let rounded = match M {
            RoundMode::AWAY => scaled.round(),
            RoundMode::EVEN => round_ties_even(scaled),
            _ => scaled.floor(),
        };
        if rounded.is_nan() {
            return 0.0;
        }
        // Clamping in f64 equals converting to i64 and clamping there:
        // `rounded` is integral or ±∞, and both rails are exact in f64.
        // `max().min()` rather than `clamp()`: for the non-NaN values that
        // reach it they agree, but `clamp` carries a `min <= max` assert
        // whose potential panic keeps the packers' loops from vectorizing.
        // Adding +0.0 collapses a `-0.0` result to `+0.0`, matching the
        // sign-less integer zero the i64 form produces (so a `-0.0` input
        // still fails the packers' round-trip check).
        rounded
            .max(self.raw_min() as f64)
            .min(self.raw_max() as f64)
            + 0.0
    }

    /// [`encode`](Self::encode) with the `2^frac_bits` scale precomputed by
    /// [`scale_f64`](Self::scale_f64); bit-identical to `encode`.
    #[inline(always)]
    pub(crate) fn encode_with_scale(&self, x: f32, scale: f64) -> i64 {
        self.encode_f64_with_scale(x, scale) as i64
    }

    /// [`decode`](Self::decode) with the scale precomputed (and the range
    /// assertion skipped — callers pass raws they just encoded).
    #[inline(always)]
    pub(crate) fn decode_with_scale(&self, raw: i64, scale: f64) -> f32 {
        self.decode_f64_with_scale(raw as f64, scale)
    }

    /// [`decode_with_scale`](Self::decode_with_scale) on the integral-f64
    /// raw form produced by
    /// [`encode_f64_with_scale`](Self::encode_f64_with_scale).
    #[inline(always)]
    pub(crate) fn decode_f64_with_scale(&self, raw: f64, scale: f64) -> f32 {
        // `scale` is an exact power of two well inside f64's normal range,
        // so its reciprocal is exact and multiplying by it is bit-identical
        // to dividing by it (both yield the exact product `raw · 2^-frac`,
        // since a 32-bit raw times a power of two never rounds in f64) —
        // but the multiply pipelines where `vdivpd` stalls, and the
        // reciprocal hoists out of the packers' per-element loops.
        (raw * scale.recip()) as f32
    }

    /// Encodes a value into its raw two's-complement integer, saturating.
    ///
    /// `decode(encode(x))` equals `quantize_value(x)` exactly.
    pub fn encode(&self, x: f32) -> i64 {
        self.encode_with_scale(x, self.scale_f64())
    }

    /// Encodes with *stochastic rounding* (Gupta et al., "Deep Learning
    /// with Limited Numerical Precision" — the paper's reference \[8\]):
    /// rounds up with probability equal to the fractional residue, so the
    /// quantization error is zero in expectation. Used as a training-time
    /// alternative to shadow weights; exposed for the rounding ablation.
    ///
    /// `u` must be a uniform sample in `[0, 1)` (passing the randomness in
    /// keeps this method deterministic for testing).
    pub fn encode_stochastic(&self, x: f32, u: f32) -> i64 {
        debug_assert!((0.0..1.0).contains(&u), "u must be uniform in [0,1)");
        let scaled = x as f64 * (self.frac_bits as f64).exp2();
        if scaled.is_nan() {
            return 0;
        }
        let floor = scaled.floor();
        let frac = scaled - floor;
        let rounded = if (u as f64) < frac {
            floor + 1.0
        } else {
            floor
        };
        (rounded as i64).clamp(self.raw_min(), self.raw_max())
    }

    /// Stochastically-rounded quantization (see
    /// [`encode_stochastic`](Fixed::encode_stochastic)).
    pub fn quantize_value_stochastic(&self, x: f32, u: f32) -> f32 {
        self.decode(self.encode_stochastic(x, u))
    }

    /// The slice-snap kernel with the rounding mode monomorphized (see
    /// [`encode_f64_mode`](Self::encode_f64_mode) for why the switch must
    /// leave the loop body). Stays on the integral-f64 raw form the whole
    /// way: `encode` narrows it through i64, which is the identity on
    /// these values (integral, within ±2^31), so skipping the round-trip
    /// is bit-identical to `decode(encode(x))` per element.
    #[inline(always)]
    fn quantize_slice_mode<const M: u8>(&self, data: &mut [f32], scale: f64, inv: f64) {
        for v in data {
            *v = (self.encode_f64_mode::<M>(*v, scale) * inv) as f32;
        }
    }

    /// The slice snap's body: hoists the scale and its reciprocal (both
    /// exact, see [`decode_f64_with_scale`](Self::decode_f64_with_scale))
    /// and lifts the rounding mode out of the loop. Compiled twice — the
    /// plain build here and [`snap_avx2`](Self::snap_avx2) — and
    /// [`Quantizer::quantize_slice`] picks one at runtime.
    #[inline(always)]
    fn snap_plain(&self, data: &mut [f32]) {
        let scale = self.scale_f64();
        let inv = scale.recip();
        match self.round {
            RoundMode::NearestAway => {
                self.quantize_slice_mode::<{ RoundMode::AWAY }>(data, scale, inv)
            }
            RoundMode::NearestEven => {
                self.quantize_slice_mode::<{ RoundMode::EVEN }>(data, scale, inv)
            }
            RoundMode::Floor => self.quantize_slice_mode::<{ RoundMode::FLOOR }>(data, scale, inv),
        }
    }

    /// [`snap_plain`](Self::snap_plain) compiled for AVX2. At rustc's SSE2
    /// baseline `f64::round` and `f64::floor` are libm calls per element;
    /// AVX2 implies SSE4.1, under which LLVM lowers `floor` to `vroundpd`
    /// and `round` to `vroundpd` (truncate) on `x + copysign(0.49999999999999994, x)`
    /// — exact round-half-away for every f64, so the loop vectorizes and
    /// every result keeps its bits. Only `avx2` is enabled, never `fma`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 ([`qnn_tensor::has_avx2`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn snap_avx2(&self, data: &mut [f32]) {
        self.snap_plain(data)
    }

    /// The slice snap in f32 at 16 lanes. Returns how many 16-lane blocks
    /// took the f32 path; the rest of `data` ran
    /// [`snap_plain`](Self::snap_plain)'s f64 body, compiled here.
    ///
    /// Per block: `y = x·2^f`; `r = round(y)` (`vrndscaleps` for
    /// nearest-even and floor, and for half-away `trunc(y) ± 1` where
    /// `|y − trunc(y)| ≥ 0.5`); clamp to `[−2^(b−1), hi]`; `+0.0` folds
    /// `−0`; `×2^−f`. With `|f| ≤ 60` and every nonzero `|x|` in
    /// `[2^−60, 2^60]`, every step is exact: `y` is a normal f32, `y −
    /// trunc(y)` is exact, and a nonzero fraction means `|y| < 2^23`, so
    /// `trunc(y) ± 1` is too. The high rail `hi` is `2^(b−1) − 1` up to 25
    /// bits. Past that it is not an f32, and the f64 body's final narrowing
    /// rounds `(2^(b−1) − 1)·2^−f` to `2^(b−1−f)` anyway, so `hi` is
    /// `2^(b−1)`. A block holding NaN, ±∞ or a nonzero `|x|` outside the
    /// window, the tail shorter than 16, and every format with
    /// `|frac_bits| > 60` run the f64 body.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F ([`qnn_tensor::has_avx512f`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn snap_avx512(&self, data: &mut [f32]) -> usize {
        if self.frac_bits.abs() > F32_SNAP_WINDOW {
            self.snap_plain(data);
            return 0;
        }
        match self.round {
            RoundMode::NearestAway => self.snap16::<{ RoundMode::AWAY }>(data),
            RoundMode::NearestEven => self.snap16::<{ RoundMode::EVEN }>(data),
            RoundMode::Floor => self.snap16::<{ RoundMode::FLOOR }>(data),
        }
    }

    /// The body of [`snap_avx512`](Self::snap_avx512) for rounding mode
    /// `M` and `|frac_bits| ≤ 60`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn snap16<const M: u8>(&self, data: &mut [f32]) -> usize {
        use std::arch::x86_64::*;
        let scale = self.scale_f64();
        let inv = scale.recip();
        let up = _mm512_set1_ps(scale as f32);
        let down = _mm512_set1_ps(inv as f32);
        let lo = _mm512_set1_ps(self.raw_min() as f32);
        let hi = _mm512_set1_ps(if self.word_bits <= 25 {
            self.raw_max() as f32
        } else {
            -(self.raw_min() as f32)
        });
        let magnitude = _mm512_set1_epi32(0x7fff_ffff);
        // 2^−60 and 2^60 as f32 bit patterns.
        let (floor, ceil) = (
            _mm512_set1_epi32((127 - F32_SNAP_WINDOW) << 23),
            _mm512_set1_epi32((127 + F32_SNAP_WINDOW) << 23),
        );
        let half = _mm512_set1_ps(0.5);
        let sign = _mm512_set1_epi32(i32::MIN);
        let one = _mm512_castps_si512(_mm512_set1_ps(1.0));
        let mut blocks = data.chunks_exact_mut(16);
        let mut fast = 0;
        for block in &mut blocks {
            let x = _mm512_loadu_ps(block.as_ptr());
            let mag = _mm512_and_si512(_mm512_castps_si512(x), magnitude);
            // Zero, or a magnitude inside the window; NaN, ±∞ and
            // subnormals all lie outside it.
            let inside = (_mm512_cmpge_epu32_mask(mag, floor) & _mm512_cmple_epu32_mask(mag, ceil))
                | _mm512_cmpeq_epi32_mask(mag, _mm512_setzero_si512());
            if inside != 0xffff {
                self.quantize_slice_mode::<M>(block, scale, inv);
                continue;
            }
            let y = _mm512_mul_ps(x, up);
            let r = match M {
                RoundMode::EVEN => {
                    _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(y)
                }
                RoundMode::FLOOR => {
                    _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(y)
                }
                _ => {
                    let t = _mm512_roundscale_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(y);
                    let frac = _mm512_abs_ps(_mm512_sub_ps(y, t));
                    let away = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(frac, half);
                    // ±1 with the sign of `y`.
                    let unit = _mm512_or_si512(_mm512_and_si512(_mm512_castps_si512(y), sign), one);
                    _mm512_mask_add_ps(t, away, t, _mm512_castsi512_ps(unit))
                }
            };
            let r = _mm512_add_ps(_mm512_min_ps(_mm512_max_ps(r, lo), hi), _mm512_setzero_ps());
            _mm512_storeu_ps(block.as_mut_ptr(), _mm512_mul_ps(r, down));
            fast += 1;
        }
        self.quantize_slice_mode::<M>(blocks.into_remainder(), scale, inv);
        fast
    }

    /// The name of the build [`Quantizer::quantize_slice`] snaps with on
    /// this CPU: `"avx512"` (f32 at 16 lanes), `"avx2"` (f64 at 4) or
    /// `"plain"`.
    pub fn snap_build() -> &'static str {
        if qnn_tensor::has_avx512f() {
            "avx512"
        } else if qnn_tensor::has_avx2() {
            "avx2"
        } else {
            "plain"
        }
    }

    /// Decodes a raw two's-complement integer back into the represented
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is outside the word's representable range — a raw
    /// code that the hardware could never hold indicates a caller bug.
    pub fn decode(&self, raw: i64) -> f32 {
        assert!(
            raw >= self.raw_min() && raw <= self.raw_max(),
            "raw code {raw} out of range for {}-bit word",
            self.word_bits
        );
        self.decode_with_scale(raw, self.scale_f64())
    }
}

/// The f32 snap's window: formats with `|frac_bits|` at most this, and
/// nonzero magnitudes within `[2^−60, 2^60]`, keep every step exact.
const F32_SNAP_WINDOW: i32 = 60;

/// f64 round-half-to-even (stabilized; `f64::round` is half-away).
fn round_ties_even(x: f64) -> f64 {
    let r = x.round();
    if (x - x.trunc()).abs() == 0.5 {
        // Tie: pick the even neighbour.
        if r % 2.0 == 0.0 {
            r
        } else {
            r - (r - x).signum()
        }
    } else {
        r
    }
}

impl Quantizer for Fixed {
    fn bit_codec(&self) -> Option<crate::codec::BitCodec> {
        Some(crate::codec::BitCodec::Fixed(*self))
    }

    fn quantize_value(&self, x: f32) -> f32 {
        self.decode(self.encode(x))
    }

    fn quantize_slice(&self, data: &mut [f32]) {
        // The per-value path pays two `exp2` libm calls per element (one
        // inside `encode`, one inside `decode`); the slice body hoists them
        // and is branch-free, its AVX2 build also drops the per-element
        // `round`/`floor` call, and its AVX-512 build stays in f32 at 16
        // lanes. Every build is bit-identical to the default
        // (`snap_builds_agree_bitwise` and `snap_avx512_matches_quantize_value`
        // pin this).
        #[cfg(target_arch = "x86_64")]
        if qnn_tensor::has_avx512f() {
            // SAFETY: `has_avx512f` verified AVX-512F on this CPU, the only
            // precondition of the target_feature build.
            unsafe { self.snap_avx512(data) };
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if qnn_tensor::has_avx2() {
            // SAFETY: `has_avx2` verified AVX2 on this CPU, the only
            // precondition of the target_feature build.
            return unsafe { self.snap_avx2(data) };
        }
        self.snap_plain(data)
    }

    fn bits(&self) -> u32 {
        self.word_bits
    }

    fn describe(&self) -> String {
        let int_bits = self.word_bits as i32 - 1 - self.frac_bits;
        format!("Q{int_bits}.{}", self.frac_bits)
    }

    fn max_value(&self) -> f32 {
        self.decode(self.raw_max())
    }

    fn min_value(&self) -> f32 {
        self.decode(self.raw_min())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q4_4_grid() {
        let q = Fixed::new(8, 4).unwrap();
        assert_eq!(q.step(), 1.0 / 16.0);
        assert_eq!(q.max_value(), 127.0 / 16.0);
        assert_eq!(q.min_value(), -8.0);
        assert_eq!(q.quantize_value(1.0), 1.0);
        assert_eq!(q.quantize_value(1.04), 1.0625);
        assert_eq!(q.quantize_value(-0.49), -0.5);
    }

    #[test]
    fn saturation_not_wraparound() {
        let q = Fixed::new(4, 0).unwrap(); // integers -8..=7
        assert_eq!(q.quantize_value(100.0), 7.0);
        assert_eq!(q.quantize_value(-100.0), -8.0);
        assert_eq!(q.quantize_value(7.4), 7.0);
    }

    #[test]
    fn negative_frac_bits_coarse_grid() {
        let q = Fixed::new(8, -2).unwrap(); // step 4
        assert_eq!(q.step(), 4.0);
        assert_eq!(q.quantize_value(5.0), 4.0);
        assert_eq!(q.quantize_value(6.1), 8.0);
        assert_eq!(q.max_value(), 127.0 * 4.0);
    }

    #[test]
    fn frac_exceeding_word_all_fractional() {
        let q = Fixed::new(4, 6).unwrap(); // range ±(2^-3..2^-6 grid)
        assert_eq!(q.max_value(), 7.0 / 64.0);
        assert_eq!(q.quantize_value(0.05), 3.0 / 64.0);
    }

    #[test]
    fn encode_decode_round_trip_equals_quantize() {
        let q = Fixed::new(8, 5).unwrap();
        for &x in &[0.0f32, 0.37, -1.92, 3.999, -4.0, 17.0, -17.0, 1e-9] {
            assert_eq!(q.decode(q.encode(x)), q.quantize_value(x), "x={x}");
        }
    }

    #[test]
    fn rounding_modes_differ_on_ties() {
        let away = Fixed::with_rounding(8, 1, RoundMode::NearestAway).unwrap();
        let even = Fixed::with_rounding(8, 1, RoundMode::NearestEven).unwrap();
        let floor = Fixed::with_rounding(8, 1, RoundMode::Floor).unwrap();
        // 0.25 scaled by 2 = 0.5: tie.
        assert_eq!(away.quantize_value(0.25), 0.5);
        assert_eq!(even.quantize_value(0.25), 0.0);
        assert_eq!(floor.quantize_value(0.25), 0.0);
        assert_eq!(floor.quantize_value(-0.25), -0.5);
    }

    #[test]
    fn thirty_two_bit_word_is_supported() {
        let q = Fixed::new(32, 16).unwrap();
        assert_eq!(q.quantize_value(1.5), 1.5);
        assert!(q.max_value() > 32_000.0);
    }

    #[test]
    fn rejects_bad_widths() {
        assert!(Fixed::new(1, 0).is_err());
        assert!(Fixed::new(33, 0).is_err());
        assert!(Fixed::new(0, 0).is_err());
    }

    #[test]
    fn nan_maps_to_zero() {
        let q = Fixed::new(8, 4).unwrap();
        assert_eq!(q.quantize_value(f32::NAN), 0.0);
    }

    #[test]
    fn infinities_saturate() {
        let q = Fixed::new(8, 4).unwrap();
        assert_eq!(q.quantize_value(f32::INFINITY), q.max_value());
        assert_eq!(q.quantize_value(f32::NEG_INFINITY), q.min_value());
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        // Quantize 0.3 on a step-1 grid many times with a stratified
        // uniform stream: the mean must approach 0.3, which deterministic
        // rounding (→ 0.0) never does.
        let q = Fixed::new(8, 0).unwrap();
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|i| q.quantize_value_stochastic(0.3, (i as f32 + 0.5) / n as f32) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.3).abs() < 0.01, "mean {mean}");
        assert_eq!(q.quantize_value(0.3), 0.0);
    }

    #[test]
    fn stochastic_rounding_saturates_and_handles_grid_points() {
        let q = Fixed::new(4, 0).unwrap();
        assert_eq!(q.quantize_value_stochastic(100.0, 0.5), 7.0);
        assert_eq!(q.quantize_value_stochastic(-100.0, 0.5), -8.0);
        // Exact grid points never move regardless of u.
        for u in [0.0, 0.5, 0.999] {
            assert_eq!(q.quantize_value_stochastic(3.0, u), 3.0);
        }
    }

    /// Operands for one snap case: grid points, exact ties, values beyond
    /// both rails, and the specials every build must map alike.
    fn snap_operands(r: &mut qnn_tensor::rng::Rng, q: &Fixed, len: usize) -> Vec<f32> {
        let step = (-q.frac_bits() as f64).exp2();
        let raw = |r: &mut qnn_tensor::rng::Rng| r.gen_range(q.raw_min()..=q.raw_max()) as f64;
        (0..len)
            .map(|_| match r.gen_range(0u32..12) {
                0 | 1 => (raw(r) * step) as f32,
                2 | 3 => ((raw(r) + 0.5) * step) as f32,
                4 => (q.max_value() as f64 * (1.0 + r.next_f64() * 3.0)) as f32,
                5 => (q.min_value() as f64 * (1.0 + r.next_f64() * 3.0)) as f32,
                6 => {
                    let sign = if r.gen_bool(0.5) { 0x8000_0000 } else { 0 };
                    f32::from_bits(sign | r.gen_range(1u32..0x0080_0000))
                }
                7 => f32::from_bits(r.next_u32()),
                8 => (step * (r.next_f64() - 0.5)) as f32,
                _ => [
                    0.0,
                    -0.0,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    f32::NAN,
                    -f32::NAN,
                    f32::MAX,
                    f32::MIN,
                    f32::MIN_POSITIVE,
                    -f32::MIN_POSITIVE,
                ][r.gen_range(0usize..10)],
            })
            .collect()
    }

    #[test]
    fn snap_builds_agree_bitwise() {
        const CASES: usize = 288;
        let mut r = qnn_tensor::rng::seeded(0x5A4F_0F16);
        let modes = [
            RoundMode::NearestAway,
            RoundMode::NearestEven,
            RoundMode::Floor,
        ];
        let mut seen_neg_zero_in = 0usize;
        for case in 0..CASES {
            let word = 2 + (case as u32 % 31);
            let frac = match case % 7 {
                0 => -96,
                1 => 96,
                _ => r.gen_range(-96i32..=96),
            };
            let q = Fixed::with_rounding(word, frac, modes[case % 3]).unwrap();
            let len = if case == 0 {
                4099
            } else {
                r.gen_range(0usize..68)
            };
            let input = snap_operands(&mut r, &q, len);
            seen_neg_zero_in += input.iter().filter(|v| v.to_bits() == 0x8000_0000).count();
            let want: Vec<u32> = input
                .iter()
                .map(|&x| q.quantize_value(x).to_bits())
                .collect();
            let mut builds = vec![("plain", input.clone())];
            q.snap_plain(&mut builds[0].1);
            #[cfg(target_arch = "x86_64")]
            if qnn_tensor::has_avx2() {
                let mut out = input.clone();
                // SAFETY: `has_avx2` verified AVX2 on this CPU.
                unsafe { q.snap_avx2(&mut out) };
                builds.push(("avx2", out));
            }
            let mut dispatched = input.clone();
            q.quantize_slice(&mut dispatched);
            builds.push(("quantize_slice", dispatched));
            for (build, got) in &builds {
                for (i, (g, &w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w,
                        "case {case} {build} {q:?} at {i}: input {:e} got {g:e}, want {:e}",
                        input[i],
                        f32::from_bits(w)
                    );
                }
            }
        }
        assert!(seen_neg_zero_in > 0, "-0.0 must be among the operands");
    }

    /// Operands for the f32 snap's fast path under `q`: on-grid values,
    /// half-steps and their ±1 ulp neighbours, both rails ×(1–4), the
    /// `2^(b−1)−1` step and its neighbours, ±0 and random magnitudes, each
    /// pulled into the window `[2^−60, 2^60]` when it falls outside.
    fn window_operands(r: &mut qnn_tensor::rng::Rng, q: &Fixed, len: usize) -> Vec<f32> {
        let step = (-q.frac_bits() as f64).exp2();
        let raw = |r: &mut qnn_tensor::rng::Rng| r.gen_range(q.raw_min()..=q.raw_max()) as f64;
        let (lo, hi) = ((-60f32).exp2(), 60f32.exp2());
        (0..len)
            .map(|_| {
                let x = match r.gen_range(0u32..10) {
                    0 | 1 => (raw(r) * step) as f32,
                    2 => ((raw(r) + 0.5) * step) as f32,
                    3 => (((raw(r) + 0.5) * step) as f32).next_up(),
                    4 => (((raw(r) + 0.5) * step) as f32).next_down(),
                    5 => (q.max_value() as f64 * (1.0 + r.next_f64() * 3.0)) as f32,
                    6 => (q.min_value() as f64 * (1.0 + r.next_f64() * 3.0)) as f32,
                    7 => {
                        let top = (q.raw_max() as f64 * step) as f32;
                        [top, top.next_up(), top.next_down()][r.gen_range(0usize..3)]
                    }
                    8 => [0.0, -0.0][r.gen_range(0usize..2)],
                    _ => {
                        let mag = (r.next_f64() + 1.0) * (r.gen_range(-61i32..61) as f64).exp2();
                        (if r.gen_bool(0.5) { -mag } else { mag }) as f32
                    }
                };
                if x == 0.0 {
                    x
                } else {
                    x.signum() * x.abs().clamp(lo, hi)
                }
            })
            .collect()
    }

    /// The AVX-512 snap called directly, not through dispatch (whose test
    /// operands mostly leave the fast window): every width 2–32, `frac`
    /// −60..=60 and all three modes over blocks kept inside `[2^−60,
    /// 2^60]`, each value against `quantize_value`, with every block on the
    /// f32 path; then blocks with one NaN, ±∞, subnormal or `2^61` lane and
    /// formats at `frac` ±96, which must all run the f64 body and agree
    /// too. Skips, saying why, on a CPU without AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn snap_avx512_matches_quantize_value() {
        if !qnn_tensor::has_avx512f() {
            println!(
                "skipped: no AVX-512F here (snap_build() = {})",
                Fixed::snap_build()
            );
            return;
        }
        assert_eq!(Fixed::snap_build(), "avx512");
        let modes = [
            RoundMode::NearestAway,
            RoundMode::NearestEven,
            RoundMode::Floor,
        ];
        let check = |q: &Fixed, input: &[f32]| -> usize {
            let mut out = input.to_vec();
            // SAFETY: `has_avx512f` verified AVX-512F on this CPU.
            let fast = unsafe { q.snap_avx512(&mut out) };
            for (i, (g, &x)) in out.iter().zip(input).enumerate() {
                let w = q.quantize_value(x);
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{q:?} at {i}: input {x:e} got {g:e}, want {w:e}"
                );
            }
            fast
        };
        let mut r = qnn_tensor::rng::seeded(0x5A4F_16F3);
        let mut values = 0;
        for word in 2..=32u32 {
            for frac in -60..=60 {
                for mode in modes {
                    let q = Fixed::with_rounding(word, frac, mode).unwrap();
                    let input = window_operands(&mut r, &q, 256);
                    assert_eq!(check(&q, &input), 16, "{q:?}: every block must run in f32");
                    values += input.len();
                }
            }
        }
        assert_eq!(values, 31 * 121 * 3 * 256);
        // One lane outside the window sends its block to the f64 body.
        let outside = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x0000_0321),
            -f32::MIN_POSITIVE / 4.0,
            61f32.exp2(),
            -(61f32.exp2()),
        ];
        for (case, &bad) in outside.iter().cycle().take(7 * 31).enumerate() {
            let q =
                Fixed::with_rounding(2 + case as u32 % 31, r.gen_range(-60..=60), modes[case % 3])
                    .unwrap();
            let mut input = window_operands(&mut r, &q, 16);
            input[r.gen_range(0usize..16)] = bad;
            assert_eq!(check(&q, &input), 0, "{q:?}: a block holding {bad:e}");
        }
        // So does every format past |frac_bits| 60.
        for (case, frac) in [-96, 96, -61, 61].into_iter().cycle().take(24).enumerate() {
            let q = Fixed::with_rounding(2 + case as u32 % 31, frac, modes[case % 3]).unwrap();
            let input = window_operands(&mut r, &q, 48);
            assert_eq!(check(&q, &input), 0, "{q:?}");
        }
    }

    #[test]
    fn describe_shows_q_format() {
        assert_eq!(Fixed::new(8, 4).unwrap().describe(), "Q3.4");
        assert_eq!(Fixed::new(16, 12).unwrap().describe(), "Q3.12");
    }
}
