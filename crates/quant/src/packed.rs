//! Packed integer representations and the exactness certificate behind the
//! native low-precision fast path.
//!
//! The simulated path (`Quantizer::quantize` + f32 GEMM) is the semantic
//! reference for every artifact in this repo, so the native kernel in
//! `qnn_tensor::qgemm` may only be used when it provably produces the
//! **same f32 bits**. This module supplies the three pieces that make that
//! a theorem rather than a hope:
//!
//! 1. **Packers** that re-encode quantized f32 tensors into i16 raws
//!    *through [`BitCodec`]* — the same encode/decode the fault injectors
//!    use — and verify round-trip bit-identity per element. A value that is
//!    not exactly on the format grid (or a format too wide to pack) makes
//!    the packer return `None`, and the caller falls back to the simulated
//!    path. No drift between fault encoding and kernel encoding is possible
//!    because there is only one encoding.
//! 2. **The certificate** [`dot_exact`]: native dispatch fires only when
//!    every product and partial sum of the dot is exactly representable in
//!    both the integer accumulator and f32. Then the sequential f32 dot the
//!    simulated path computes *is* the integer dot times the scale, bit for
//!    bit — see the function docs for the argument.
//! 3. **The fused requantize** that converts the integer accumulators back
//!    to f32 exactly (a single multiply by a power of two per element) and
//!    then applies the layer's [`Epilogue`].
//!
//! There is one native representation. Every packable weight tensor —
//! fixed-point, binary with a power-of-two scale, or power-of-two with a
//! narrow exponent span — is i16 raws scaled by a power of two
//! ([`PackedWeights`]); the activations must be fixed-point; and every
//! certified product runs the register-blocked i16 microkernel, or its
//! tile build for narrow convs (below). It reaches that kernel in two
//! orientations. A matrix product ([`matmul_on_grid_fused`], the dense
//! layer) puts the activation raws on the kernel's row side, row-major with
//! `k` contiguous, against the weights' packed-B panel. A convolution
//! ([`conv_on_grid`]) puts the weights' raws on the row side instead and
//! writes each image's patches straight into a panel, so every output
//! channel's row lands in place. On CPUs with AMX-INT8, a convolution whose
//! activations are fixed-point of 8 bits or fewer and whose weight raws fit
//! i8 runs the same orientation on tiles (`qgemm::conv_tiles_emit`), with
//! the same integer sums.

use crate::{Binary, BitCodec, Fixed, PowerOfTwo, Quantizer, RoundMode};
use qnn_tensor::conv::Geometry;
use qnn_tensor::qgemm;
use std::sync::OnceLock;

/// Trace counter: requantize (integer accumulator → f32) passes.
const CTR_REQUANT: &str = "quant.requantize.calls";

/// Widest used exponent span a power-of-two weight tensor may have and
/// still pack: its largest raw, `2^14`, must fit an i16 word. Wider spans
/// take the simulated path.
const POW2_MAX_SPAN: i32 = 14;

/// The exponent `e` such that `s == 2^e` exactly, if `s` is a positive
/// normal power of two. Binary scales that are not powers of two (e.g. the
/// calibrated mean-|w| scale) make the fast path inexact, so they return
/// `None` and the caller falls back.
pub fn pow2_scale_exp(s: f32) -> Option<i32> {
    let bits = s.to_bits();
    let exp = (bits >> 23) & 0xff;
    let mantissa = bits & 0x7f_ffff;
    if s > 0.0 && mantissa == 0 && exp != 0 && exp != 0xff {
        Some(exp as i32 - 127)
    } else {
        None
    }
}

/// The exactness certificate: may a dot product of length `k` between
/// integer raws bounded by `max_a_raw`/`max_w_raw`, whose value is
/// `S · 2^lsb_exp`, run natively and still match the simulated f32 path
/// bit for bit?
///
/// Requires `max_a_raw · max_w_raw · k <= 2^24` and `-149 <= lsb_exp <= 103`.
/// Under those bounds:
///
/// * every product and every partial sum is an integer `S_j` with
///   `|S_j| <= 2^24`, so the i32 accumulator cannot overflow — not even
///   reassociated SIMD partials, since the bound is on `Σ|products|`;
/// * every intermediate value `S_j · 2^lsb_exp` is exactly representable
///   in f32: its significand fits 24 bits, its least bit `2^lsb_exp` is on
///   or above the subnormal grid (`lsb_exp >= -149`), and its magnitude is
///   at most `2^24 · 2^103 = 2^127 < f32::MAX`;
/// * IEEE-754 multiplies and adds are correctly rounded, so when the true
///   result is representable they return it exactly.
///
/// Hence the simulated path's sequential f32 dot equals the integer dot
/// scaled by `2^lsb_exp` — which is exactly what the fused requantize of
/// [`matmul_on_grid_fused`] computes — and the two paths agree bit for bit.
pub fn dot_exact(max_a_raw: i64, max_w_raw: i64, k: usize, lsb_exp: i32) -> bool {
    if !(-149..=103).contains(&lsb_exp) || max_a_raw < 0 || max_w_raw < 0 {
        return false;
    }
    let Ok(k) = i64::try_from(k) else {
        return false;
    };
    max_a_raw
        .checked_mul(max_w_raw)
        .and_then(|p| p.checked_mul(k))
        .is_some_and(|total| total <= 1 << 24)
}

/// [`dot_exact`] tightened to an accumulator of only `acc_bits` bits
/// (two's complement, so the representable range is
/// `[-2^(acc_bits-1), 2^(acc_bits-1) - 1]`).
///
/// The base certificate bounds every partial sum of the dot by
/// `Σ|a·w| <= max_a_raw · max_w_raw · k`, so it suffices to additionally
/// demand `max_a_raw · max_w_raw · k <= 2^(acc_bits-1) - 1`: then no
/// partial sum — in either association order — can leave the narrow
/// two's-complement range, the accumulator never saturates, and the
/// narrow-accumulator engine computes the same integer dot as the full
/// width. (The asymmetric negative endpoint `-2^(acc_bits-1)` is still
/// reachable but deliberately left out of the bound; keeping the
/// certificate symmetric keeps the argument one line.)
///
/// `acc_bits` outside `[2, 63]` returns `false`: one bit cannot hold a
/// signed sum, and 64 would overflow the i64 bound computation itself
/// (widths ≥ 26 are no stricter than [`dot_exact`]'s own `2^24` bound,
/// so the practical range is small). A dot *not* certified here must run
/// through the saturation-aware simulated path
/// (`TileSimulator::with_acc_bits`), which is the semantic reference for
/// narrow-accumulator designs.
pub fn dot_exact_narrow_acc(
    max_a_raw: i64,
    max_w_raw: i64,
    k: usize,
    lsb_exp: i32,
    acc_bits: u32,
) -> bool {
    if !(2..=63).contains(&acc_bits) || !dot_exact(max_a_raw, max_w_raw, k, lsb_exp) {
        return false;
    }
    let Ok(k) = i64::try_from(k) else {
        return false;
    };
    let limit = (1i64 << (acc_bits - 1)) - 1;
    max_a_raw
        .checked_mul(max_w_raw)
        .and_then(|p| p.checked_mul(k))
        .is_some_and(|total| total <= limit)
}

/// Encodes one value through `codec` and demands exact round-trip: the
/// stored word must decode back to the *same bits*. Off-grid values (and
/// `-0.0`, which no codec produces) yield `None`.
#[inline]
fn encode_on_grid(codec: &BitCodec, x: f32) -> Option<u64> {
    let bits = codec.encode_bits(x);
    if codec.decode_bits(bits).to_bits() == x.to_bits() {
        Some(bits)
    } else {
        None
    }
}

/// Encodes a `rows×cols` row-major tensor of values already on the grid of
/// `format` as two's-complement i16 raws (the widest packable fixed format
/// is 16 bits; narrower formats use the same words, since the
/// `vpmaddwd`-shaped i16 kernel outruns a dedicated i8 kernel). With
/// `transpose` the raws hold the **transpose**: packed row `j` is source
/// column `j`, the layout of im2col patch matrices, whose reduction
/// dimension is the *row* index. The values are then transposed to
/// row-major once, up front, so both layouts run the same row-major
/// packers. Returns `None` if the format is wider than 16 bits or any
/// value fails the round-trip check.
fn fixed_raws(
    format: &Fixed,
    rows: usize,
    cols: usize,
    data: &[f32],
    transpose: bool,
) -> Option<Vec<i16>> {
    assert_eq!(data.len(), rows * cols, "packed tensor shape mismatch");
    let transposed;
    let data = if transpose {
        transposed = transpose_f32(rows, cols, data);
        &transposed[..]
    } else {
        data
    };
    let mut words = Vec::new();
    fixed_raws_into(format, data, &mut words).then_some(words)
}

/// [`fixed_raws`] of row-major `data` into a reused buffer: `words` is
/// resized to `data.len()` and filled; returns `false` (words unspecified)
/// if the format is wider than 16 bits or any value fails the round trip.
fn fixed_raws_into(format: &Fixed, data: &[f32], words: &mut Vec<i16>) -> bool {
    if format.word_bits() > 16 {
        return false;
    }
    words.resize(data.len(), 0);
    // The loop bodies below do a per-element encode + round-trip check
    // through `encode_f64_with_scale` / `decode_f64_with_scale` — the
    // very kernels `BitCodec::Fixed`'s encode/decode narrow to i64, so
    // this is still the single fault-codec encoding (see
    // `packers_share_the_fault_codec`). The format's 2^frac scale is
    // hoisted here so the `exp2` libm call runs once, not per element.
    // One switch-free monomorphization of the loops per rounding mode —
    // a switch inside the loop body is the one control-flow shape the
    // auto-vectorizer rejects outright (see `Fixed::encode_f64_mode`).
    let scale = format.scale_f64();
    let off_grid = if let Some(flag) = fast_pack(format, data, words) {
        flag
    } else {
        match format.round_mode() {
            RoundMode::NearestAway => run_pack::<{ RoundMode::AWAY }>(format, scale, data, words),
            RoundMode::NearestEven => run_pack::<{ RoundMode::EVEN }>(format, scale, data, words),
            RoundMode::Floor => run_pack::<{ RoundMode::FLOOR }>(format, scale, data, words),
        }
    };
    !off_grid
}

/// `rows×cols` row-major `data` as its `cols×rows` row-major transpose,
/// copied in square tiles so the strided side of each tile stays within a
/// few cache lines.
fn transpose_f32(rows: usize, cols: usize, data: &[f32]) -> Vec<f32> {
    const TILE: usize = 16;
    let mut out = vec![0.0f32; data.len()];
    for i0 in (0..rows).step_by(TILE) {
        let i1 = (i0 + TILE).min(rows);
        for j0 in (0..cols).step_by(TILE) {
            for j in j0..(j0 + TILE).min(cols) {
                for i in i0..i1 {
                    out[j * rows + i] = data[i * cols + j];
                }
            }
        }
    }
    out
}

/// Runtime-dispatched fixed-point pack loop, monomorphized over the
/// rounding mode `M` (see [`Fixed::encode_f64_mode`]): through the AVX2
/// `#[target_feature]` clone when the CPU allows, else the plain
/// instantiation of the identical body.
fn run_pack<const M: u8>(format: &Fixed, scale: f64, data: &[f32], words: &mut [i16]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if qnn_tensor::has_avx2() {
            // SAFETY: `has_avx2` verified AVX2 on this CPU, the only
            // precondition of the target_feature wrapper.
            unsafe { pack_avx2::<M>(format, scale, data, words) }
        } else {
            pack_body::<M>(format, scale, data, words)
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        pack_body::<M>(format, scale, data, words)
    }
}

/// Fixed-point pack loop: encode each value, fold round-trip failures into
/// the returned flag (no early exit — a data-dependent branch would defeat
/// vectorization), store the i16 word. The raw stays in its integral-f64
/// form throughout: AVX2 has no vectorized f64→i64 convert, while f64→i16
/// lowers through `vcvttpd2dq`. The max-|raw| reduction happens in a
/// separate pass over the words so the only loop-carried state here is the
/// or-flag.
#[inline(always)]
fn pack_body<const M: u8>(format: &Fixed, scale: f64, data: &[f32], words: &mut [i16]) -> bool {
    let mut off_grid = false;
    for (w, &x) in words.iter_mut().zip(data) {
        let raw = format.encode_f64_mode::<M>(x, scale);
        off_grid |= format.decode_f64_with_scale(raw, scale).to_bits() != x.to_bits();
        *w = raw as i16;
    }
    off_grid
}

/// The AVX2 clone of [`pack_body`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pack_avx2<const M: u8>(
    format: &Fixed,
    scale: f64,
    data: &[f32],
    words: &mut [i16],
) -> bool {
    pack_body::<M>(format, scale, data, words)
}

/// The wide f32 fast path for the pack, when applicable (AVX2 CPU,
/// `|frac_bits| <= 32`): `Some(off_grid)` with the words filled in, `None`
/// to run the general f64 loop instead.
///
/// Why the fast path is **exactly** the slow path despite using a
/// different rounding pipeline: the pack's contract is *verify and
/// transcribe*, not *round*. For any input `x`,
///
/// * if `x = r·2^-frac` for an integer `r` in the format's raw range
///   (`x` is representable), then `x·2^frac` is exactly `r` in f32
///   (product of an on-grid f32 by a power of two, `|r| <= 2^15`, no
///   rounding), every rounding mode maps it to `r`, and both decode
///   checks pass — both paths store `r` with the flag clear;
/// * otherwise no raw in range decodes to `x` — decode (`raw·2^-frac`
///   under the gates above) is an exact product, hence injective — so
///   *whatever* candidate raw either path rounds to, its decode-compare
///   fails and both paths raise the flag. NaN, ±infinity, `-0.0` and
///   overflowing magnitudes (where `vcvtps2dq` returns the `i32::MIN`
///   sentinel) all land here.
///
/// The flag agrees in every case and the stored words agree whenever the
/// flag is clear (when set, `fixed_raws` discards the words entirely), so
/// the two paths are interchangeable bit for bit.
#[cfg(target_arch = "x86_64")]
fn fast_pack(format: &Fixed, data: &[f32], words: &mut [i16]) -> Option<bool> {
    if !qnn_tensor::has_avx2() || !(-32..=32).contains(&format.frac_bits()) {
        return None;
    }
    // SAFETY: `has_avx2` verified AVX2 on this CPU.
    Some(unsafe { pack_grid_avx2(format, data, words) })
}

#[cfg(not(target_arch = "x86_64"))]
fn fast_pack(_format: &Fixed, _data: &[f32], _words: &mut [i16]) -> Option<bool> {
    None
}

/// One 8-lane step of [`pack_grid_avx2`]: returns the candidate raws and a
/// lane mask of round-trip/range failures.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn pack_grid_step8(
    p: *const f32,
    scale: std::arch::x86_64::__m256,
    inv: std::arch::x86_64::__m256,
    min_raw: std::arch::x86_64::__m256i,
    max_raw: std::arch::x86_64::__m256i,
) -> (std::arch::x86_64::__m256i, std::arch::x86_64::__m256i) {
    use std::arch::x86_64::*;
    let v = _mm256_loadu_ps(p);
    // Round-to-nearest-even via the default MXCSR mode; out-of-range
    // products become the i32::MIN sentinel, which the range check flags.
    let raw = _mm256_cvtps_epi32(_mm256_mul_ps(v, scale));
    let dec = _mm256_mul_ps(_mm256_cvtepi32_ps(raw), inv);
    // Bitwise compare (not float ==): -0.0 and NaN must fail.
    let eq = _mm256_cmpeq_epi32(_mm256_castps_si256(dec), _mm256_castps_si256(v));
    let out_rng = _mm256_or_si256(
        _mm256_cmpgt_epi32(raw, max_raw),
        _mm256_cmpgt_epi32(min_raw, raw),
    );
    let bad = _mm256_or_si256(_mm256_andnot_si256(eq, _mm256_set1_epi32(-1)), out_rng);
    (raw, bad)
}

/// The vectorized verify-and-transcribe loop behind [`fast_pack`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pack_grid_avx2(format: &Fixed, data: &[f32], words: &mut [i16]) -> bool {
    use std::arch::x86_64::*;
    let rail = 1i32 << (format.word_bits() - 1);
    let scale = _mm256_set1_ps((format.frac_bits() as f32).exp2());
    let inv = _mm256_set1_ps((-format.frac_bits() as f32).exp2());
    let min_raw = _mm256_set1_epi32(-rail);
    let max_raw = _mm256_set1_epi32(rail - 1);
    let mut bad = _mm256_setzero_si256();
    let n = data.len();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: lanes i..i+16 are in bounds for both slices.
        let (r0, b0) = pack_grid_step8(data.as_ptr().add(i), scale, inv, min_raw, max_raw);
        let (r1, b1) = pack_grid_step8(data.as_ptr().add(i + 8), scale, inv, min_raw, max_raw);
        bad = _mm256_or_si256(bad, _mm256_or_si256(b0, b1));
        // packs interleaves the two sources per 128-bit half; the permute
        // restores element order. Saturation can only fire on raws the
        // range check already flagged, whose words are discarded anyway.
        let w = _mm256_permute4x64_epi64(_mm256_packs_epi32(r0, r1), 0b11011000);
        _mm256_storeu_si256(words.as_mut_ptr().add(i) as *mut __m256i, w);
        i += 16;
    }
    if i < n {
        // Ragged tail through the same 16-lane body over a zero-padded
        // buffer: a 0.0 pad lane encodes to raw 0, decodes back to +0.0,
        // stays in range — never a spurious flag.
        let mut buf = [0.0f32; 16];
        buf[..n - i].copy_from_slice(&data[i..]);
        let (r0, b0) = pack_grid_step8(buf.as_ptr(), scale, inv, min_raw, max_raw);
        let (r1, b1) = pack_grid_step8(buf.as_ptr().add(8), scale, inv, min_raw, max_raw);
        bad = _mm256_or_si256(bad, _mm256_or_si256(b0, b1));
        let w = _mm256_permute4x64_epi64(_mm256_packs_epi32(r0, r1), 0b11011000);
        let mut tmp = [0i16; 16];
        _mm256_storeu_si256(tmp.as_mut_ptr() as *mut __m256i, w);
        words[i..].copy_from_slice(&tmp[..n - i]);
    }
    _mm256_movemask_epi8(bad) != 0
}

/// Binary `±2^e` weights as raws `±1` in units of `2^e`. `None` when the
/// scale is not a power of two (see [`pow2_scale_exp`]) or a value is
/// neither `+scale` nor `-scale`.
fn binary_raws(format: &Binary, data: &[f32]) -> Option<(Vec<i16>, i32)> {
    let scale_exp = pow2_scale_exp(format.scale())?;
    // On-grid for a binary codec means bit-equal to `+scale` or `-scale`
    // (the only two values `BitCodec::Binary` can decode); comparing bit
    // patterns directly is the same check as the encode/decode round trip
    // without the per-element calls.
    let pos_bits = format.scale().to_bits();
    let neg_bits = (-format.scale()).to_bits();
    let raws = data
        .iter()
        .map(|x| match x.to_bits() {
            b if b == pos_bits => Some(1),
            b if b == neg_bits => Some(-1),
            _ => None,
        })
        .collect::<Option<Vec<i16>>>()?;
    Some((raws, scale_exp))
}

/// Power-of-two weights as raws `±2^(e-emin)` in units of `2^emin`, where
/// `emin` is the smallest exponent in use (0 for an all-zero tensor).
/// `None` when a value fails the round-trip check or the used exponent
/// span exceeds [`POW2_MAX_SPAN`].
fn pow2_raws(format: &PowerOfTwo, data: &[f32]) -> Option<(Vec<i16>, i32)> {
    let codec = BitCodec::PowerOfTwo(*format);
    let width = codec.width();
    // Per weight: `None` for zero, else (negative, exponent).
    let mut exps = Vec::with_capacity(data.len());
    for &x in data {
        let bits = encode_on_grid(&codec, x)?;
        let code = (bits & ((1u64 << (width - 1)) - 1)) as i32;
        let neg = (bits >> (width - 1)) & 1 == 1;
        exps.push((code != 0).then(|| (neg, format.min_exp() + code - 1)));
    }
    let used = exps.iter().flatten().map(|&(_, e)| e);
    let emin = used.clone().min().unwrap_or(0);
    let emax = used.max().unwrap_or(0);
    if emax - emin > POW2_MAX_SPAN {
        return None;
    }
    let raws = exps
        .iter()
        .map(|w| match *w {
            None => 0,
            Some((neg, e)) => {
                let mag = 1i16 << (e - emin);
                if neg {
                    -mag
                } else {
                    mag
                }
            }
        })
        .collect();
    Some((raws, emin))
}

/// A weight tensor packed for the native kernel: i16 raws, each `r`
/// meaning `r · 2^lsb_exp`, stored once in the register-blocked
/// microkernel's packed-B layout (`qnn_tensor::qgemm::PanelB`) for the
/// matrix-product orientation, and once row-major for the convolution
/// orientation, which feeds them to the kernel's row side. Both live as
/// long as the layer's plan, so packing amortizes over every batched
/// forward and serve request. Rows are output units; `cols` is the
/// reduction length.
///
/// Three weight kinds pack, each into the same integers the simulated path
/// multiplies by:
/// * fixed-point of at most 16 bits — its two's-complement raws;
/// * binary `±2^e` — raws `±1`, `lsb_exp = e`;
/// * power-of-two with a used exponent span of at most 14 — raws
///   `±2^(e-emin)`, `lsb_exp = emin`.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    lsb_exp: i32,
    /// Largest `|raw|` present — the certificate's weight bound.
    max_abs_raw: i64,
    /// The raws, row-major (`rows×cols`).
    raws: Vec<i16>,
    panel: qgemm::PanelB,
    /// The raws as AMX A tiles for the conv route, built on its first call
    /// with activations of 8 bits or fewer; `None` inside when tiles are
    /// unusable here or a raw does not fit i8. Dense plans never build it.
    tiles: OnceLock<Option<qgemm::TileA>>,
}

impl PackedWeights {
    /// Packs quantized weights under their codec. `None` when the codec
    /// has no packed form (float32, minifloat, fixed wider than 16 bits),
    /// a binary scale is not a power of two, a power-of-two span is too
    /// wide, or any value fails the on-grid round trip; the layer then
    /// takes the simulated path.
    pub fn pack(codec: &BitCodec, rows: usize, cols: usize, data: &[f32]) -> Option<Self> {
        assert_eq!(data.len(), rows * cols, "packed tensor shape mismatch");
        let (raws, lsb_exp) = match codec {
            BitCodec::Fixed(f) => (fixed_raws(f, rows, cols, data, false)?, -f.frac_bits()),
            BitCodec::Binary(b) => binary_raws(b, data)?,
            BitCodec::PowerOfTwo(p) => pow2_raws(p, data)?,
            _ => return None,
        };
        let max_abs_raw = raws.iter().map(|&w| i64::from(w).abs()).max().unwrap_or(0);
        let panel = qgemm::PanelB::pack(rows, cols, &raws);
        Some(PackedWeights {
            lsb_exp,
            max_abs_raw,
            raws,
            panel,
            tiles: OnceLock::new(),
        })
    }

    /// Output-unit (row) count.
    pub fn rows(&self) -> usize {
        self.panel.n()
    }

    /// Reduction length each row dots against.
    pub fn cols(&self) -> usize {
        self.panel.k()
    }
}

/// Conservative upper bound on the raw magnitude the activations will
/// encode to — `min(ceil(max|x|·2^frac)+1, 2^(w-1))` — computed without
/// encoding, so a certificate that cannot pass (e.g. fixed16 at realistic
/// reduction lengths) is rejected before any packing work is spent.
fn acts_raw_bound(f: &Fixed, acts: &[f32]) -> i64 {
    // Eight independent accumulators so the reduction vectorizes (a single
    // running max is a loop-carried dependency the compiler must honor).
    let mut lanes = [0.0f32; 8];
    let mut chunks = acts.chunks_exact(8);
    for c in &mut chunks {
        for (m, &v) in lanes.iter_mut().zip(c) {
            *m = m.max(v.abs());
        }
    }
    let mut max = 0.0f32;
    for &v in chunks.remainder() {
        max = max.max(v.abs());
    }
    for m in lanes {
        max = max.max(m);
    }
    let rail = 1i64 << (f.word_bits() - 1);
    let est = (max as f64 * (f.frac_bits() as f64).exp2()).ceil() + 1.0;
    if est >= rail as f64 {
        rail
    } else {
        est as i64
    }
}

/// The operations the fused microkernel tail applies to each output row
/// after the exact integer→f32 requantize: an optional per-output-column
/// bias add and an optional output-precision snap.
///
/// Both are the *same* elementwise f32 operations the dense/conv layer and
/// the network's activation-quantize pass would otherwise run as separate
/// whole-tensor passes. Elementwise f32 ops on identical inputs produce
/// identical bits wherever they run, so fusing them into the kernel tail
/// (while the tile is still cache-hot) changes when and where they
/// execute — never the result. The exactness burden stays entirely on
/// [`dot_exact`].
#[derive(Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Per-output-column bias (length `n`), added after requantize.
    pub bias: Option<&'a [f32]>,
    /// Output activation quantizer, applied last through the raw
    /// elementwise [`Quantizer::quantize_slice`] (no tracing side
    /// effects — callers that need quantization-error telemetry must keep
    /// the separate traced pass instead of fusing). `Send + Sync` because
    /// the fused tail runs inside the kernel's parallel row chunks (and it
    /// matches the layers' shared quantizer handles).
    pub out_quant: Option<&'a (dyn Quantizer + Send + Sync)>,
}

impl Epilogue<'_> {
    /// The empty epilogue: plain requantized GEMM output.
    pub fn none() -> Self {
        Self::default()
    }
}

/// The bias an output row gets after its requantize: none, one value per
/// column (the dense orientation), or one value for the whole row (the
/// conv orientation's output channel).
#[derive(Clone, Copy)]
enum RowBias<'a> {
    None,
    Each(&'a [f32]),
    All(f32),
}

/// Requantizes one accumulator row into `out` by the exact power-of-two
/// `step`, adds `bias`, then snaps it with `out_quant` — the closure body
/// of the fused kernel calls. `acc as f32` is exact (`|acc| <= 2^24`) and
/// so is the product, an f32 under the [`dot_exact`] certificate, so this
/// equals the f64 product narrowed to f32. The bias adds as its own
/// rounding step, never fused with the product.
#[inline]
fn emit_row(
    step: f32,
    bias: RowBias,
    out_quant: Option<&(dyn Quantizer + Send + Sync)>,
    acc: &[i32],
    out: &mut [f32],
) {
    assert!(acc.len() >= out.len(), "one accumulator per output");
    if let RowBias::Each(b) = bias {
        assert!(b.len() >= out.len(), "one bias per output column");
    }
    #[cfg(target_arch = "x86_64")]
    if qnn_tensor::has_avx512f() {
        // SAFETY: `has_avx512f` verified AVX-512F on this CPU; the lengths
        // were checked above.
        unsafe { requantize_avx512(step, bias, acc, out) };
    } else {
        requantize_plain(step, bias, acc, out);
    }
    #[cfg(not(target_arch = "x86_64"))]
    requantize_plain(step, bias, acc, out);
    if let Some(q) = out_quant {
        q.quantize_slice(out);
    }
}

/// The scalar requantize and bias of [`emit_row`].
fn requantize_plain(step: f32, bias: RowBias, acc: &[i32], out: &mut [f32]) {
    for (o, &s) in out.iter_mut().zip(acc) {
        *o = s as f32 * step;
    }
    match bias {
        RowBias::None => {}
        RowBias::Each(b) => {
            for (o, &bv) in out.iter_mut().zip(b) {
                *o += bv;
            }
        }
        RowBias::All(b) => {
            for o in out.iter_mut() {
                *o += b;
            }
        }
    }
}

/// [`requantize_plain`] at zmm width: per 16 outputs one `vcvtdq2ps`, one
/// `vmulps` by `step` and, with a bias, one `vaddps`, masked on the tail.
///
/// # Safety
///
/// The CPU must support AVX-512F; `acc`, and a per-column `bias`, must be
/// at least as long as `out`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn requantize_avx512(step: f32, bias: RowBias, acc: &[i32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let vstep = _mm512_set1_ps(step);
    let n = out.len();
    for j in (0..n).step_by(16) {
        let mask = if n - j >= 16 {
            0xffff
        } else {
            (1u16 << (n - j)) - 1
        };
        // SAFETY: the mask enables lanes `j .. min(j + 16, n)`, inside
        // `out`, `acc` and a per-column `bias` by the caller's contract.
        let s = _mm512_maskz_loadu_epi32(mask, acc.as_ptr().add(j));
        let mut v = _mm512_mul_ps(_mm512_cvtepi32_ps(s), vstep);
        match bias {
            RowBias::None => {}
            RowBias::Each(b) => {
                v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(mask, b.as_ptr().add(j)))
            }
            RowBias::All(b) => v = _mm512_add_ps(v, _mm512_set1_ps(b)),
        }
        _mm512_mask_storeu_ps(out.as_mut_ptr().add(j), mask, v);
    }
}

/// Why a native conv image did not run: [`conv_on_grid`] declined it, or
/// its layer could not offer it. The caller then runs the simulated
/// route, which is always correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fallback {
    /// The image, output, bias or weights do not fit the geometry.
    Shape,
    /// The activations are not fixed-point of at most 16 bits.
    NotFixed,
    /// The weights have no [`PackedWeights`] plan (see
    /// [`PackedWeights::pack`]), so no image is offered.
    Unpackable,
    /// A pixel is off the activation grid, or is `-0.0`.
    OffGrid,
    /// The [`dot_exact`] certificate does not hold over the image.
    CertFailed,
}

impl Fallback {
    /// The reason's name in trace counters: `shape`, `not_fixed`,
    /// `unpackable`, `off_grid` or `cert_failed`.
    pub fn name(self) -> &'static str {
        match self {
            Fallback::Shape => "shape",
            Fallback::NotFixed => "not_fixed",
            Fallback::Unpackable => "unpackable",
            Fallback::OffGrid => "off_grid",
            Fallback::CertFailed => "cert_failed",
        }
    }
}

/// Computes `out[i·n + j] = dot(acts_row_i, weight_row_j)` on the native
/// kernel, **bit-identical** to the simulated sequential-f32 product, or
/// returns `false` leaving `out` unspecified (caller must fall back).
///
/// `acts` is the already-quantized activation slice: `m×k` row-major, or
/// `k×m` when `acts_transposed` (the im2col patch layout — either way the
/// reduction dimension is packed contiguous). `act_codec` is the codec of
/// the quantizer that produced it. Dispatch fires only for fixed-point
/// activations when [`dot_exact`] certifies the whole computation;
/// everything else — off-grid values, other activation formats, shape
/// mismatches — returns `false`.
pub fn matmul_on_grid(
    act_codec: &BitCodec,
    acts: &[f32],
    m: usize,
    k: usize,
    acts_transposed: bool,
    plan: &PackedWeights,
    out: &mut [f32],
) -> bool {
    matmul_on_grid_fused(
        act_codec,
        acts,
        m,
        k,
        acts_transposed,
        plan,
        &Epilogue::none(),
        out,
    )
}

/// [`matmul_on_grid`] with a fused [`Epilogue`]: the requantize, bias add
/// and output-precision snap run in the microkernel tail per row chunk
/// instead of as whole-tensor passes, so the layers stop round-tripping
/// activations through intermediate f32 tensors. `out` holds the final
/// epilogue-applied activations on `true`; unspecified on `false`.
#[allow(clippy::too_many_arguments)]
pub fn matmul_on_grid_fused(
    act_codec: &BitCodec,
    acts: &[f32],
    m: usize,
    k: usize,
    acts_transposed: bool,
    plan: &PackedWeights,
    epi: &Epilogue,
    out: &mut [f32],
) -> bool {
    let n = plan.rows();
    if plan.cols() != k || out.len() != m * n || acts.len() != m * k {
        return false;
    }
    if epi.bias.is_some_and(|b| b.len() != n) {
        return false;
    }
    // No precision in use binarizes its activations, so fixed-point is the
    // only activation format the route takes.
    let BitCodec::Fixed(f) = act_codec else {
        return false;
    };
    let lsb = plan.lsb_exp - f.frac_bits();
    if !dot_exact(acts_raw_bound(f, acts), plan.max_abs_raw, k, lsb) {
        return false;
    }
    let (rows, cols) = if acts_transposed { (k, m) } else { (m, k) };
    let Some(pa) = fixed_raws(f, rows, cols, acts, acts_transposed) else {
        return false;
    };
    let step = (lsb as f64).exp2() as f32;
    let bias = epi.bias.map_or(RowBias::None, RowBias::Each);
    qgemm::gemm_nt_i16_panel_emit(m, k, n, &pa, &plan.panel, out, |_r, acc, orow| {
        emit_row(step, bias, epi.out_quant, acc, orow)
    });
    qnn_trace::counter!(CTR_REQUANT, 1);
    true
}

/// The buffers [`conv_on_grid`] reuses across images and calls: one
/// image's i16 raws and its patch panel. A conv layer owns one, so its
/// steady-state native forwards allocate nothing here.
#[derive(Debug, Default, Clone)]
pub struct ConvGridScratch {
    raws: Vec<i16>,
    patches: qgemm::PanelB,
}

/// One image of a convolution on the native kernel, **bit-identical** to
/// the simulated route — im2col, the f32 GEMM `W·cols`, the per-channel
/// bias, then `epi.out_quant` — or the [`Fallback`] reason it declined,
/// leaving `out` unspecified (the caller falls back).
///
/// `image` is one `(c, h, w)` image of already-quantized activations and
/// `act_codec` the codec of the quantizer that produced them; `plan` holds
/// the `(o, c·kh·kw)` weights and `out` receives the `(o, oh·ow)` output.
/// In this orientation `epi.bias` is **per output channel** (length `o`),
/// one value per output row.
///
/// The image is encoded once; the weights' raws run on the kernel's row
/// side, and each channel's row is requantized, biased and snapped in
/// place. With activations of 8 bits or fewer and weight raws that fit i8,
/// on a CPU with AMX-INT8, the patches go straight into tiles
/// (`qgemm::conv_tiles_emit`); otherwise they go straight into an i16
/// panel. Both compute the same integer sums. The certificate bound is
/// taken over the image, not the patches: every patch value is an image
/// value or a `+0.0` pad, so it is never looser, and it is the same bound
/// whenever every pixel lies in some window.
///
/// # Errors
///
/// [`Fallback::Shape`] for mismatched shapes or an impossible geometry,
/// [`Fallback::NotFixed`] for activations that are not fixed-point of at
/// most 16 bits, [`Fallback::CertFailed`] for a failed certificate and
/// [`Fallback::OffGrid`] for an off-grid or `-0.0` pixel.
#[allow(clippy::too_many_arguments)]
pub fn conv_on_grid(
    act_codec: &BitCodec,
    image: &[f32],
    chw: (usize, usize, usize),
    geom: Geometry,
    plan: &PackedWeights,
    epi: &Epilogue,
    scratch: &mut ConvGridScratch,
    out: &mut [f32],
) -> Result<(), Fallback> {
    let tiles = match act_codec {
        BitCodec::Fixed(f) if f.word_bits() <= 8 => plan
            .tiles
            .get_or_init(|| qgemm::TileA::pack(plan.rows(), plan.cols(), &plan.raws))
            .as_ref(),
        _ => None,
    };
    conv_route(act_codec, image, chw, geom, plan, tiles, epi, scratch, out)
}

/// [`conv_on_grid`] through the A tiles `tiles` when given, else through
/// the i16 panel.
#[allow(clippy::too_many_arguments)]
fn conv_route(
    act_codec: &BitCodec,
    image: &[f32],
    (c, h, w): (usize, usize, usize),
    geom: Geometry,
    plan: &PackedWeights,
    tiles: Option<&qgemm::TileA>,
    epi: &Epilogue,
    scratch: &mut ConvGridScratch,
    out: &mut [f32],
) -> Result<(), Fallback> {
    let (oh, ow) = geom.output_hw(h, w).map_err(|_| Fallback::Shape)?;
    let (o, k, px) = (plan.rows(), c * geom.kh * geom.kw, oh * ow);
    if plan.cols() != k
        || image.len() != c * h * w
        || out.len() != o * px
        || epi.bias.is_some_and(|b| b.len() != o)
    {
        return Err(Fallback::Shape);
    }
    let f = match act_codec {
        BitCodec::Fixed(f) if f.word_bits() <= 16 => f,
        _ => return Err(Fallback::NotFixed),
    };
    let lsb = plan.lsb_exp - f.frac_bits();
    if !dot_exact(acts_raw_bound(f, image), plan.max_abs_raw, k, lsb) {
        return Err(Fallback::CertFailed);
    }
    if !fixed_raws_into(f, image, &mut scratch.raws) {
        return Err(Fallback::OffGrid);
    }
    let step = (lsb as f64).exp2() as f32;
    // Row `r` is output channel `r`: one bias for the whole row.
    let emit = |r: usize, acc: &[i32], orow: &mut [f32]| {
        let bias = epi.bias.map_or(RowBias::None, |b| RowBias::All(b[r]));
        emit_row(step, bias, epi.out_quant, acc, orow)
    };
    let ConvGridScratch { raws, patches } = scratch;
    let on_tiles =
        tiles.is_some_and(|t| qgemm::conv_tiles_emit(t, raws, (c, h, w), geom, out, emit));
    if !on_tiles {
        patches
            .pack_patches(raws, c, h, w, geom)
            .map_err(|_| Fallback::Shape)?;
        qgemm::gemm_nt_i16_panel_emit(o, k, px, &plan.raws, patches, out, emit);
    }
    qnn_trace::counter!(CTR_REQUANT, 1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The weight raws, row-major, read back out of the panel.
    fn raws(p: &PackedWeights) -> Vec<i16> {
        (0..p.rows())
            .flat_map(|j| (0..p.cols()).map(move |kk| p.panel.read(j, kk)))
            .collect()
    }

    #[test]
    fn pow2_scale_exp_accepts_only_powers_of_two() {
        assert_eq!(pow2_scale_exp(1.0), Some(0));
        assert_eq!(pow2_scale_exp(0.5), Some(-1));
        assert_eq!(pow2_scale_exp(4.0), Some(2));
        assert_eq!(pow2_scale_exp(0.3), None);
        assert_eq!(pow2_scale_exp(-1.0), None);
        assert_eq!(pow2_scale_exp(0.0), None);
        assert_eq!(pow2_scale_exp(f32::INFINITY), None);
    }

    #[test]
    fn certificate_bounds() {
        assert!(dot_exact(127, 127, 100, -8));
        assert!(!dot_exact(127, 127, 10_000_000, -8)); // magnitude
        assert!(!dot_exact(127, 127, 100, -150)); // below subnormal grid
        assert!(!dot_exact(127, 127, 100, 104)); // overflow risk
        assert!(dot_exact(0, 0, 1 << 40, 0)); // zero operands, huge k
        assert!(dot_exact(1 << 12, 1 << 12, 1, 0)); // exactly 2^24
        assert!(!dot_exact((1 << 12) + 1, 1 << 12, 1, 0));
    }

    #[test]
    fn narrow_acc_certificate_bounds() {
        // At 26+ bits the narrow bound (2^25 − 1) is looser than the base
        // certificate's 2^24, so narrow == base.
        assert!(dot_exact_narrow_acc(1 << 12, 1 << 12, 1, 0, 26));
        assert!(!dot_exact_narrow_acc((1 << 12) + 1, 1 << 12, 1, 0, 26));
        // 16-bit accumulator: limit is 2^15 − 1 = 32767.
        assert!(dot_exact_narrow_acc(127, 128, 2, -8, 16)); // 32512
        assert!(!dot_exact_narrow_acc(128, 129, 2, -8, 16)); // 33024 > 32767
        assert!(dot_exact_narrow_acc(1, 32767, 1, 0, 16)); // exactly the limit
        assert!(!dot_exact_narrow_acc(1, 32768, 1, 0, 16)); // one past
                                                            // Degenerate widths refuse.
        assert!(!dot_exact_narrow_acc(1, 1, 1, 0, 1));
        assert!(!dot_exact_narrow_acc(1, 1, 1, 0, 0));
        assert!(!dot_exact_narrow_acc(1, 1, 1, 0, 64));
        // Base-certificate failures still refuse regardless of width.
        assert!(!dot_exact_narrow_acc(127, 127, 100, -150, 32));
    }

    /// ≥256-case property check: for seeded (raw, raw, k, width) tuples at
    /// the exact representable boundary, the certificate must equal the
    /// i128 ground truth `dot_exact && Σ|a·w| <= 2^(bits−1) − 1`, and the
    /// verdict vector must be identical whether evaluated on 1 worker or 4.
    #[test]
    fn narrow_acc_certificate_boundary_property() {
        const CASES: usize = 288;
        fn case(i: usize) -> (i64, i64, usize, i32, u32) {
            // Deterministic splitmix-style expansion of the index.
            let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_7074;
            let mut next = move || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            let acc_bits = 2 + (next() % 62) as u32; // 2..=63
            let limit = (1i64 << (acc_bits - 1)) - 1;
            let max_a = 1 + (next() as i64).rem_euclid(1 << 12);
            let max_w = 1 + (next() as i64).rem_euclid(1 << 12);
            // k chosen so the product lands on, just under, or just past
            // the narrow limit — the boundary widths the tuner trades on.
            let k_exact = (limit / (max_a * max_w)).max(1) as usize;
            let k = match next() % 3 {
                0 => k_exact,
                1 => k_exact.saturating_sub(1).max(1),
                _ => k_exact + 1,
            };
            let lsb_exp = -140 + (next() % 240) as i32; // −140..=99, in range
            (max_a, max_w, k, lsb_exp, acc_bits)
        }
        let truth = |i: usize| {
            let (a, w, k, e, bits) = case(i);
            let total = a as i128 * w as i128 * k as i128;
            let expect = dot_exact(a, w, k, e)
                && total <= ((1i128 << (bits - 1)) - 1)
                && (2..=63).contains(&bits);
            let got = dot_exact_narrow_acc(a, w, k, e, bits);
            assert_eq!(got, expect, "case {i}: ({a},{w},{k},{e},{bits})");
            got
        };
        let one = qnn_tensor::par::map_capped(CASES, 1, truth);
        let four = qnn_tensor::par::map_capped(CASES, 4, truth);
        assert_eq!(one, four, "certificate must not depend on worker count");
        // The boundary sampler must exercise both verdicts.
        assert!(one.iter().any(|&b| b) && one.iter().any(|&b| !b));
    }

    #[test]
    fn fixed_pack_round_trips_and_rejects_off_grid() {
        let f = Fixed::new(8, 4).unwrap();
        let vals: Vec<f32> = (-8i64..8).map(|i| f.decode(i * 3)).collect();
        let p = PackedWeights::pack(&BitCodec::Fixed(f), 4, 4, &vals).unwrap();
        assert_eq!(p.lsb_exp, -4);
        assert_eq!(p.max_abs_raw, 24);
        for (&w, &v) in raws(&p).iter().zip(&vals) {
            assert_eq!(w as f32 / 16.0, v);
        }
        // 0.1 is not on the Q4.4 grid.
        let mut bad = vals.clone();
        bad[3] = 0.1;
        assert!(fixed_raws(&f, 4, 4, &bad, false).is_none());
        // -0.0 is not a codec output.
        let mut negz = vals;
        negz[0] = -0.0;
        assert!(fixed_raws(&f, 4, 4, &negz, false).is_none());
    }

    #[test]
    fn fixed_pack_rejects_wide_formats_but_packs_16() {
        let f32fmt = Fixed::new(32, 16).unwrap();
        assert!(fixed_raws(&f32fmt, 1, 1, &[1.0], false).is_none());
        let f16 = Fixed::new(16, 8).unwrap();
        assert_eq!(
            fixed_raws(&f16, 1, 2, &[1.5, -2.0], false).unwrap(),
            [384, -512]
        );
    }

    #[test]
    fn fixed_pack_transposed_swaps_axes() {
        let f = Fixed::new(8, 2).unwrap();
        // 2×3 row-major: [a b c; d e f] → packed rows are columns.
        let vals = [1.0, 2.0, 3.0, -1.0, -2.0, -3.0];
        assert_eq!(
            fixed_raws(&f, 2, 3, &vals, true).unwrap(),
            [4, -4, 8, -8, 12, -12]
        );
        // Seeded inputs: the transposed pack is the row-major pack of the
        // explicit transpose, `None` included (an off-grid value, a `-0.0`),
        // for a format the AVX2 fast path takes and one it refuses
        // (`|frac_bits| > 32`).
        let mut r = qnn_tensor::rng::seeded(0x7A05_E5ED);
        for f in [Fixed::new(8, 4).unwrap(), Fixed::new(8, 40).unwrap()] {
            // Both 8-bit: raws -128..=127.
            let mut refused = 0;
            for case in 0..64 {
                let (rows, cols) = (r.gen_range(1usize..40), r.gen_range(1usize..40));
                let mut vals: Vec<f32> = (0..rows * cols)
                    .map(|_| f.decode(r.gen_range(-128i64..=127)))
                    .collect();
                let at = r.gen_range(0..vals.len());
                match case % 4 {
                    1 => vals[at] = f.decode(1) / 2.0,
                    2 => vals[at] = -0.0,
                    _ => {}
                }
                let t: Vec<f32> = (0..rows * cols)
                    .map(|x| vals[(x % rows) * cols + x / rows])
                    .collect();
                let packed = fixed_raws(&f, rows, cols, &vals, true);
                assert_eq!(packed, fixed_raws(&f, cols, rows, &t, false), "case {case}");
                refused += usize::from(packed.is_none());
            }
            assert_eq!(refused, 32, "every off-grid and -0.0 case must refuse");
        }
    }

    #[test]
    fn binary_pack_is_the_unit_raw_view() {
        let b = Binary::with_scale(0.5).unwrap();
        let vals = [0.5, -0.5, -0.5, 0.5, 0.5, 0.5];
        let p = PackedWeights::pack(&BitCodec::Binary(b), 2, 3, &vals).unwrap();
        assert_eq!((p.rows(), p.cols()), (2, 3));
        assert_eq!(raws(&p), [1, -1, -1, 1, 1, 1]);
        assert_eq!((p.lsb_exp, p.max_abs_raw), (-1, 1));
        // Non-power-of-two scale cannot pack.
        let b2 = Binary::with_scale(0.3).unwrap();
        assert!(PackedWeights::pack(&BitCodec::Binary(b2), 1, 1, &[0.3]).is_none());
    }

    #[test]
    fn pow2_pack_raws_are_relative_to_used_window() {
        let p2 = PowerOfTwo::new(6, 0).unwrap();
        // Values 2^0, -2^-2, 0 → emin = -2, raws 4, -1, 0.
        let vals = [1.0, -0.25, 0.0];
        let p = PackedWeights::pack(&BitCodec::PowerOfTwo(p2), 1, 3, &vals).unwrap();
        assert_eq!((p.lsb_exp, p.max_abs_raw), (-2, 4));
        assert_eq!(raws(&p), [4, -1, 0]);
    }

    #[test]
    fn requantize_is_exact_under_certificate() {
        let acc = [3i32, -5, 0, (1 << 24), -(1 << 24)];
        let mut out = [0.0f32; 5];
        emit_row((-10f32).exp2(), RowBias::None, None, &acc, &mut out);
        for (i, &a) in acc.iter().enumerate() {
            assert_eq!(out[i].to_bits(), (a as f32 / 1024.0).to_bits());
        }
        // Subnormal edge: 3 · 2^-149.
        let mut tiny = [0.0f32; 1];
        emit_row((-149f32).exp2(), RowBias::None, None, &[3], &mut tiny);
        assert_eq!(tiny[0].to_bits(), f32::from_bits(3).to_bits());
    }

    /// Both requantize builds against the f64 product narrowed to f32, plus
    /// the bias as its own add, over seeded accumulators within `±2^24`,
    /// steps `2^-149 ..= 2^103` and every row length up to 40 (so the
    /// zmm build's masked tail sees every width).
    #[test]
    fn requantize_builds_match_the_f64_product() {
        let mut r = qnn_tensor::rng::seeded(0x2E9A_0517);
        let mut zmm_rows = 0;
        for case in 0..600 {
            let n = case % 41;
            let lsb = r.gen_range(-149i32..=103);
            let acc: Vec<i32> = (0..n)
                .map(|_| match r.gen_range(0u32..8) {
                    0 => 1 << 24,
                    1 => -(1 << 24),
                    _ => r.gen_range(-(1i64 << 24)..=1 << 24) as i32,
                })
                .collect();
            let bias: Vec<f32> = (0..n).map(|_| r.gen_range(-4.0f32..4.0)).collect();
            let step = (lsb as f64).exp2();
            let want = |b: &dyn Fn(usize) -> Option<f32>| -> Vec<u32> {
                (0..n)
                    .map(|j| {
                        let v = (acc[j] as f64 * step) as f32;
                        b(j).map_or(v, |b| v + b).to_bits()
                    })
                    .collect()
            };
            let b0 = bias.first().copied().unwrap_or(1.5);
            let cases = [
                (RowBias::None, want(&|_| None)),
                (RowBias::Each(&bias), want(&|j| Some(bias[j]))),
                (RowBias::All(b0), want(&|_| Some(b0))),
            ];
            for (bias, want) in &cases {
                let mut out = vec![f32::NAN; n];
                requantize_plain(step as f32, *bias, &acc, &mut out);
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(&got, want, "plain case {case} lsb {lsb}");
                #[cfg(target_arch = "x86_64")]
                if qnn_tensor::has_avx512f() {
                    let mut out = vec![f32::NAN; n];
                    // SAFETY: AVX-512F verified; every slice is `n` long.
                    unsafe { requantize_avx512(step as f32, *bias, &acc, &mut out) };
                    let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(&got, want, "avx512 case {case} lsb {lsb}");
                    zmm_rows += 1;
                }
            }
        }
        if qnn_tensor::has_avx512f() {
            assert_eq!(zmm_rows, 1800);
        }
    }

    /// The conv route on tiles against the same route on the i16 panel, bit
    /// for bit, over the 288 geometries of `qnn-tensor`'s `panel_layout`
    /// test (same seed and draws: c 1–4, h and w 1–13, kernel 1–7, stride
    /// 1–3, padding 0–3, ceil mode a quarter of the time), with 2- to
    /// 8-bit activations, 8-bit weights at both i8 ends, 1 to 39 output
    /// channels, a per-channel bias and an output snap, at 1 and 4
    /// threads. Skips, saying why, where tiles are unusable.
    #[test]
    fn conv_tiles_match_the_panel_route_bitwise() {
        use qnn_tensor::rng::seeded;
        if qgemm::tile_build() != "amx" {
            println!(
                "skipped: no AMX-INT8 tiles here (tile_build() = {})",
                qgemm::tile_build()
            );
            return;
        }
        let mut rng = seeded(0x9A7C_4E55);
        let mut vr = seeded(0x711E_C0DE);
        let (mut cases, mut ceil, mut padded, mut tiled) = (0, 0, 0, 0);
        while cases < 288 {
            let geom = Geometry {
                kh: rng.gen_range(1usize..8),
                kw: rng.gen_range(1usize..8),
                stride: rng.gen_range(1usize..4),
                pad: rng.gen_range(0usize..4),
                ceil: rng.gen_bool(0.25),
            };
            let (c, h, w) = (
                rng.gen_range(1usize..5),
                rng.gen_range(1usize..14),
                rng.gen_range(1usize..14),
            );
            let Ok((oh, ow)) = geom.output_hw(h, w) else {
                continue;
            };
            // `panel_layout` draws its image here; keep its sequence.
            for _ in 0..c * h * w {
                rng.gen_range(-300i32..301);
            }
            cases += 1;
            ceil += usize::from(geom.ceil);
            padded += usize::from(geom.pad > 0);
            let (o, k) = (vr.gen_range(1usize..40), c * geom.kh * geom.kw);
            let bits = vr.gen_range(2u32..=8);
            let fa = Fixed::new(bits, vr.gen_range(0i32..bits as i32)).unwrap();
            let image: Vec<f32> = (0..c * h * w)
                .map(|_| fa.decode(vr.gen_range(-(1i64 << (bits - 1))..1 << (bits - 1))))
                .collect();
            let fw = Fixed::new(8, vr.gen_range(0i32..8)).unwrap();
            let weights: Vec<f32> = (0..o * k)
                .map(|_| match vr.gen_range(0u32..8) {
                    0 => fw.decode(-128),
                    1 => fw.decode(127),
                    _ => fw.decode(vr.gen_range(-128i64..128)),
                })
                .collect();
            let plan = PackedWeights::pack(&BitCodec::Fixed(fw), o, k, &weights).unwrap();
            let oq = Fixed::new(8, vr.gen_range(0i32..5)).unwrap();
            let bias: Vec<f32> = (0..o)
                .map(|_| oq.decode(vr.gen_range(-64i64..65)))
                .collect();
            let epi = Epilogue {
                bias: Some(&bias),
                out_quant: Some(&oq),
            };
            let tiles = qgemm::TileA::pack(o, k, &plan.raws).expect("i8 raws pack");
            let codec = BitCodec::Fixed(fa);
            let run = |tiles: Option<&qgemm::TileA>| {
                let mut out = vec![f32::NAN; o * oh * ow];
                let mut scratch = ConvGridScratch::default();
                let chw = (c, h, w);
                conv_route(
                    &codec,
                    &image,
                    chw,
                    geom,
                    &plan,
                    tiles,
                    &epi,
                    &mut scratch,
                    &mut out,
                )
                .expect("8-bit operands pass the certificate");
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            // The tile route must take the image, not fall back to panels.
            let mut words = Vec::new();
            assert!(fixed_raws_into(&fa, &image, &mut words));
            let mut out = vec![0.0f32; o * oh * ow];
            let noop = |_: usize, _: &[i32], _: &mut [f32]| {};
            assert!(qgemm::conv_tiles_emit(
                &tiles,
                &words,
                (c, h, w),
                geom,
                &mut out,
                noop
            ));
            for threads in [1, 4] {
                qnn_tensor::par::set_threads(Some(threads));
                assert_eq!(
                    run(Some(&tiles)),
                    run(None),
                    "{geom:?} c={c} h={h} w={w} o={o} {fa:?} threads={threads}"
                );
                tiled += 1;
            }
        }
        qnn_tensor::par::set_threads(None);
        assert!(ceil > 0 && padded > 0);
        assert_eq!(tiled, 2 * 288);
    }

    #[test]
    fn packers_share_the_fault_codec() {
        // The packer stores exactly the words BitCodec encodes — flip a bit
        // through the codec and the packed word flips identically.
        let f = Fixed::new(8, 4).unwrap();
        let codec = BitCodec::Fixed(f);
        let v = f.decode(37);
        let flipped = codec.flip(v, 2);
        let words = fixed_raws(&f, 1, 2, &[v, flipped], false).unwrap();
        assert_eq!(
            words[0] ^ words[1],
            0b100,
            "packed words must differ in exactly the flipped stored bit"
        );
    }
}
