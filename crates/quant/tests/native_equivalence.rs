//! Bit-identity property tests for the native quantized kernels.
//!
//! For every packable `Precision` in the paper's Table III sweep these
//! suites drive [`qnn_quant::packed::matmul_on_grid`] — the exact dispatch
//! entry the layers call — against a sequential-f32 reference dot product
//! (the simulated GEMM's documented accumulation order) and demand **bit
//! equality**, not closeness. Each suite runs ≥256 seeded cases and the
//! whole body repeats at 1 and 4 worker threads, since the integer kernels
//! must be invariant to how rows are partitioned.
//!
//! The suites also pin the *honesty* of the certificate: formats or
//! operands the kernel cannot compute exactly (fixed32, rail-magnitude
//! fixed16 products, non-power-of-two binary scales, pow2 exponent spans
//! past 14, binary activations, `-0.0` activations) must be declined —
//! `matmul_on_grid` returns `false` / `pack` returns `None` — rather than
//! computed approximately.

use qnn_quant::packed::{
    conv_on_grid, matmul_on_grid, matmul_on_grid_fused, ConvGridScratch, Epilogue, Fallback,
    PackedWeights,
};
use qnn_quant::{Binary, BitCodec, Fixed, PowerOfTwo, Quantizer};
use qnn_tensor::conv::{im2col_into, Geometry};
use qnn_tensor::par;
use qnn_tensor::rng::{derive_seed, seeded, Rng};

const CASES: u64 = 256;

/// Runs `f` for `CASES` seeds at 1 and 4 worker threads, restoring the
/// thread default afterwards (panic-safe via a drop guard).
fn cases(suite_seed: u64, f: impl Fn(&mut Rng)) {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            par::set_threads(None);
        }
    }
    let _restore = Restore;
    for threads in [1usize, 4] {
        par::set_threads(Some(threads));
        for case in 0..CASES {
            let mut rng = seeded(derive_seed(suite_seed, case));
            f(&mut rng);
        }
    }
}

/// The simulated path's dot product: one f32 accumulator per output,
/// ascending-k, matching `gemm_nt`'s bit-exactness contract. `acts` is
/// `m×k` row-major, or `k×m` when `transposed` (the im2col layout).
fn reference_nt(
    m: usize,
    k: usize,
    n: usize,
    acts: &[f32],
    transposed: bool,
    weights: &[f32],
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                let a = if transposed {
                    acts[kk * m + i]
                } else {
                    acts[i * k + kk]
                };
                acc += a * weights[j * k + kk];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn assert_bits_eq(native: &[f32], reference: &[f32], ctx: &str) {
    assert_eq!(native.len(), reference.len(), "{ctx}: length mismatch");
    for (i, (a, b)) in native.iter().zip(reference.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: out[{i}] native {a} ({:#010x}) != simulated {b} ({:#010x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

fn small_dims(rng: &mut Rng) -> (usize, usize, usize) {
    (
        rng.gen_range(1usize..6),
        rng.gen_range(1usize..48),
        rng.gen_range(1usize..6),
    )
}

/// On-grid fixed-point values with raw magnitude below `max_raw`
/// (clamped to the word's rails), mixing direct grid points with
/// round-tripped arbitrary floats so rounding/tie cases appear too.
fn fixed_values(rng: &mut Rng, f: &Fixed, len: usize, max_raw: i64) -> Vec<f32> {
    let rail = (1i64 << (f.word_bits() - 1)) - 1;
    let hi = max_raw.min(rail);
    let lo = -(max_raw.min(rail + 1));
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.75) {
                f.decode(rng.gen_range(lo..hi + 1))
            } else {
                // Round an arbitrary float onto the grid; covers ties and
                // saturation (quantize clamps to the rails).
                let span = f.decode(hi.max(1)) * 2.0;
                f.quantize_value(rng.gen_range(-span..span))
            }
        })
        .collect()
}

fn run_native(
    codec: &BitCodec,
    acts: &[f32],
    m: usize,
    k: usize,
    transposed: bool,
    plan: &PackedWeights,
) -> Option<Vec<f32>> {
    let mut out = vec![f32::NAN; m * plan.rows()];
    matmul_on_grid(codec, acts, m, k, transposed, plan, &mut out).then_some(out)
}

#[test]
fn fixed4_and_fixed8_native_bit_identical() {
    // Table III rows Fixed-Point (4,4) and (8,8): full raw range including
    // the rails — the certificate always holds at these widths and k ≤ 48,
    // so the native path must both fire and agree bit-for-bit.
    cases(0x4e1, |rng| {
        let bits = if rng.gen_bool(0.5) { 4u32 } else { 8 };
        let f = Fixed::new(bits, rng.gen_range(-1i32..6)).unwrap();
        let codec = BitCodec::Fixed(f);
        let (m, k, n) = small_dims(rng);
        let transposed = rng.gen_bool(0.5);
        let acts = fixed_values(rng, &f, m * k, i64::MAX);
        let weights = fixed_values(rng, &f, n * k, i64::MAX);
        let plan = PackedWeights::pack(&codec, n, k, &weights)
            .expect("fixed4/8 weights on the grid must pack");
        let native = run_native(&codec, &acts, m, k, transposed, &plan)
            .expect("certificate must hold for fixed4/8 at small k");
        let reference = reference_nt(m, k, n, &acts, transposed, &weights);
        assert_bits_eq(&native, &reference, &format!("fixed{bits}"));
    });
}

#[test]
fn fixed16_native_when_certified_falls_back_at_rails() {
    // Table III row Fixed-Point (16,16). Raw magnitudes ≤ 256 keep
    // |a|·|w|·k ≤ 2^16·k under the 2^24 certificate for k ≤ 48, so the
    // native path must fire; rail-magnitude products (≈2^30 each) cannot
    // be certified and must be declined, not computed.
    cases(0x4e2, |rng| {
        let f = Fixed::new(16, rng.gen_range(4i32..12)).unwrap();
        let codec = BitCodec::Fixed(f);
        let (m, k, n) = small_dims(rng);
        let acts = fixed_values(rng, &f, m * k, 256);
        let weights = fixed_values(rng, &f, n * k, 256);
        let plan = PackedWeights::pack(&codec, n, k, &weights).expect("fixed16 must pack");
        let native = run_native(&codec, &acts, m, k, false, &plan)
            .expect("certificate must hold for small fixed16 raws");
        let reference = reference_nt(m, k, n, &acts, false, &weights);
        assert_bits_eq(&native, &reference, "fixed16");

        // Rails on both sides: 32767² ≈ 2^30 > 2^24 → honest fallback.
        let rail = f.decode(32767);
        let acts_rail = vec![rail; m * k];
        let weights_rail = vec![-rail; n * k];
        let plan_rail =
            PackedWeights::pack(&codec, n, k, &weights_rail).expect("rail weights still pack");
        assert!(
            run_native(&codec, &acts_rail, m, k, false, &plan_rail).is_none(),
            "fixed16 rail products exceed the certificate and must fall back"
        );
    });
}

#[test]
fn fixed32_is_never_packed() {
    // Table III row Fixed-Point (32,32): products need up to 64 bits of
    // significand, which neither i32 accumulation nor f32 can certify —
    // the format must have no packed form at all.
    cases(0x4e3, |rng| {
        let f = Fixed::new(32, rng.gen_range(0i32..24)).unwrap();
        let codec = BitCodec::Fixed(f);
        let weights: Vec<f32> = (0..12)
            .map(|_| f.quantize_value(rng.gen_range(-4.0f32..4.0)))
            .collect();
        assert!(
            PackedWeights::pack(&codec, 3, 4, &weights).is_none(),
            "fixed32 must not pack"
        );
    });
}

#[test]
fn pow2_weights_bit_identical_or_honest() {
    // Table III row Powers of Two (6,16): pow2 weights against fixed
    // activations. A narrow exponent band keeps the certificate in range
    // (native asserted); the full 6-bit window usually spans more than the
    // 14 exponents that pack, or pushes the shifted magnitude past 2^24,
    // where only an honest fallback is acceptable — but if the kernel does
    // fire, bits must still match.
    cases(0x4e4, |rng| {
        let p = PowerOfTwo::new(6, rng.gen_range(-4i32..5)).unwrap();
        let wcodec = BitCodec::PowerOfTwo(p);
        let fa = Fixed::new(8, rng.gen_range(0i32..6)).unwrap();
        let acodec = BitCodec::Fixed(fa);
        let (m, k, n) = small_dims(rng);
        let transposed = rng.gen_bool(0.5);
        let narrow = rng.gen_bool(0.5);
        let top = p.max_exp();
        let low_code = if narrow {
            // Codes within 6 of the top → weight span ≤ 2^6.
            (p.max_exp() - p.min_exp() + 1 - 6).max(0) as u32 + 1
        } else {
            0
        };
        let hi_code = (top - p.min_exp()) as u32 + 1;
        let weights: Vec<f32> = (0..n * k)
            .map(|_| {
                let code = rng.gen_range(low_code..hi_code + 1);
                p.decode(rng.gen_bool(0.5), code)
            })
            .collect();
        let acts = fixed_values(rng, &fa, m * k, 64);
        let reference = reference_nt(m, k, n, &acts, transposed, &weights);
        let native = PackedWeights::pack(&wcodec, n, k, &weights)
            .and_then(|plan| run_native(&acodec, &acts, m, k, transposed, &plan));
        match native {
            Some(native) => assert_bits_eq(&native, &reference, "pow2"),
            None => assert!(
                !narrow,
                "narrow-band pow2 weights must pack and pass the certificate"
            ),
        }
    });
}

#[test]
fn binary_weights_bit_identical() {
    // Table III row Binary Net (1,16): ±2^e binary weights against fixed
    // activations — always certifiable at these sizes (|w|raw = 1).
    cases(0x4e5, |rng| {
        let e = rng.gen_range(-3i32..4);
        let b = Binary::with_scale((e as f32).exp2()).unwrap();
        let wcodec = BitCodec::Binary(b);
        let fa = Fixed::new(16, rng.gen_range(4i32..10)).unwrap();
        let acodec = BitCodec::Fixed(fa);
        let (m, k, n) = small_dims(rng);
        let transposed = rng.gen_bool(0.5);
        let weights: Vec<f32> = (0..n * k).map(|_| b.decode(rng.gen_bool(0.5))).collect();
        let acts = fixed_values(rng, &fa, m * k, 256);
        let plan = PackedWeights::pack(&wcodec, n, k, &weights).expect("binary weights must pack");
        let native = run_native(&acodec, &acts, m, k, transposed, &plan)
            .expect("binary×fixed certificate must hold");
        let reference = reference_nt(m, k, n, &acts, transposed, &weights);
        assert_bits_eq(&native, &reference, "binary×fixed");
    });
}

#[test]
fn negative_zero_activation_falls_back() {
    // `-0.0` is not the encoding of any fixed-point word (decode(0) is
    // `+0.0`), so the on-grid check must decline the batch even though the
    // numeric value is representable.
    let f = Fixed::new(8, 4).unwrap();
    let codec = BitCodec::Fixed(f);
    let weights: Vec<f32> = (0..8).map(|i| f.decode(i as i64 - 4)).collect();
    let plan = PackedWeights::pack(&codec, 2, 4, &weights).unwrap();
    let mut acts: Vec<f32> = (0..8).map(|i| f.decode(i as i64)).collect();
    assert!(run_native(&codec, &acts, 2, 4, false, &plan).is_some());
    acts[5] = -0.0;
    assert_eq!(acts[5], 0.0, "-0.0 compares equal but has a different bit");
    assert!(
        run_native(&codec, &acts, 2, 4, false, &plan).is_none(),
        "-0.0 activation is off-grid and must force the simulated path"
    );
}

/// Drives the fused entry against the unfused one plus explicit bias-add
/// and quantize passes — the exact computation the layers used to run as
/// three separate loops. Bit equality is required whenever the plan
/// certifies; when it declines, both entries must decline together.
#[allow(clippy::too_many_arguments)]
fn assert_fused_matches_separate(
    codec: &BitCodec,
    acts: &[f32],
    m: usize,
    k: usize,
    transposed: bool,
    plan: &PackedWeights,
    rng: &mut Rng,
    ctx: &str,
) {
    let n = plan.rows();
    let oq = Fixed::new(8, rng.gen_range(1i32..5)).unwrap();
    let bias: Vec<f32> = (0..n)
        .map(|_| oq.decode(rng.gen_range(-64i64..65)))
        .collect();
    let epi = Epilogue {
        bias: Some(&bias),
        out_quant: Some(&oq),
    };
    let mut base = vec![f32::NAN; m * n];
    let certified = matmul_on_grid(codec, acts, m, k, transposed, plan, &mut base);
    let mut fused = vec![f32::NAN; m * n];
    let fused_ok = matmul_on_grid_fused(codec, acts, m, k, transposed, plan, &epi, &mut fused);
    assert_eq!(
        certified, fused_ok,
        "{ctx}: fused and unfused entries must certify identically"
    );
    if !certified {
        return;
    }
    for i in 0..m {
        for (j, b) in bias.iter().enumerate() {
            base[i * n + j] += b;
        }
    }
    oq.quantize_slice(&mut base);
    assert_bits_eq(&fused, &base, ctx);
}

#[test]
fn fused_epilogue_matches_separate_passes_across_codecs() {
    // Every packable weight family through the fused entry: the in-kernel
    // bias + output-quantize tail must equal the historical three-pass
    // pipeline bit for bit.
    cases(0x4e8, |rng| {
        let (m, k, n) = small_dims(rng);
        let transposed = rng.gen_bool(0.5);
        match rng.gen_range(0u32..3) {
            0 => {
                let f = Fixed::new(8, rng.gen_range(-1i32..6)).unwrap();
                let codec = BitCodec::Fixed(f);
                let acts = fixed_values(rng, &f, m * k, i64::MAX);
                let weights = fixed_values(rng, &f, n * k, i64::MAX);
                let plan = PackedWeights::pack(&codec, n, k, &weights).unwrap();
                assert_fused_matches_separate(
                    &codec,
                    &acts,
                    m,
                    k,
                    transposed,
                    &plan,
                    rng,
                    "fused fixed8",
                );
            }
            1 => {
                let p = PowerOfTwo::new(6, rng.gen_range(-4i32..5)).unwrap();
                let wcodec = BitCodec::PowerOfTwo(p);
                let fa = Fixed::new(8, rng.gen_range(0i32..6)).unwrap();
                let acodec = BitCodec::Fixed(fa);
                // The top 15 exponents (span 14, the widest that packs)
                // plus zero.
                let hi_code = (p.max_exp() - p.min_exp()) as u32 + 1;
                let weights: Vec<f32> = (0..n * k)
                    .map(|_| {
                        let code = match rng.gen_range(0u32..16) {
                            0 => 0,
                            c => hi_code - 15 + c,
                        };
                        p.decode(rng.gen_bool(0.5), code)
                    })
                    .collect();
                let acts = fixed_values(rng, &fa, m * k, 64);
                let plan = PackedWeights::pack(&wcodec, n, k, &weights).unwrap();
                assert_fused_matches_separate(
                    &acodec,
                    &acts,
                    m,
                    k,
                    transposed,
                    &plan,
                    rng,
                    "fused pow2",
                );
            }
            _ => {
                let b = Binary::with_scale((rng.gen_range(-3i32..4) as f32).exp2()).unwrap();
                let wcodec = BitCodec::Binary(b);
                let fa = Fixed::new(16, rng.gen_range(4i32..10)).unwrap();
                let acodec = BitCodec::Fixed(fa);
                let acts = fixed_values(rng, &fa, m * k, 256);
                let weights: Vec<f32> = (0..n * k).map(|_| b.decode(rng.gen_bool(0.5))).collect();
                let plan = PackedWeights::pack(&wcodec, n, k, &weights).unwrap();
                assert_fused_matches_separate(
                    &acodec,
                    &acts,
                    m,
                    k,
                    transposed,
                    &plan,
                    rng,
                    "fused binary×fixed16",
                );
            }
        }
    });
}

#[test]
fn fused_epilogue_rejects_mismatched_bias() {
    // A bias whose length disagrees with the output width must make the
    // fused entry decline (the layers treat `false` as "run simulated").
    let f = Fixed::new(8, 4).unwrap();
    let codec = BitCodec::Fixed(f);
    let weights: Vec<f32> = (0..8).map(|i| f.decode(i as i64 - 4)).collect();
    let plan = PackedWeights::pack(&codec, 2, 4, &weights).unwrap();
    let acts: Vec<f32> = (0..8).map(|i| f.decode(i as i64)).collect();
    let bias = vec![0.5f32; 3]; // n is 2
    let epi = Epilogue {
        bias: Some(&bias),
        out_quant: None,
    };
    let mut out = vec![0.0f32; 4];
    assert!(!matmul_on_grid_fused(
        &codec, &acts, 2, 4, false, &plan, &epi, &mut out
    ));
}

#[test]
fn float32_and_minifloat_have_no_packed_form() {
    // The remaining Table III row (Floating-Point (32,32)) and the
    // minifloat codec never dispatch natively.
    let weights = [0.5f32, -0.25, 1.0, 0.0];
    assert!(PackedWeights::pack(&BitCodec::Float32, 2, 2, &weights).is_none());
    let mf = qnn_quant::Minifloat::new(4, 3).unwrap();
    let q: &dyn Quantizer = &mf;
    let snapped: Vec<f32> = weights.iter().map(|&x| q.quantize_value(x)).collect();
    assert!(PackedWeights::pack(&BitCodec::Minifloat(mf), 2, 2, &snapped).is_none());
}

/// What the one native route must do with a case at its boundary.
enum Route {
    /// Packs and runs native, bit-identical to the reference.
    Native,
    /// `PackedWeights::pack` returns `None`.
    NoPack,
    /// Packs, but `matmul_on_grid` declines the activations.
    Declined,
}

#[test]
fn native_route_boundary() {
    // The native route takes i16 weight raws scaled by a power of two
    // against fixed-point activations; everything past that must be
    // declined, never approximated.
    use Route::*;
    let (m, k, n) = (3usize, 4usize, 2usize);
    let p6 = BitCodec::PowerOfTwo(PowerOfTwo::new(6, 0).unwrap()); // exponents -30..=0
    let p7 = BitCodec::PowerOfTwo(PowerOfTwo::new(7, 0).unwrap()); // exponents -62..=0
    let half = Binary::with_scale(0.5).unwrap();
    let odd = Binary::with_scale(0.3).unwrap();
    let fa = Fixed::new(8, 0).unwrap();

    // Alternating-sign weights whose used exponents run from 0 down to -span.
    let pow2 = |span: i32| -> Vec<f32> {
        (0..(n * k) as i32)
            .map(|i| (-(span * i / 7) as f32).exp2() * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect()
    };
    let signs =
        |b: Binary, len: usize| -> Vec<f32> { (0..len).map(|i| b.decode(i % 3 == 0)).collect() };
    let (bh, bo) = (BitCodec::Binary(half), BitCodec::Binary(odd));
    // (case, weight codec, weights, binary activations?, expected route)
    let table = [
        ("pow2 span 14", p6, pow2(14), false, Native),
        ("pow2 span 15", p6, pow2(15), false, NoPack),
        ("pow2 span 30", p6, pow2(30), false, NoPack),
        ("pow2 span 31", p7, pow2(31), false, NoPack),
        ("binary acts", bh, signs(half, n * k), true, Declined),
        ("binary scale 0.3", bo, signs(odd, n * k), false, NoPack),
    ];
    for (label, wcodec, weights, binary_acts, route) in table {
        let (acodec, acts) = if binary_acts {
            (bh, signs(half, m * k))
        } else {
            let raws = (0..m * k).map(|i| fa.decode(i as i64 % 3 - 1));
            (BitCodec::Fixed(fa), raws.collect())
        };
        match (route, PackedWeights::pack(&wcodec, n, k, &weights)) {
            (NoPack, plan) => assert!(plan.is_none(), "{label}: must not pack"),
            (Declined, Some(plan)) => assert!(
                run_native(&acodec, &acts, m, k, false, &plan).is_none(),
                "{label}: must be declined"
            ),
            (Native, Some(plan)) => {
                let native = run_native(&acodec, &acts, m, k, false, &plan)
                    .unwrap_or_else(|| panic!("{label}: must run native"));
                let reference = reference_nt(m, k, n, &acts, false, &weights);
                assert_bits_eq(&native, &reference, label);
            }
            (_, None) => panic!("{label}: must pack"),
        }
    }
}

/// The simulated convolution of one `(c, h, w)` image: im2col, one f32
/// accumulator per output over ascending `k`, then the per-channel bias
/// and the output snap — what `Conv2d`'s f32 route and the network's
/// quantize pass compute.
#[allow(clippy::too_many_arguments)]
fn reference_conv(
    image: &[f32],
    (c, h, w): (usize, usize, usize),
    geom: Geometry,
    o: usize,
    weights: &[f32],
    bias: &[f32],
    out_q: &dyn Quantizer,
) -> Vec<f32> {
    let (oh, ow) = geom.output_hw(h, w).unwrap();
    let (px, k) = (oh * ow, c * geom.kh * geom.kw);
    let mut cols = vec![0.0f32; k * px];
    im2col_into(image, c, h, w, geom, &mut cols).unwrap();
    let mut out = vec![0.0f32; o * px];
    for oi in 0..o {
        for p in 0..px {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += weights[oi * k + kk] * cols[kk * px + p];
            }
            out[oi * px + p] = acc + bias[oi];
        }
    }
    out_q.quantize_slice(&mut out);
    out
}

/// A random conv geometry (strides 1–3, padding 0–2) for an image of
/// `c×h×w`, or `None` when the kernel does not fit.
fn conv_case(rng: &mut Rng) -> Option<((usize, usize, usize), Geometry)> {
    let geom = Geometry::square(
        rng.gen_range(1usize..5),
        rng.gen_range(1usize..4),
        rng.gen_range(0usize..3),
    );
    let chw = (
        rng.gen_range(1usize..4),
        rng.gen_range(1usize..10),
        rng.gen_range(1usize..10),
    );
    geom.output_hw(chw.1, chw.2).ok()?;
    Some((chw, geom))
}

/// `conv_on_grid` against the simulated conv plus bias plus snap over
/// 256 seeded cases at 1 and 4 threads: fixed activations of 2 to 16
/// bits, fixed, binary and pow2 weights, strides up to 3 and padding. The
/// entry must fire for every weight family and, when it fires, match bit
/// for bit; when it declines, the certificate over the image must have
/// failed.
#[test]
fn conv_entry_matches_simulated_conv_bias_and_snap() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let native = [(); 3].map(|_| AtomicUsize::new(0));
    let (strided, padded) = (AtomicUsize::new(0), AtomicUsize::new(0));
    cases(0xC0_4E, |rng| {
        let Some(((c, h, w), geom)) = conv_case(rng) else {
            return;
        };
        let o = rng.gen_range(1usize..12);
        let k = c * geom.kh * geom.kw;
        let bits = rng.gen_range(2u32..17);
        let fa = Fixed::new(bits, rng.gen_range(0i32..bits as i32)).unwrap();
        let max_raw = 1 << rng.gen_range(1u32..bits);
        let image = fixed_values(rng, &fa, c * h * w, max_raw);
        let family = rng.gen_range(0usize..3);
        let (wcodec, weights): (BitCodec, Vec<f32>) = match family {
            0 => {
                let fw = Fixed::new(rng.gen_range(2u32..17), rng.gen_range(0i32..8)).unwrap();
                (BitCodec::Fixed(fw), fixed_values(rng, &fw, o * k, 1 << 7))
            }
            1 => {
                let b = Binary::with_scale((rng.gen_range(-3i32..4) as f32).exp2()).unwrap();
                let v = (0..o * k).map(|_| b.decode(rng.gen_bool(0.5))).collect();
                (BitCodec::Binary(b), v)
            }
            _ => {
                let p = PowerOfTwo::new(6, 0).unwrap();
                let top = (p.max_exp() - p.min_exp()) as u32 + 1;
                let v = (0..o * k)
                    .map(|_| p.decode(rng.gen_bool(0.5), rng.gen_range(top - 5..top + 1)))
                    .collect();
                (BitCodec::PowerOfTwo(p), v)
            }
        };
        let plan = PackedWeights::pack(&wcodec, o, k, &weights).expect("weights must pack");
        let oq = Fixed::new(8, rng.gen_range(0i32..5)).unwrap();
        let bias: Vec<f32> = (0..o)
            .map(|_| oq.decode(rng.gen_range(-64i64..65)))
            .collect();
        let epi = Epilogue {
            bias: Some(&bias),
            out_quant: Some(&oq),
        };
        let (oh, ow) = geom.output_hw(h, w).unwrap();
        let mut out = vec![f32::NAN; o * oh * ow];
        let mut scratch = ConvGridScratch::default();
        let acodec = BitCodec::Fixed(fa);
        let chw = (c, h, w);
        if conv_on_grid(
            &acodec,
            &image,
            chw,
            geom,
            &plan,
            &epi,
            &mut scratch,
            &mut out,
        )
        .is_ok()
        {
            native[family].fetch_add(1, Ordering::Relaxed);
            strided.fetch_add(usize::from(geom.stride > 1), Ordering::Relaxed);
            padded.fetch_add(usize::from(geom.pad > 0), Ordering::Relaxed);
            let want = reference_conv(&image, chw, geom, o, &weights, &bias, &oq);
            assert_bits_eq(
                &out,
                &want,
                &format!("{geom:?} {chw:?} o={o} {wcodec:?} {fa:?}"),
            );
        } else {
            // The only decline on-grid activations may meet is the
            // certificate, and up to 8-bit activations it always holds
            // here (weight raws stay at or below 2^7, k at most 48).
            assert!(fa.word_bits() > 8, "{geom:?} {chw:?} {fa:?}: declined");
        }
    });
    let native = native.map(|n| n.into_inner());
    assert!(
        native.iter().all(|&n| n > 0),
        "every weight family must run native: {native:?}"
    );
    assert!(strided.into_inner() > 0 && padded.into_inner() > 0);
}

/// `conv_on_grid` must decline, never approximate: an off-grid pixel, a
/// `-0.0` pixel, activations wider than 16 bits and a failed certificate
/// each return their [`Fallback`] reason, while the same image otherwise
/// runs native.
#[test]
fn conv_entry_declines_what_it_cannot_compute() {
    let fa = Fixed::new(8, 4).unwrap();
    let geom = Geometry::square(3, 2, 1);
    let (c, h, w, o) = (2usize, 5usize, 6usize, 3usize);
    let k = c * 9;
    let weights: Vec<f32> = (0..o * k).map(|i| fa.decode(i as i64 % 7 - 3)).collect();
    let plan = PackedWeights::pack(&BitCodec::Fixed(fa), o, k, &weights).unwrap();
    let image: Vec<f32> = (0..c * h * w)
        .map(|i| fa.decode(i as i64 % 9 - 4))
        .collect();
    let (oh, ow) = geom.output_hw(h, w).unwrap();
    let run = |codec: &BitCodec, image: &[f32], plan: &PackedWeights| {
        let mut out = vec![0.0f32; o * oh * ow];
        let mut scratch = ConvGridScratch::default();
        let epi = Epilogue::none();
        conv_on_grid(
            codec,
            image,
            (c, h, w),
            geom,
            plan,
            &epi,
            &mut scratch,
            &mut out,
        )
    };
    let codec = BitCodec::Fixed(fa);
    assert_eq!(
        run(&codec, &image, &plan),
        Ok(()),
        "the on-grid image must run native"
    );
    let mut off = image.clone();
    off[7] = fa.decode(1) / 2.0;
    assert_eq!(
        run(&codec, &off, &plan),
        Err(Fallback::OffGrid),
        "off-grid pixel"
    );
    let mut negz = image.clone();
    negz[0] = -0.0;
    assert_eq!(
        run(&codec, &negz, &plan),
        Err(Fallback::OffGrid),
        "-0.0 pixel"
    );
    let wide = Fixed::new(17, 4).unwrap();
    assert_eq!(
        run(&BitCodec::Fixed(wide), &image, &plan),
        Err(Fallback::NotFixed),
        "17-bit activations"
    );
    // 16-bit activations at the rail against 8-bit weights: 2^15·127·18
    // exceeds the certificate's 2^24.
    let f16 = Fixed::new(16, 4).unwrap();
    let big: Vec<f32> = (0..c * h * w)
        .map(|i| f16.decode(if i == 3 { -32768 } else { 1 }))
        .collect();
    let wplan =
        PackedWeights::pack(&BitCodec::Fixed(fa), o, k, &vec![fa.decode(127); o * k]).unwrap();
    assert_eq!(
        run(&BitCodec::Fixed(f16), &big, &wplan),
        Err(Fallback::CertFailed),
        "failed certificate"
    );
}
