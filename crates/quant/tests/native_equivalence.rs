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

use qnn_quant::packed::{matmul_on_grid, matmul_on_grid_fused, Epilogue, PackedWeights};
use qnn_quant::{Binary, BitCodec, Fixed, PowerOfTwo, Quantizer};
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
