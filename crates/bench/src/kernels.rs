//! The kernel benchmark suite behind `qnn-bench kernels` and the
//! committed `BENCH_kernels.json` artifact.
//!
//! Covers the compute core's hot paths: the blocked GEMM against the
//! retained naive kernel (single- and multi-threaded), im2col convolution
//! forward/backward, the fake-quantize passes, a full LeNet-small
//! training step, and a Table IV mini-sweep timed end-to-end.

use crate::json::Json;
use crate::timer::{black_box, Bencher, Measurement};
use qnn_core::experiments::{accuracy_sweep, ExperimentScale};
use qnn_data::{standard_splits, DatasetKind};
use qnn_nn::loss::softmax_cross_entropy;
use qnn_nn::{zoo, Mode, Network, Sgd};
use qnn_quant::packed::{matmul_on_grid, PackedWeights};
use qnn_quant::{Binary, BitCodec, Fixed, PowerOfTwo, Precision, Quantizer};
use qnn_tensor::conv::{conv2d, conv2d_backward, Geometry};
use qnn_tensor::pool::{max_pool2d, max_pool2d_eval};
use qnn_tensor::{par, rng, Shape, Tensor};

fn random(shape: Shape, seed: u64) -> Tensor {
    let mut r = rng::seeded(seed);
    let n = shape.len();
    Tensor::from_vec(shape, (0..n).map(|_| r.gen_range(-1.0f32..1.0)).collect()).unwrap()
}

/// On-grid fixed-point values with raw magnitude ≤ `max_raw`, so the
/// native certificate holds and both GEMM paths compute the identical
/// product — making the timed ratio a true like-for-like speedup.
fn grid_fixed(f: &Fixed, len: usize, max_raw: i64, seed: u64) -> Vec<f32> {
    let mut r = rng::seeded(seed);
    (0..len)
        .map(|_| f.decode(r.gen_range(-max_raw..max_raw + 1)))
        .collect()
}

/// The `simd` header of the kernels report: the f32 GEMM, i16 panel kernel,
/// pool, native-conv tile and fixed-point snap builds this CPU ran, as
/// `f32=<build> i16=<build> pool=<build> tiles=<build> snap=<build>`.
fn simd_builds() -> Json {
    Json::str(format!(
        "f32={} i16={} pool={} tiles={} snap={}",
        qnn_tensor::gemm::simd_build(),
        qnn_tensor::qgemm::simd_build(),
        qnn_tensor::pool::simd_build(),
        qnn_tensor::qgemm::tile_build(),
        qnn_quant::Fixed::snap_build()
    ))
}

/// One entry of the kernels report: a measurement plus optional
/// throughput in GFLOP/s.
fn entry(m: &Measurement, flops_per_op: Option<f64>) -> Json {
    let mut pairs = vec![
        ("name", Json::str(m.name.clone())),
        ("ns_per_op", Json::Num(m.ns_per_op)),
        ("iters", Json::Num(m.iters as f64)),
        ("reps", Json::Num(m.reps as f64)),
    ];
    if let Some(f) = flops_per_op {
        pairs.push(("gflops", Json::Num(m.gflops(f))));
    }
    Json::obj(pairs)
}

/// The quantized-GEMM microkernel suite (single-threaded 256³): the f32
/// reference, each packable weight kind through the native kernel via the
/// exact dispatch entry the layers call, and the derived
/// `speedup_*_vs_f32_1t` ratios that the bench-check / kernels-bench gates
/// judge (a ratio below 1.0 fails).
///
/// Every operand sits on its format's grid with raw magnitudes inside
/// the exactness certificate, so the native kernels produce bit-identical
/// output to the f32 baseline — the sanity asserts pin that before
/// anything is timed. Timings include the per-batch work a real forward
/// pays (activation packing, certificate check, requantize); weight
/// packing is excluded, matching the per-layer plan cache.
fn qgemm_suite(b: &Bencher, push: &mut dyn FnMut(Json)) {
    println!("== quantized GEMM 256x256x256 (native kernels vs simulated f32, 1 thread) ==");
    par::set_threads(Some(1));
    let q = 256usize;
    let flops_q = 2.0 * (q as f64).powi(3);
    let mut out = vec![0.0f32; q * q];

    let f8 = Fixed::new(8, 7).unwrap();
    let acts8 = grid_fixed(&f8, q * q, 127, 11);
    let w8 = grid_fixed(&f8, q * q, 127, 12);
    let m = b.run("qgemm_256/f32_nt_1t", || {
        qnn_tensor::gemm::gemm_nt(
            q,
            q,
            q,
            black_box(&acts8),
            black_box(&w8),
            black_box(&mut out),
        );
    });
    let f32_ns = m.ns_per_op;
    push(entry(&m, Some(flops_q)));

    let codec8 = BitCodec::Fixed(f8);
    let plan8 = PackedWeights::pack(&codec8, q, q, &w8).expect("fixed8 weights pack");
    assert!(
        matmul_on_grid(&codec8, &acts8, q, q, false, &plan8, &mut out),
        "fixed8 certificate must hold at 256^3"
    );
    let m = b.run("qgemm_256/fixed8_native_1t", || {
        black_box(matmul_on_grid(
            &codec8,
            black_box(&acts8),
            q,
            q,
            false,
            &plan8,
            black_box(&mut out),
        ));
    });
    let fixed8_ns = m.ns_per_op;
    push(entry(&m, Some(flops_q)));

    // Raw magnitudes ≤ 256: 256·256·256 = 2^24, the certificate's edge.
    let f16 = Fixed::new(16, 12).unwrap();
    let acts16 = grid_fixed(&f16, q * q, 255, 13);
    let w16 = grid_fixed(&f16, q * q, 255, 14);
    let codec16 = BitCodec::Fixed(f16);
    let plan16 = PackedWeights::pack(&codec16, q, q, &w16).expect("fixed16 weights pack");
    assert!(
        matmul_on_grid(&codec16, &acts16, q, q, false, &plan16, &mut out),
        "fixed16 certificate must hold at 256^3 with raws <= 255"
    );
    let m = b.run("qgemm_256/fixed16_native_1t", || {
        black_box(matmul_on_grid(
            &codec16,
            black_box(&acts16),
            q,
            q,
            false,
            &plan16,
            black_box(&mut out),
        ));
    });
    let fixed16_ns = m.ns_per_op;
    push(entry(&m, Some(flops_q)));

    // Binary Net (1,16): ±1 weights (a power-of-two scale, so they pack as
    // the ±1 raw panel) against the fixed16 activations above.
    let bin = Binary::new();
    let mut r = rng::seeded(15);
    let bw: Vec<f32> = (0..q * q).map(|_| bin.decode(r.gen_bool(0.5))).collect();
    let bplan = PackedWeights::pack(&BitCodec::Binary(bin), q, q, &bw).expect("binary pack");
    assert!(
        matmul_on_grid(&codec16, &acts16, q, q, false, &bplan, &mut out),
        "binary×fixed16 certificate must hold at 256^3 with raws <= 255"
    );
    let m = b.run("qgemm_256/binary_fixed16_1t", || {
        black_box(matmul_on_grid(
            &codec16,
            black_box(&acts16),
            q,
            q,
            false,
            &bplan,
            black_box(&mut out),
        ));
    });
    let binary_ns = m.ns_per_op;
    push(entry(&m, Some(flops_q)));

    // Pow2 weights in a narrow exponent band (span ≤ 6) against fixed8
    // activations with raws ≤ 64, keeping the shifted products certified.
    let p2 = PowerOfTwo::new(6, 0).unwrap();
    let mut r = rng::seeded(16);
    let span = p2.max_exp() - p2.min_exp();
    let low_code = (span + 1 - 6).max(0) as u32 + 1;
    let hi_code = span as u32 + 1;
    let pw: Vec<f32> = (0..q * q)
        .map(|_| p2.decode(r.gen_bool(0.5), r.gen_range(low_code..hi_code + 1)))
        .collect();
    let pacts = grid_fixed(&f8, q * q, 64, 17);
    let pplan = PackedWeights::pack(&BitCodec::PowerOfTwo(p2), q, q, &pw).expect("pow2 pack");
    assert!(
        matmul_on_grid(&codec8, &pacts, q, q, false, &pplan, &mut out),
        "pow2 certificate must hold at 256^3 with a narrow exponent band"
    );
    let m = b.run("qgemm_256/pow2_native_1t", || {
        black_box(matmul_on_grid(
            &codec8,
            black_box(&pacts),
            q,
            q,
            false,
            &pplan,
            black_box(&mut out),
        ));
    });
    let pow2_ns = m.ns_per_op;
    push(entry(&m, Some(flops_q)));

    for (name, ns) in [
        ("qgemm_256/speedup_fixed8_vs_f32_1t", fixed8_ns),
        ("qgemm_256/speedup_fixed16_vs_f32_1t", fixed16_ns),
        ("qgemm_256/speedup_binary_vs_f32_1t", binary_ns),
        ("qgemm_256/speedup_pow2_vs_f32_1t", pow2_ns),
    ] {
        push(Json::obj(vec![
            ("name", Json::str(name)),
            ("ratio", Json::Num(f32_ns / ns)),
        ]));
    }
    par::set_threads(None);
}

/// Runs the full kernel suite and returns the report as JSON.
///
/// Printed progress goes to stdout; the caller decides whether to also
/// write the artifact file.
pub fn run() -> Json {
    run_with(false)
}

/// Runs only the quantized-GEMM microkernel suite at full repetitions —
/// the `kernels-bench` CI leg re-checks the microkernel numbers and
/// their speedup ratios against the committed baseline without paying
/// for the rest of the suite.
pub fn run_qgemm() -> Json {
    let b = Bencher::default();
    let mut entries: Vec<Json> = Vec::new();
    let mut push = |e: Json| {
        println!(
            "  {}",
            e.render()
                .lines()
                .collect::<Vec<_>>()
                .join(" ")
                .replace("  ", " ")
        );
        entries.push(e);
    };
    qgemm_suite(&b, &mut push);
    Json::obj(vec![
        ("schema", Json::str("qnn-bench/kernels/v1")),
        ("threads_default", Json::Num(par::threads() as f64)),
        ("simd", simd_builds()),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("benchmarks", Json::Arr(entries)),
    ])
}

/// Runs the kernel suite; `quick` trades precision for speed (shorter
/// repetitions, the end-to-end mini-sweep skipped) for CI gating, where
/// the regression tolerance absorbs the extra timing noise.
pub fn run_with(quick: bool) -> Json {
    let b = if quick {
        Bencher {
            warmup_reps: 1,
            reps: 3,
            target_rep_ns: 20_000_000,
        }
    } else {
        Bencher::default()
    };
    let mut entries: Vec<Json> = Vec::new();
    let mut push = |e: Json| {
        println!(
            "  {}",
            e.render()
                .lines()
                .collect::<Vec<_>>()
                .join(" ")
                .replace("  ", " ")
        );
        entries.push(e);
    };

    println!("== matmul 256x256x256 (naive vs blocked vs threaded) ==");
    let a = random(Shape::d2(256, 256), 1);
    let bm = random(Shape::d2(256, 256), 2);
    let flops_256 = 2.0 * 256f64.powi(3);
    par::set_threads(Some(1));
    let m = b.run("matmul_256/naive_1t", || {
        black_box(a.matmul_naive(black_box(&bm)).unwrap());
    });
    let naive_ns = m.ns_per_op;
    push(entry(&m, Some(flops_256)));
    let m = b.run("matmul_256/blocked_1t", || {
        black_box(a.matmul(black_box(&bm)).unwrap());
    });
    let blocked_ns = m.ns_per_op;
    push(entry(&m, Some(flops_256)));
    par::set_threads(None);
    let m = b.run(
        &format!("matmul_256/blocked_pool_{}t", par::threads()),
        || {
            black_box(a.matmul(black_box(&bm)).unwrap());
        },
    );
    push(entry(&m, Some(flops_256)));
    push(Json::obj(vec![
        ("name", Json::str("matmul_256/speedup_blocked_vs_naive_1t")),
        ("ratio", Json::Num(naive_ns / blocked_ns)),
    ]));

    qgemm_suite(&b, &mut push);

    println!("== conv2d LeNet conv2 (50x(20,5,5) over (20,12,12), batch 4) ==");
    let x = random(Shape::d4(4, 20, 12, 12), 3);
    let w = random(Shape::d4(50, 20, 5, 5), 4);
    let bias = Tensor::zeros(Shape::d1(50));
    let geom = Geometry::square(5, 1, 0);
    let conv_macs = 4.0 * 50.0 * 20.0 * 25.0 * 64.0;
    let m = b.run("conv2d/forward_lenet_conv2_batch4", || {
        black_box(conv2d(black_box(&x), &w, &bias, geom).unwrap());
    });
    push(entry(&m, Some(2.0 * conv_macs)));
    let y = conv2d(&x, &w, &bias, geom).unwrap();
    let gout = Tensor::ones(y.shape().clone());
    let m = b.run("conv2d/backward_lenet_conv2_batch4", || {
        black_box(conv2d_backward(black_box(&x), &w, &gout, geom).unwrap());
    });
    push(entry(&m, Some(2.0 * 2.0 * conv_macs)));

    // The f32 conv zoo-infer spends most on, on the lanes route where the
    // CPU runs it; ReLU'd inputs, so its zero-step skip runs too.
    println!("== conv2d ConvNet conv2 (512x(16,7,7) over relu'd (16,14,14), batch 4) ==");
    let x = random(Shape::d4(4, 16, 14, 14), 6).map(|v| v.max(0.0));
    let w = random(Shape::d4(512, 16, 7, 7), 7);
    let bias = Tensor::zeros(Shape::d1(512));
    let geom = Geometry::square(7, 1, 0);
    let conv_macs = 4.0 * 512.0 * 16.0 * 49.0 * 64.0;
    let m = b.run("conv2d/forward_convnet_conv2_batch4", || {
        black_box(conv2d(black_box(&x), &w, &bias, geom).unwrap());
    });
    push(entry(&m, Some(2.0 * conv_macs)));

    println!("== pooling ==");
    let p = random(Shape::d4(4, 32, 32, 32), 5);
    let m = b.run("maxpool/3x3s2_batch4", || {
        black_box(max_pool2d(black_box(&p), Geometry::square(3, 2, 0)).unwrap());
    });
    push(entry(&m, None));
    let m = b.run("maxpool/3x3s2_batch4_eval", || {
        black_box(max_pool2d_eval(black_box(&p), Geometry::square(3, 2, 0)).unwrap());
    });
    push(entry(&m, None));

    println!("== fake-quantize (4096 elements) ==");
    let data = Tensor::from_vec(
        Shape::d1(4096),
        (0..4096).map(|i| ((i as f32) * 0.37).sin() * 4.0).collect(),
    )
    .unwrap();
    let fixed = Fixed::new(8, 5).unwrap();
    let pow2 = PowerOfTwo::new(6, 1).unwrap();
    let binary = Binary::new();
    let m = b.run("quantize_4096/fixed8", || {
        black_box(fixed.quantize(&data));
    });
    push(entry(&m, None));
    let m = b.run("quantize_4096/pow2", || {
        black_box(pow2.quantize(&data));
    });
    push(entry(&m, None));
    let m = b.run("quantize_4096/binary", || {
        black_box(binary.quantize(&data));
    });
    push(entry(&m, None));
    let mut big = random(Shape::d1(1 << 18), 9);
    let m = b.run("quantize_262144/fixed8_pooled", || {
        qnn_quant::quantize_inplace_par(&fixed, black_box(&mut big));
    });
    push(entry(&m, None));

    println!("== LeNet-small (batch 8): forward and one training step ==");
    let mut net = Network::build(&zoo::lenet_small(), 7).unwrap();
    let batch = random(Shape::d4(8, 1, 28, 28), 6);
    let m = b.run("lenet_small/forward_batch8", || {
        black_box(net.forward(black_box(&batch), Mode::Eval).unwrap());
    });
    push(entry(&m, None));
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    let opt = Sgd::new(0.01);
    let m = b.run("lenet_small/train_step_batch8", || {
        net.zero_grads();
        let logits = net.forward(&batch, Mode::Train).unwrap();
        let out = softmax_cross_entropy(&logits, &labels).unwrap();
        net.backward(&out.grad).unwrap();
        opt.step(&mut net);
    });
    push(entry(&m, None));

    if !quick {
        println!("== Table IV mini-sweep (smoke scale, float32 + fixed(8,8)) ==");
        let once = Bencher::once();
        let splits = standard_splits(DatasetKind::Glyphs28, 240, 200, 3);
        let spec = zoo::lenet_small();
        let m = once.run("table4/mini_sweep_smoke_2_precisions", || {
            black_box(
                accuracy_sweep(
                    &spec,
                    &splits,
                    &[Precision::float32(), Precision::fixed(8, 8)],
                    ExperimentScale::Smoke,
                    7,
                )
                .unwrap(),
            );
        });
        push(entry(&m, None));
    }

    Json::obj(vec![
        ("schema", Json::str("qnn-bench/kernels/v1")),
        ("threads_default", Json::Num(par::threads() as f64)),
        ("simd", simd_builds()),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("benchmarks", Json::Arr(entries)),
    ])
}
