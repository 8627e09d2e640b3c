//! End-to-end bit-identity tests for the native quantized fast path.
//!
//! The property suites in `qnn-quant` pin `matmul_on_grid` against a
//! reference dot product; these tests pin the *whole* inference stack: a
//! LeNet-style conv/pool/dense network under every Table III precision
//! must produce bit-identical logits with native dispatch forced off and
//! forced on, at 1 and 4 worker threads. A trace assertion then confirms
//! the fast path actually runs for the narrow fixed formats (so the
//! equality isn't vacuous), and a weight-mutation test confirms the packed
//! plan cache notices changed bits. One test runs the same check on every
//! paper network of `qnn_nn::zoo` at its full shape.

use qnn_nn::arch::NetworkSpec;
use qnn_nn::{
    set_native, zoo, ActivationCalibration, Mode, Network, QatConfig, Trainer, TrainerConfig,
};
use qnn_quant::{calibrate::Method, Precision};
use qnn_tensor::rng::{derive_seed, seeded};
use qnn_tensor::{par, Shape, Tensor};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Holds this file's test lock and restores the global toggles on drop,
/// also when a test body panics. The tests share the process-global native
/// override, worker count and trace collector, and cargo runs tests in
/// parallel, so each test runs alone.
struct Exclusive {
    _lock: MutexGuard<'static, ()>,
}

fn exclusive() -> Exclusive {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that panicked still restored the toggles in `Drop`, so the
    // lock's `()` is valid after poisoning.
    Exclusive {
        _lock: LOCK.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

impl Drop for Exclusive {
    fn drop(&mut self) {
        set_native(None);
        par::set_threads(None);
    }
}

fn lenet_spec() -> NetworkSpec {
    NetworkSpec::new("lenet-8", (1, 8, 8))
        .conv(6, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .conv(10, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .dense(3)
}

fn batch(n: usize, seed: u64) -> Tensor {
    let mut r = seeded(seed);
    let data: Vec<f32> = (0..n * 64).map(|_| r.gen_range(-1.0f32..1.0)).collect();
    Tensor::from_vec(Shape::d4(n, 1, 8, 8), data).unwrap()
}

/// Forward `x` through a calibrated net twice — native forced off, then
/// forced on — and assert the logits agree bit for bit. Returns the
/// simulated and the native logits.
fn assert_paths_agree(net: &mut Network, x: &Tensor, ctx: &str) -> [Tensor; 2] {
    set_native(Some(false));
    let simulated = net.forward(x, Mode::Eval).unwrap();
    set_native(Some(true));
    let native = net.forward(x, Mode::Eval).unwrap();
    assert_eq!(simulated.shape(), native.shape(), "{ctx}: shape mismatch");
    for (i, (a, b)) in simulated
        .as_slice()
        .iter()
        .zip(native.as_slice().iter())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: logit[{i}] simulated {a} != native {b}"
        );
    }
    [simulated, native]
}

#[test]
fn every_sweep_precision_is_bit_identical_across_paths() {
    let _serial = exclusive();
    for precision in Precision::paper_sweep() {
        for seed in 0..3u64 {
            let mut net = Network::build(&lenet_spec(), derive_seed(0xd15, seed)).unwrap();
            let calib = batch(8, derive_seed(0xca1, seed));
            net.set_precision(
                precision,
                Method::MaxAbs,
                &calib,
                ActivationCalibration::PerLayer,
            )
            .unwrap();
            let x = batch(4, derive_seed(0xe7a, seed));
            for threads in [1usize, 4] {
                par::set_threads(Some(threads));
                assert_paths_agree(&mut net, &x, &format!("{precision} @ {threads}t"));
            }
        }
    }
}

#[test]
fn narrow_fixed_formats_actually_dispatch_native() {
    // Bit equality alone would hold vacuously if the fast path never
    // fired; the trace counters prove it carries real forward MACs.
    let _serial = exclusive();
    par::set_threads(Some(1));
    let mut net = Network::build(&lenet_spec(), 11).unwrap();
    let calib = batch(8, 21);
    net.set_precision(
        Precision::fixed(4, 4),
        Method::MaxAbs,
        &calib,
        ActivationCalibration::PerLayer,
    )
    .unwrap();
    set_native(Some(true));
    qnn_trace::start();
    net.forward(&batch(4, 31), Mode::Eval).unwrap();
    let trace = qnn_trace::stop();
    let native = trace
        .counters
        .get("nn.fwd.flops.native")
        .copied()
        .unwrap_or(0);
    assert!(
        native > 0,
        "fixed(4,4) inference must route MACs through the native kernels, got {:?}",
        trace.counters
    );
}

#[test]
fn fused_output_quantizer_engages_and_matches_separate_pass() {
    // The fused epilogue (bias + output-activation snap inside the kernel
    // tail) must actually engage — `output_quant_applied` reports it — and
    // produce exactly what the unfused route produces: simulated GEMM,
    // bias loop, then a separate whole-tensor quantize.
    use qnn_nn::layers::{Dense, Layer, QuantizerHandle};
    use qnn_quant::{quantize_inplace_par, Fixed};
    use std::sync::Arc;

    let _serial = exclusive();
    par::set_threads(Some(1));
    let f = Fixed::new(8, 6).unwrap();
    let q: QuantizerHandle = Arc::new(f);
    let mut l = Dense::new(16, 8, 42);
    l.set_weight_quantizer(Some(q.clone()));
    l.set_input_quantizer(Some(q.clone()));
    l.set_output_quantizer(Some(q.clone()));
    let mut r = seeded(51);
    let data: Vec<f32> = (0..4 * 16).map(|_| r.gen_range(-0.9f32..0.9)).collect();
    let x = q.quantize(&Tensor::from_vec(Shape::d2(4, 16), data).unwrap());

    set_native(Some(true));
    let fused = l.forward(&x, Mode::Eval).unwrap();
    assert!(
        l.output_quant_applied(),
        "fixed(8,6) dense must fuse the output quantizer"
    );
    set_native(Some(false));
    let mut reference = l.forward(&x, Mode::Eval).unwrap();
    assert!(!l.output_quant_applied());
    quantize_inplace_par(q.as_ref(), &mut reference);
    for (i, (a, b)) in fused
        .as_slice()
        .iter()
        .zip(reference.as_slice().iter())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "out[{i}] fused {a} != ref {b}");
    }
}

#[test]
fn tracing_disables_quant_fusion_but_not_dispatch() {
    // Under an active trace the layers must keep the separate quantize
    // pass (it carries per-pass telemetry) while still running natively.
    let _serial = exclusive();
    par::set_threads(Some(1));
    let mut net = Network::build(&lenet_spec(), 19).unwrap();
    let calib = batch(8, 29);
    net.set_precision(
        Precision::fixed(4, 4),
        Method::MaxAbs,
        &calib,
        ActivationCalibration::PerLayer,
    )
    .unwrap();
    let x = batch(4, 39);
    set_native(Some(true));
    let untraced = net.forward(&x, Mode::Eval).unwrap();
    qnn_trace::start();
    let traced = net.forward(&x, Mode::Eval).unwrap();
    let trace = qnn_trace::stop();
    assert!(trace.counters.get("nn.fwd.flops.native").copied() > Some(0));
    for (a, b) in untraced.as_slice().iter().zip(traced.as_slice().iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "traced forward must not drift");
    }
}

#[test]
fn train_mode_and_cleared_precision_stay_simulated() {
    let _serial = exclusive();
    let mut net = Network::build(&lenet_spec(), 13).unwrap();
    let calib = batch(8, 23);
    net.set_precision(
        Precision::fixed(8, 8),
        Method::MaxAbs,
        &calib,
        ActivationCalibration::PerLayer,
    )
    .unwrap();
    set_native(Some(true));
    // Train-mode forward must never take the native path (backward needs
    // the simulated caches and STE semantics).
    qnn_trace::start();
    net.forward(&batch(2, 33), Mode::Train).unwrap();
    let train_trace = qnn_trace::stop();
    assert_eq!(
        train_trace.counters.get("nn.fwd.flops.native"),
        None,
        "Train mode must not dispatch natively"
    );
    // A cleared network has no quantizers, so Eval stays simulated too.
    net.clear_precision();
    qnn_trace::start();
    net.forward(&batch(2, 33), Mode::Eval).unwrap();
    let clear_trace = qnn_trace::stop();
    assert_eq!(
        clear_trace.counters.get("nn.fwd.flops.native"),
        None,
        "full-precision inference must not dispatch natively"
    );
}

#[test]
fn weight_mutation_invalidates_packed_plans() {
    // After loading different weights the cached packs must be rebuilt —
    // both paths have to agree on the *new* weights, not the packed old
    // ones. (Recalibration is not required for bit-identity: the packers
    // re-verify the quantized weights on-grid either way.)
    let _serial = exclusive();
    par::set_threads(Some(1));
    let mut net = Network::build(&lenet_spec(), 17).unwrap();
    let donor = Network::build(&lenet_spec(), 18).unwrap();
    let calib = batch(8, 27);
    net.set_precision(
        Precision::fixed(4, 4),
        Method::MaxAbs,
        &calib,
        ActivationCalibration::PerLayer,
    )
    .unwrap();
    let x = batch(4, 37);
    assert_paths_agree(&mut net, &x, "before mutation");
    net.load_state(&donor.state_dict()).unwrap();
    assert_paths_agree(&mut net, &x, "after mutation");
}

#[test]
fn every_weight_change_reaches_the_next_native_forward() {
    // A layer keeps its packed plan while it reuses its frozen quantized
    // weights, so each way its weights or quantizers change must reach
    // the next Eval forward: at fixed8 with native on, after each change
    // the native logits (run first) must equal the simulated ones, must
    // differ from the logits before the change, and must carry native
    // MACs, so the plans really were repacked and used.
    use qnn_faults::FaultInjector;
    let _serial = exclusive();
    par::set_threads(Some(1));
    let fixed8 = Precision::fixed(8, 8);
    let calib = batch(8, 0x51);
    let x = batch(4, 0x52);
    let mut net = Network::build(&lenet_spec(), 0x50).unwrap();
    let donor = Network::build(&lenet_spec(), 0x53).unwrap();
    net.set_precision(
        fixed8,
        Method::MaxAbs,
        &calib,
        ActivationCalibration::PerLayer,
    )
    .unwrap();
    set_native(Some(true));
    let mut before = net.forward(&x, Mode::Eval).unwrap();
    for what in [
        "params_mut",
        "inject_weight_faults",
        "load_state",
        "set_precision",
    ] {
        match what {
            "params_mut" => {
                for p in net.params_mut() {
                    for v in p.value.as_mut_slice() {
                        *v = -*v;
                    }
                }
            }
            "inject_weight_faults" => {
                let mut inj = FaultInjector::new(0.05, 0x54).unwrap();
                assert!(net.inject_weight_faults(&mut inj) > 0);
            }
            "load_state" => net.load_state(&donor.state_dict()).unwrap(),
            _ => {
                let calib = batch(8, 0x55).map(|v| 4.0 * v);
                net.set_precision(
                    fixed8,
                    Method::MaxAbs,
                    &calib,
                    ActivationCalibration::PerLayer,
                )
                .unwrap();
            }
        }
        set_native(Some(true));
        qnn_trace::start();
        let native = net.forward(&x, Mode::Eval).unwrap();
        let trace = qnn_trace::stop();
        assert!(
            trace.counters.get("nn.fwd.flops.native").copied() > Some(0),
            "{what}: no native MACs"
        );
        set_native(Some(false));
        let simulated = net.forward(&x, Mode::Eval).unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&native),
            bits(&simulated),
            "{what}: native != simulated"
        );
        assert_ne!(bits(&native), bits(&before), "{what}: logits did not move");
        before = native;
    }
}

/// A batch of `n` images shaped for `spec`, uniform in `[0, 1)`.
fn zoo_batch(spec: &NetworkSpec, n: usize, seed: u64) -> Tensor {
    let (c, h, w) = spec.input();
    let mut r = seeded(seed);
    let data = (0..n * c * h * w)
        .map(|_| r.gen_range(0.0f32..1.0))
        .collect();
    Tensor::from_vec(Shape::d4(n, c, h, w), data).unwrap()
}

/// The committed digests of [`every_zoo_network_is_bit_identical_across_paths`]'s
/// logits, one line per (network, precision, path or `trace`), and of
/// [`lenet_qat_trained_weights_are_pinned`]'s weights (`qat`).
const ZOO_LOGITS: &str = include_str!("zoo_logits.fnv");

/// [`Precision::paper_sweep`]'s rows by their short names, in sweep order.
const SWEEP_NAMES: [&str; 7] = [
    "float32", "fixed32", "fixed16", "fixed8", "fixed4", "pow2", "binary",
];

/// FNV-1a-64 over the little-endian bytes of every value's f32 bits.
fn fnv1a(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The `(cell, digest)` lines of a digest file.
fn cells(text: &str) -> Vec<(&str, &str)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .collect()
}

/// The last word of a cell: the path (`simulated`, `native`), `trace` or
/// `qat`. Each test owns the cells of its kinds.
fn kind(cell: &str) -> &str {
    cell.rsplit(' ').next().unwrap_or(cell)
}

/// The committed file with its cells of `got`'s kinds replaced by `got`,
/// in place of the first of them (or at the end when there were none).
fn digest_file(got: &[(String, u64)]) -> String {
    let ours = |cell: &str| got.iter().any(|(c, _)| kind(c) == kind(cell));
    let got_lines: String = got.iter().map(|(c, d)| format!("{c} {d:016x}\n")).collect();
    let mut text = String::new();
    let mut placed = false;
    for line in ZOO_LOGITS.lines() {
        match line.rsplit_once(' ') {
            Some((cell, _)) if !line.starts_with('#') && ours(cell) => {
                if !placed {
                    text += &got_lines;
                    placed = true;
                }
            }
            _ => text += &format!("{line}\n"),
        }
    }
    if !placed {
        text += &got_lines;
    }
    text
}

/// Panics, naming each cell of `got`'s kinds whose digest moved, appeared
/// or vanished and printing the whole new file, unless those cells equal
/// the committed ones.
fn assert_digests_pinned(got: &[(String, u64)], ctx: &str) {
    let new = digest_file(got);
    if new == ZOO_LOGITS {
        return;
    }
    let (want, new_cells) = (cells(ZOO_LOGITS), cells(&new));
    let mut moved: Vec<String> = new_cells
        .iter()
        .filter(|c| !want.contains(c))
        .map(|(cell, d)| {
            let was = want
                .iter()
                .find(|(w, _)| w == cell)
                .map_or("absent", |w| w.1);
            format!("  {cell}: {was} -> {d}")
        })
        .collect();
    moved.extend(
        want.iter()
            .filter(|(w, _)| !new_cells.iter().any(|(g, _)| g == w))
            .map(|(cell, d)| format!("  {cell}: {d} -> absent")),
    );
    panic!(
        "{ctx}: digests moved from crates/nn/tests/zoo_logits.fnv in {} cells:\n{}\n\
         new file:\n{new}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn every_zoo_network_is_bit_identical_across_paths() {
    // The paper's own networks at their Table I/II shapes — LeNet,
    // ConvNet, ALEX, ALEX+ and ALEX++ — under every Table III precision:
    // logits with native dispatch off and on must agree bit for bit at 1
    // and 4 threads, and the narrow fixed formats must actually carry
    // native MACs on every network. The logits' digests must then equal
    // the committed `zoo_logits.fnv` at both thread counts, which pins the
    // f32 reference itself across commits: a change both paths share
    // passes the comparison above but moves a digest.
    let _serial = exclusive();
    let mut digests: [Vec<(String, u64)>; 2] = Default::default();
    let nets = [
        zoo::lenet(),
        zoo::convnet(),
        zoo::alex(),
        zoo::alex_plus(),
        zoo::alex_plus_plus(),
    ];
    for (ni, spec) in nets.iter().enumerate() {
        let calib = zoo_batch(spec, 4, derive_seed(0x200c, ni as u64));
        let x = zoo_batch(spec, 2, derive_seed(0x200e, ni as u64));
        for (precision, name) in Precision::paper_sweep().into_iter().zip(SWEEP_NAMES) {
            let mut net = Network::build(spec, derive_seed(0x2001, ni as u64)).unwrap();
            net.set_precision(
                precision,
                Method::MaxAbs,
                &calib,
                ActivationCalibration::PerLayer,
            )
            .unwrap();
            for (threads, cells) in [1usize, 4].into_iter().zip(&mut digests) {
                par::set_threads(Some(threads));
                let ctx = format!("{} {precision} @ {threads}t", spec.name());
                let logits = assert_paths_agree(&mut net, &x, &ctx);
                for (path, y) in ["simulated", "native"].into_iter().zip(&logits) {
                    let cell = format!("{} {name} {path}", spec.name());
                    cells.push((cell, fnv1a(y.as_slice())));
                }
                // `forward_trace`, the capture calibration and repobench's
                // per-layer replay read, at the default dispatch.
                set_native(None);
                let trace = net.forward_trace(&x).unwrap();
                let last = trace.last().expect("a traced forward has an output");
                cells.push((
                    format!("{} {name} trace", spec.name()),
                    fnv1a(last.as_slice()),
                ));
            }
            set_native(Some(true));
            qnn_trace::start();
            net.forward(&x, Mode::Eval).unwrap();
            let trace = qnn_trace::stop();
            let count = |name: &str| trace.counters.get(name).copied().unwrap_or(0);
            let ctx = format!("{} {precision}", spec.name());
            // Every conv image the native route declined, by reason.
            let declined: Vec<(&String, &u64)> = trace
                .counters
                .iter()
                .filter(|(name, _)| name.starts_with("nn.fwd.fallback.conv2d."))
                .collect();
            // One conv forward per conv layer, each over every image.
            let conv_images = count("tensor.conv.fwd.calls") * x.shape().dim(0) as u64;
            if precision == Precision::fixed(8, 8) || precision == Precision::fixed(4, 4) {
                assert!(count("nn.fwd.flops.native") > 0, "{ctx}: no native MACs");
                assert!(declined.is_empty(), "{ctx}: declined {declined:?}");
                // Where tiles run, every conv image ran on them.
                if qnn_tensor::qgemm::tile_build() == "amx" {
                    assert_eq!(count("tensor.qgemm.tile_calls"), conv_images, "{ctx}");
                }
            }
            // On the other quantized rows every conv image declines, under
            // exactly one reason: 32-bit activations as `not_fixed`, weights
            // with no plan (binary, and pow2 whose exponent span exceeds an
            // i16 raw) as `unpackable`, 16-bit activations against packed
            // weights as `cert_failed`. float32 has no activation quantizer
            // and counts nothing.
            let total: u64 = declined.iter().map(|(_, &n)| n).sum();
            let reason = |r: &str| count(&format!("nn.fwd.fallback.conv2d.{r}"));
            match name {
                "float32" => assert!(declined.is_empty(), "{ctx}: {declined:?}"),
                "fixed32" | "fixed16" | "pow2" | "binary" => {
                    assert_eq!(total, conv_images, "{ctx}: {declined:?}")
                }
                _ => {}
            }
            let sole = match name {
                "fixed32" => Some("not_fixed"),
                "fixed16" => Some("cert_failed"),
                "binary" => Some("unpackable"),
                _ => None,
            };
            if let Some(r) = sole {
                assert_eq!(reason(r), conv_images, "{ctx}: {declined:?}");
            }
            // The f32 conv's lanes route skips the all-zero steps ReLU
            // leaves in ConvNet's and ALEX's later convs, so the digests
            // below pin logits that went through skipped steps.
            let avx512 = qnn_tensor::gemm::simd_build() == "avx512";
            if name == "float32" && matches!(spec.name(), "convnet" | "alex") && avx512 {
                assert!(count("tensor.conv.fwd.macs_skipped") > 0, "{ctx}");
            }
            // On every row that runs the f32 conv, each ConvNet and ALEX
            // conv takes the lanes route on the tile its output channels
            // pick: ConvNet conv1 (16) 16 × 16 and conv2 (512) 2 × 128,
            // ALEX conv1 and conv2 (32) 8 × 32 and conv3 (64) 4 × 64.
            let f32_conv = matches!(name, "float32" | "fixed32" | "fixed16" | "pow2" | "binary");
            let want: &[(&str, u64)] = match spec.name() {
                "convnet" => &[("16x16", 1), ("2x128", 1)],
                "alex" => &[("4x64", 1), ("8x32", 2)],
                _ => &[],
            };
            if f32_conv && avx512 && !want.is_empty() {
                let tiles: Vec<(&str, u64)> = trace
                    .counters
                    .iter()
                    .filter_map(|(c, &n)| {
                        Some((c.strip_prefix("tensor.conv.fwd.route.lanes.")?, n))
                    })
                    .collect();
                let lanes = |t: &[(&str, u64)]| t.iter().map(|(_, n)| n).sum::<u64>();
                let routes = (lanes(&tiles), count("tensor.conv.fwd.route.panels"));
                assert_eq!(routes, (lanes(want), 0), "{ctx}: (lanes, panels) calls");
                assert_eq!(tiles, want, "{ctx}: lanes calls per tile");
            }
        }
    }
    for (threads, cells) in [1usize, 4].into_iter().zip(&digests) {
        assert_digests_pinned(cells, &format!("{threads}t"));
    }
}

/// FNV-1a-64 over the bits of every parameter, in `params` order.
fn weight_digest(net: &Network) -> u64 {
    let values: Vec<f32> = net
        .params()
        .iter()
        .flat_map(|p| p.value.as_slice().iter().copied())
        .collect();
    fnv1a(&values)
}

#[test]
fn lenet_qat_trained_weights_are_pinned() {
    // A short QAT fine-tune of the full-size LeNet under every Table III
    // precision: its Train forwards run the f32 conv route and its
    // backward the transposed one, so the trained weights pin both. They
    // must be identical at 1 and 4 threads and equal the committed
    // `qat` cells of `zoo_logits.fnv`.
    let _serial = exclusive();
    let spec = zoo::lenet();
    let images = zoo_batch(&spec, 16, 0x9A7);
    let mut r = seeded(0x1AB);
    let labels: Vec<usize> = (0..16).map(|_| r.gen_range(0usize..10)).collect();
    let trainer = Trainer::new(TrainerConfig {
        epochs: 1,
        batch_size: 8,
        seed: 0x5ED,
        ..TrainerConfig::default()
    })
    .unwrap();
    let mut digests: [Vec<(String, u64)>; 2] = Default::default();
    for (precision, name) in Precision::paper_sweep().into_iter().zip(SWEEP_NAMES) {
        for (threads, cells) in [1usize, 4].into_iter().zip(&mut digests) {
            par::set_threads(Some(threads));
            let mut net = Network::build(&spec, 0x2017).unwrap();
            let qat = QatConfig::new(precision);
            let report = trainer
                .train_qat(&mut net, &qat, &images, &labels, 4)
                .unwrap();
            assert!(
                report.epoch_losses.iter().all(|l| l.is_finite()),
                "{name} @ {threads}t: {:?}",
                report.epoch_losses
            );
            cells.push((format!("lenet {name} qat"), weight_digest(&net)));
        }
    }
    assert_eq!(
        digests[0], digests[1],
        "trained weights differ at 1 and 4 threads"
    );
    assert_digests_pinned(&digests[0], "qat");
}
