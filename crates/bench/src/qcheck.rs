//! `qkernels` — release-binary self-check of the native quantized kernels.
//!
//! Runs a LeNet-style 8×8 conv/pool/dense network, then the paper's own
//! networks (`qnn_nn::zoo`: LeNet, ConvNet, ALEX, ALEX+ and ALEX++ at
//! batch 2), under every Table III precision with native dispatch forced
//! off and forced on, and demands **bit-identical** logits, at 1 and 4
//! worker threads. This is the same invariant the `qnn-nn` integration
//! tests pin, packaged as a subcommand so CI (and any user) can verify the
//! fast path on the *installed* release binary and CPU — the dispatch is
//! feature-detected at runtime, so the test suite's machine proves nothing
//! about the deployment host. At fixed8 and fixed4 the native route is an
//! integer oracle that never touches the f32 GEMM, so on the zoo networks
//! this also checks the f32 conv tile, zero-step skip included.
//!
//! The check also reports what fraction of forward MAC flops actually took
//! the native path (from the `nn.fwd.flops.*` trace counters) and fails if
//! a precision with a packable format never dispatched natively: bitwise
//! equality alone would hold vacuously if the fast path never fired.

use qnn_nn::arch::NetworkSpec;
use qnn_nn::{set_native, zoo, ActivationCalibration, Mode, Network};
use qnn_quant::{calibrate::Method, Precision, Scheme};
use qnn_tensor::rng::{derive_seed, seeded};
use qnn_tensor::{par, Shape, Tensor};

/// Precisions whose Eval inference is expected to route at least some MACs
/// through the native kernels on a certified LeNet-scale network. Narrow
/// fixed formats always certify; the other packable schemes depend on
/// calibration outcomes (a binary scale must land on a power of two, a
/// pow2 exponent span must fit the certificate), so they are reported but
/// not required.
fn expects_native(p: &Precision) -> bool {
    matches!(p.weights(), Scheme::Fixed { bits } if bits <= 8)
        && matches!(p.activations(), Scheme::Fixed { bits } if bits <= 8)
}

fn spec() -> NetworkSpec {
    NetworkSpec::new("qcheck-lenet-8", (1, 8, 8))
        .conv(6, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .conv(10, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .dense(3)
}

/// `n` images shaped for `spec`, uniform in `[-1, 1)`.
fn batch(spec: &NetworkSpec, n: usize, seed: u64) -> Tensor {
    let (c, h, w) = spec.input();
    let mut r = seeded(seed);
    let data: Vec<f32> = (0..n * c * h * w)
        .map(|_| r.gen_range(-1.0f32..1.0))
        .collect();
    Tensor::from_vec(Shape::d4(n, c, h, w), data).unwrap()
}

/// Forwards `x` through `net` twice — native off, then on — returning the
/// bit-mismatch count and the (native, simulated) MAC flop counters of the
/// native-enabled pass.
fn compare_paths(net: &mut Network, x: &Tensor) -> (usize, u64, u64) {
    set_native(Some(false));
    let simulated = net.forward(x, Mode::Eval).unwrap();
    set_native(Some(true));
    qnn_trace::start();
    let native = net.forward(x, Mode::Eval).unwrap();
    let trace = qnn_trace::stop();
    let mismatches = simulated
        .as_slice()
        .iter()
        .zip(native.as_slice().iter())
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    let nat = trace
        .counters
        .get("nn.fwd.flops.native")
        .copied()
        .unwrap_or(0);
    let sim = trace
        .counters
        .get("nn.fwd.flops.simulated")
        .copied()
        .unwrap_or(0);
    (mismatches, nat, sim)
}

/// Runs the self-check; returns `true` when every precision passed. With
/// `quick`, one seed instead of three on the 8×8 net (the thread sweep is
/// kept — the parallel partition is the part a host difference could
/// break); the zoo networks run one seed either way.
pub fn run(quick: bool) -> bool {
    let seeds = if quick { 1u64 } else { 3 };
    println!("qkernels: native-vs-simulated bit-identity on a LeNet-style conv/pool/dense net");
    let mut ok = check(&spec(), 0..seeds, (8, 4));
    println!("qkernels: the same on the paper's networks at batch 2");
    let nets = [
        zoo::lenet(),
        zoo::convnet(),
        zoo::alex(),
        zoo::alex_plus(),
        zoo::alex_plus_plus(),
    ];
    for (ni, net) in nets.iter().enumerate() {
        println!(" {}", net.name());
        let seed = 1000 * (ni as u64 + 1);
        ok &= check(net, seed..seed + 1, (4, 2));
    }
    if ok {
        println!("qkernels: all precisions bit-identical across paths");
    } else {
        println!("qkernels: FAILED");
    }
    ok
}

/// Checks every Table III precision on `spec` over `seeds`, each a
/// network calibrated on `calib` images and run on `n` (`(calib, n)`),
/// printing one line per precision; returns `true` when all passed.
fn check(spec: &NetworkSpec, seeds: std::ops::Range<u64>, (calib, n): (usize, usize)) -> bool {
    let mut ok = true;
    for precision in Precision::paper_sweep() {
        let mut mismatches = 0usize;
        let mut nat_total = 0u64;
        let mut sim_total = 0u64;
        for seed in seeds.clone() {
            let mut net = Network::build(spec, derive_seed(0x9c, seed)).unwrap();
            net.set_precision(
                precision,
                Method::MaxAbs,
                &batch(spec, calib, derive_seed(0xca, seed)),
                ActivationCalibration::PerLayer,
            )
            .unwrap();
            let x = batch(spec, n, derive_seed(0xba, seed));
            for threads in [1usize, 4] {
                par::set_threads(Some(threads));
                let (m, nat, sim) = compare_paths(&mut net, &x);
                mismatches += m;
                nat_total += nat;
                sim_total += sim;
            }
        }
        set_native(None);
        par::set_threads(None);
        let total = nat_total + sim_total;
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * nat_total as f64 / total as f64
        };
        let vacuous = expects_native(&precision) && nat_total == 0;
        let verdict = if mismatches > 0 {
            "MISMATCH"
        } else if vacuous {
            "NEVER-DISPATCHED"
        } else {
            "ok"
        };
        ok &= mismatches == 0 && !vacuous;
        let label = precision.label();
        println!("  {label:<22} {verdict:<16} native MACs {pct:5.1}% ({nat_total}/{total})");
        if mismatches > 0 {
            println!("    {mismatches} logit(s) differ between simulated and native paths");
        }
    }
    ok
}
