//! The trace of a workload that runs every parallel region of the compute
//! core must not depend on the worker count: the same span events in the
//! same order, the same counter totals and the same histograms, beside
//! bit-identical outputs.
//!
//! This file holds one test on purpose. The trace collector is
//! process-global and records every thread's events, so the test needs a
//! process of its own.

use qnn_nn::arch::NetworkSpec;
use qnn_nn::loss::softmax_cross_entropy;
use qnn_nn::{set_native, ActivationCalibration, Mode, Network};
use qnn_quant::{calibrate::Method, quantize_inplace_par, Fixed, Precision};
use qnn_tensor::conv::{conv2d, conv2d_backward, Geometry};
use qnn_tensor::{par, rng, Shape, Tensor};

fn random(shape: Shape, seed: u64) -> Tensor {
    let mut r = rng::seeded(seed);
    let n = shape.len();
    Tensor::from_vec(shape, (0..n).map(|_| r.gen_range(-1.0f32..1.0)).collect()).unwrap()
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

/// Appends the bit pattern of every element of `t` to `bits`.
fn push_bits(bits: &mut Vec<u32>, t: &Tensor) {
    bits.extend(t.as_slice().iter().map(|v| v.to_bits()));
}

/// Runs the workload at `threads` workers under a trace session and
/// returns the trace and the bits of every output. Each part exercises one
/// fan-out: the GEMM's row panels, the conv forward's images, the conv
/// backward's gradient blocks (9 images: blocks of 4, 4 and 1), a
/// fake-quantize pass, `par::map` with a span per unit, a fixed8 network's
/// native Eval forward and a Train forward and backward.
fn traced_workload(threads: usize) -> (qnn_trace::Trace, Vec<u32>) {
    par::set_threads(Some(threads));
    set_native(Some(true));
    let mut net = Network::build(&lenet_spec(), 6).unwrap();
    net.set_precision(
        Precision::fixed(8, 4),
        Method::MaxAbs,
        &random(Shape::d4(8, 1, 8, 8), 7),
        ActivationCalibration::PerLayer,
    )
    .unwrap();
    let mut bits = Vec::new();
    qnn_trace::start();
    {
        qnn_trace::span!("workload");
        let a = random(Shape::d2(48, 64), 1);
        let b = random(Shape::d2(64, 32), 2);
        push_bits(&mut bits, &a.matmul(&b).unwrap());
        let x = random(Shape::d4(2, 3, 12, 12), 3);
        let w = random(Shape::d4(4, 3, 3, 3), 4);
        let bias = Tensor::zeros(Shape::d1(4));
        push_bits(
            &mut bits,
            &conv2d(&x, &w, &bias, Geometry::square(3, 1, 0)).unwrap(),
        );
        let x9 = random(Shape::d4(9, 3, 12, 12), 8);
        let g9 = random(Shape::d4(9, 4, 10, 10), 9);
        let (gx, gw, gb) = conv2d_backward(&x9, &w, &g9, Geometry::square(3, 1, 0)).unwrap();
        for t in [&gx, &gw, &gb] {
            push_bits(&mut bits, t);
        }
        let q = Fixed::new(8, 4).unwrap();
        let mut big = random(Shape::d1(1 << 14), 5);
        quantize_inplace_par(&q, &mut big);
        push_bits(&mut bits, &big);
        let units = par::map(7, |i| {
            qnn_trace::span!("unit:{}", i);
            qnn_trace::counter!("test.units", 1);
            (i as f32).sqrt().to_bits()
        });
        bits.extend(units);
        let images = random(Shape::d4(6, 1, 8, 8), 10);
        push_bits(&mut bits, &net.forward(&images, Mode::Eval).unwrap());
        let logits = net.forward(&images, Mode::Train).unwrap();
        let loss = softmax_cross_entropy(&logits, &[0, 1, 2, 0, 1, 2]).unwrap();
        net.backward(&loss.grad).unwrap();
        push_bits(&mut bits, &logits);
        for p in net.params() {
            push_bits(&mut bits, &p.grad);
        }
    }
    let trace = qnn_trace::stop();
    par::set_threads(None);
    set_native(None);
    (trace, bits)
}

#[test]
fn trace_is_identical_at_one_to_four_threads() {
    let (t1, bits1) = traced_workload(1);
    for threads in 2..=4 {
        let (t, bits) = traced_workload(threads);
        // Same outputs, same span event sequence, same counter totals, same
        // histogram shapes — the worker count must be unobservable.
        assert!(bits1 == bits, "output bits at {threads} threads");
        assert!(
            t1.signature() == t.signature(),
            "span stream at {threads} threads"
        );
        assert_eq!(t1.counters, t.counters, "counters at {threads} threads");
        assert_eq!(
            t1.hists.keys().collect::<Vec<_>>(),
            t.hists.keys().collect::<Vec<_>>(),
            "histograms at {threads} threads"
        );
    }
    assert!(t1.counters["tensor.gemm.calls"] >= 1);
    assert!(t1.counters["tensor.conv.fwd.calls"] >= 1);
    assert!(t1.counters.contains_key("tensor.conv.fwd.macs"));
    assert!(t1.hists.keys().any(|k| k.starts_with("quant.abs_err/")));
    assert!(t1.counters["tensor.conv.bwd.calls"] >= 2);
    assert_eq!(t1.counters["test.units"], 7);
    assert!(t1.counters["nn.fwd.flops.native"] > 0);
    let units: Vec<_> = t1
        .signature()
        .into_iter()
        .filter(|e| e.starts_with("+unit:"))
        .collect();
    assert_eq!(
        units,
        (0..7).map(|i| format!("+unit:{i}")).collect::<Vec<_>>()
    );
}
