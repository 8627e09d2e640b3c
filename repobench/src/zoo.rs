//! The paper-network workloads.
//!
//! * `zoo-infer`: LeNet, ConvNet and ALEX at their Table I shapes, each
//!   calibrated under the seven Table III precisions, run as Eval forwards
//!   over a batch of their own `qnn-data` set. Every timed forward is
//!   checked bit for bit against a simulated-path reference made at set-up.
//! * `zoo-qat`: LeNet QAT fine-tunes (`Trainer::train_qat`, then
//!   `Trainer::evaluate` on held-out images) under the same seven
//!   precisions.
//!
//! The traced run of either also replays every layer through the public
//! `qnn-tensor`/`qnn-quant` calls on operands captured with
//! `Network::forward_trace`, which yields the `tensor.*` and `quant.*`
//! layer metrics and the per-layer native-dispatch table.

use std::time::{Duration, Instant};

use qnn_accel::AcceleratorDesign;
use qnn_data::{Dataset, DatasetKind};
use qnn_nn::arch::{LayerSpec, NetworkSpec};
use qnn_nn::{zoo, ActivationCalibration, Mode, Network, QatConfig, Trainer, TrainerConfig};
use qnn_quant::calibrate::{self, Method};
use qnn_quant::packed::{matmul_on_grid_fused, Epilogue, PackedWeights};
use qnn_quant::{quantize_inplace_par, Precision, Quantizer, Scheme};
use qnn_tensor::conv::{im2col_into, Geometry};
use qnn_tensor::gemm::{gemm_nn, gemm_nt};
use qnn_tensor::pool::{avg_pool2d, max_pool2d};
use qnn_tensor::rng::{derive_seed, seeded};
use qnn_tensor::{Shape, Tensor};

use crate::host::Control;
use crate::profile::{self, Totals};
use crate::report::{Outcome, Values, PRECISION_SLUGS};
use crate::stats;

/// Weight seed of every network: the model is fixed and only the inputs
/// come from `--seed`, so the native-dispatch route (which depends on
/// weight magnitudes through the exactness certificate) is the same for
/// every seed.
const MODEL_SEED: u64 = 0x2017;

/// Calibration images per network (`set_precision`, and `train_qat`'s
/// `calib` argument).
const CALIB: usize = 16;

/// Mini-batch of the QAT fine-tunes.
const QAT_BATCH: usize = 32;

/// How much work one run of a workload does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// How many of LeNet, ConvNet and ALEX (in that order) `zoo-infer` runs.
    pub nets: usize,
    /// Images per `zoo-infer` forward.
    pub batch: usize,
    /// Training images per `zoo-qat` fine-tune (one epoch).
    pub qat_train: usize,
    /// Held-out images each fine-tune is evaluated on.
    pub qat_eval: usize,
}

/// The measured workloads.
pub const FULL: Scale = Scale {
    nets: 3,
    batch: 64,
    qat_train: 128,
    qat_eval: 128,
};

/// The short runs that fill in layer metrics a traced workload does not
/// exercise itself.
pub const SLICE: Scale = Scale {
    nets: 1,
    batch: 64,
    qat_train: 64,
    qat_eval: 64,
};

fn cases(n: usize) -> Vec<(NetworkSpec, DatasetKind)> {
    let mut v = vec![
        (zoo::lenet(), DatasetKind::Glyphs28),
        (zoo::convnet(), DatasetKind::HouseDigits32),
        (zoo::alex(), DatasetKind::TexturedObjects32),
    ];
    v.truncate(n);
    v
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Images `from..from + n` of an `(N, C, H, W)` tensor.
fn images(t: &Tensor, from: usize, n: usize) -> Tensor {
    let d = t.shape().dims();
    let per = d[1] * d[2] * d[3];
    Tensor::from_vec(
        Shape::d4(n, d[1], d[2], d[3]),
        t.as_slice()[from * per..(from + n) * per].to_vec(),
    )
    .expect("slice of a 4-d batch")
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn timed<R>(acc: &mut u128, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_nanos();
    r
}

/// One (network, precision) row of `zoo-infer`.
struct Row {
    spec: NetworkSpec,
    prec: usize,
    precision: Precision,
    net: Network,
    batch: Tensor,
    calib: Tensor,
    reference: Tensor,
}

/// Builds, calibrates, references and warms every row.
fn build_rows(scale: Scale, seed: u64) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (ci, (spec, kind)) in cases(scale.nets).into_iter().enumerate() {
        let data = Dataset::generate(kind, scale.batch + CALIB, derive_seed(seed, ci as u64));
        let batch = images(data.images(), 0, scale.batch);
        let calib = images(data.images(), scale.batch, CALIB);
        let warm = images(data.images(), 0, scale.batch.min(2));
        for (prec, precision) in Precision::paper_sweep().into_iter().enumerate() {
            let mut net = Network::build(&spec, MODEL_SEED).map_err(err)?;
            net.set_precision(
                precision,
                Method::MaxAbs,
                &calib,
                ActivationCalibration::PerLayer,
            )
            .map_err(err)?;
            qnn_nn::set_native(Some(false));
            let reference = net.forward(&batch, Mode::Eval);
            qnn_nn::set_native(None);
            let reference = reference.map_err(err)?;
            // A short native forward fills the packed-weight plan caches.
            net.forward(&warm, Mode::Eval).map_err(err)?;
            rows.push(Row {
                spec: spec.clone(),
                prec,
                precision,
                net,
                batch: batch.clone(),
                calib: calib.clone(),
                reference,
            });
        }
    }
    Ok(rows)
}

/// Runs the rows' forwards in seeded shuffled rounds until `budget` has
/// passed and every row has run at least once; returns each row's forward
/// times, rescaled to the nominal host speed ([`host::Control`]). With
/// `totals`, every forward is traced into its precision's entry.
fn forward_rounds(
    rows: &mut [Row],
    seed: u64,
    budget: Duration,
    mut totals: Option<&mut [Totals]>,
    out: &mut Outcome,
) -> Result<Vec<Vec<f64>>, String> {
    let mut rng = seeded(derive_seed(seed, 0x0DE5));
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mut samples = vec![Vec::new(); rows.len()];
    let mut ctl = Control::default();
    let start = Instant::now();
    'rounds: loop {
        rng.shuffle(&mut order);
        for &i in &order {
            if start.elapsed() >= budget && samples.iter().all(|s: &Vec<f64>| !s.is_empty()) {
                break 'rounds;
            }
            let row = &mut rows[i];
            if totals.is_some() {
                qnn_trace::start();
            }
            let (y, dt) = ctl.measure(|| row.net.forward(&row.batch, Mode::Eval));
            if let Some(t) = totals.as_deref_mut() {
                t[row.prec].add(&qnn_trace::stop());
            }
            out.record(same_bits(&y.map_err(err)?, &row.reference));
            samples[i].push(dt);
        }
    }
    ctl.report("forwards");
    Ok(samples)
}

/// `img_per_s` and the per-precision `img_per_s.*` from each row's median
/// operation time: `img_per_s` is the images of one pass over all rows
/// divided by the sum of the rows' medians, `img_per_s.<precision>` the
/// same over that precision's rows.
fn throughput(precs: &[usize], samples: &[Vec<f64>], images_per_op: usize, values: &mut Values) {
    let med: Vec<f64> = samples.iter().map(|s| stats::median(s)).collect();
    let ips = |rows: &[usize]| {
        rows.len() as f64 * images_per_op as f64 / rows.iter().map(|&r| med[r]).sum::<f64>()
    };
    let all: Vec<usize> = (0..med.len()).collect();
    values.insert("img_per_s".into(), ips(&all));
    for (p, slug) in PRECISION_SLUGS.iter().enumerate() {
        let rows: Vec<usize> = all.iter().copied().filter(|&r| precs[r] == p).collect();
        if !rows.is_empty() {
            values.insert(format!("img_per_s.{slug}"), ips(&rows));
        }
    }
}

/// `latency_p50_ms` and `latency_p99_ms` over the images of one pass over
/// all rows, each row at its median operation time: every image of an
/// operation waits for the whole operation.
fn latency(samples: &[Vec<f64>], images_per_op: usize, values: &mut Values) {
    let mut lat: Vec<f64> = samples
        .iter()
        .flat_map(|s| std::iter::repeat_n(stats::median(s) * 1e3, images_per_op))
        .collect();
    lat.sort_by(f64::total_cmp);
    let (p50, tail) = (stats::nearest_rank(&lat, 0.5), stats::tail(&lat, 0.99));
    values.insert("latency_p50_ms".into(), p50);
    values.insert("latency_p99_ms".into(), tail.value);
    println!(
        "latency: {} images of {} rows ({} operations timed); p50 {p50:.3} ms, p{:.2} {:.3} ms \
         with {} images beyond",
        lat.len(),
        samples.len(),
        samples.iter().map(Vec::len).sum::<usize>(),
        tail.q * 100.0,
        tail.value,
        tail.beyond
    );
}

fn overall_ips(precs: &[usize], samples: &[Vec<f64>], images_per_op: usize) -> f64 {
    let mut v = Values::new();
    throughput(precs, samples, images_per_op, &mut v);
    v["img_per_s"]
}

/// Prints each row's measured CPU time beside the accelerator model's
/// energy and cycles per image (the CPU analogue of the paper's Fig. 3).
fn print_rows(rows: &[Row], samples: &[Vec<f64>]) -> Result<(), String> {
    println!("row (network, precision): CPU us/img (median forward, samples) | accelerator model uJ/img, cycles/img");
    for (row, s) in rows.iter().zip(samples) {
        let work = row.spec.workload().map_err(err)?;
        let e = AcceleratorDesign::new(row.precision).energy_per_image(&work);
        println!(
            "  {:<8} {:<8} {:>10.1} us/img ({} samples) | {:>9.3} uJ/img {:>10} cycles/img",
            row.spec.name(),
            PRECISION_SLUGS[row.prec],
            stats::median(s) * 1e6 / row.batch.shape().dim(0) as f64,
            s.len(),
            e.total_uj(),
            e.cycles.total()
        );
    }
    Ok(())
}

/// Runs `setup` `setups` times between control probes; returns the last
/// result and the median rescaled set-up time.
fn repeated_setup<R>(
    setups: usize,
    mut setup: impl FnMut(Option<R>) -> Result<R, String>,
) -> Result<(R, f64), String> {
    let mut ctl = Control::default();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..setups.max(1) {
        let (r, dt) = ctl.measure(|| setup(last.take()));
        last = Some(r?);
        times.push(dt);
    }
    ctl.report("set-ups");
    println!("setup: {times:?} s");
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

/// The untraced `zoo-infer` run: `setups` full set-ups (the last one is
/// timed against), then `seconds` of forwards.
pub fn infer(scale: Scale, seed: u64, seconds: f64, setups: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut rows, setup_s) = repeated_setup(setups, |earlier: Option<Vec<Row>>| {
        let earlier: Vec<Tensor> = earlier.into_iter().flatten().map(|r| r.reference).collect();
        let rows = build_rows(scale, seed)?;
        // A repeated set-up must reproduce the same references.
        for (a, b) in earlier.iter().zip(&rows) {
            out.record(same_bits(a, &b.reference));
        }
        Ok(rows)
    })?;
    let samples = forward_rounds(
        &mut rows,
        seed,
        Duration::from_secs_f64(seconds),
        None,
        &mut out,
    )?;
    print_rows(&rows, &samples)?;
    let precs: Vec<usize> = rows.iter().map(|r| r.prec).collect();
    throughput(&precs, &samples, scale.batch, &mut out.values);
    latency(&samples, scale.batch, &mut out.values);
    out.values.insert("setup_s".into(), setup_s);
    Ok(out)
}

/// The traced `zoo-infer` run: untraced then traced forwards (half of
/// `seconds` each, for `trace.overhead_pct`), then the layer replay.
pub fn infer_profile(
    scale: Scale,
    seed: u64,
    seconds: f64,
    overhead: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rows = build_rows(scale, seed)?;
    let precs: Vec<usize> = rows.iter().map(|r| r.prec).collect();
    let half = Duration::from_secs_f64(seconds / 2.0);
    let untraced = if overhead {
        Some(forward_rounds(&mut rows, seed, half, None, &mut out)?)
    } else {
        None
    };
    let mut per_prec = vec![Totals::default(); PRECISION_SLUGS.len()];
    let traced = forward_rounds(&mut rows, seed, half, Some(&mut per_prec), &mut out)?;
    if let Some(u) = untraced {
        let (u, t) = (
            overall_ips(&precs, &u, scale.batch),
            overall_ips(&precs, &traced, scale.batch),
        );
        println!("trace overhead: untraced {u:.1} img/s, traced {t:.1} img/s");
        out.values
            .insert("trace.overhead_pct".into(), (u / t - 1.0) * 100.0);
    }
    compute_layer_metrics(&per_prec, &mut out.values);

    let mut replay = Replay::default();
    let mut base: Option<(String, Network)> = None;
    for row in &mut rows {
        if base.as_ref().map(|(n, _)| n.as_str()) != Some(row.spec.name()) {
            base = Some((
                row.spec.name().to_string(),
                Network::build(&row.spec, MODEL_SEED).map_err(err)?,
            ));
        }
        let base_net = &mut base.as_mut().expect("set above").1;
        replay.row(
            &row.spec,
            row.prec,
            row.precision,
            &mut row.net,
            base_net,
            &row.calib,
            &row.batch,
        )?;
    }
    replay.finish(&cases(scale.nets), scale.batch, &mut out.values)?;
    Ok(out)
}

/// `nn.fwd.*` and `nn.native_mac_share.*` from per-precision traces.
fn compute_layer_metrics(per_prec: &[Totals], values: &mut Values) {
    let mut all = Totals::default();
    for (p, t) in per_prec.iter().enumerate() {
        values.insert(
            format!("nn.native_mac_share.{}", PRECISION_SLUGS[p]),
            t.native_share(),
        );
        all.merge(t);
    }
    profile::forward_layer_metrics(&all, values);
    println!(
        "note: tracing turns off the fused kernel epilogue (crates/nn/src/layers/dense.rs:126, \
         conv.rs:158), so traced nn.fwd.* times come from the unfused path"
    );
}

/// Accumulated outside timings of the public layer calls.
#[derive(Default)]
struct Replay {
    im2col_ns: u128,
    gemm_ns: u128,
    gemm_flops: f64,
    pool_ns: u128,
    quant_ns: u128,
    native_ns: u128,
    pack_ns: u128,
    packed_rows: usize,
    images: usize,
    layers: usize,
    layers_matched: usize,
}

type BoxedQuantizer = Box<dyn Quantizer + Send + Sync>;

impl Replay {
    /// Replays every layer of one (network, precision) row on operands
    /// captured from `net`, the way the network's Eval forward runs them
    /// with tracing off: im2col, then `matmul_on_grid_fused` where the
    /// activations have a codec and the weights pack, else the f32 GEMM
    /// plus bias, then the separate activation-quantize pass unless the
    /// fused epilogue already applied it. Prints which weighted layers
    /// dispatched to the native kernels.
    ///
    /// The quantizers are re-derived through `qnn_quant::calibrate` from
    /// `base` (the unquantized network `net` was calibrated from) and
    /// `calib`, exactly as `set_precision` derives them; each replayed
    /// layer output is compared bit for bit with the captured one.
    #[allow(clippy::too_many_arguments)]
    fn row(
        &mut self,
        spec: &NetworkSpec,
        prec: usize,
        precision: Precision,
        net: &mut Network,
        base: &mut Network,
        calib: &Tensor,
        batch: &Tensor,
    ) -> Result<(), String> {
        let calib_trace = base.forward_trace(calib).map_err(err)?;
        let act_q: Vec<Option<BoxedQuantizer>> = calib_trace
            .iter()
            .map(|t| match precision.activations() {
                Scheme::Float32 => Ok(None),
                s => calibrate::scheme_for(s, &[t], Method::MaxAbs).map(Some),
            })
            .collect::<Result<_, _>>()
            .map_err(err)?;
        let base_params: Vec<Tensor> = base.params().iter().map(|p| p.value.clone()).collect();
        let params: Vec<Tensor> = net.params().iter().map(|p| p.value.clone()).collect();
        let captured = net.forward_trace(batch).map_err(err)?;
        let n = batch.shape().dim(0);
        self.images += n;

        let mut x0 = batch.clone();
        if let Some(q) = &act_q[0] {
            timed(&mut self.quant_ns, || {
                quantize_inplace_par(q.as_ref(), &mut x0)
            });
        }
        self.check(&x0, &captured[0]);

        let mut packed = false;
        let mut weighted = 0usize;
        let mut dispatch = Vec::new();
        for s in spec.summaries().map_err(err)? {
            let i = s.index;
            let input = &captured[i];
            let out_q = act_q[i + 1].as_deref();
            let (out, fused) = match s.spec {
                LayerSpec::Conv {
                    out_channels,
                    kernel,
                    stride,
                    pad,
                } => {
                    let w = WeightedLayer::new(
                        precision,
                        &base_params[2 * weighted],
                        &params[2 * weighted],
                        &params[2 * weighted + 1],
                        act_q[i].as_deref(),
                        &mut self.pack_ns,
                        out_channels,
                    )?;
                    packed |= w.plan.is_some();
                    weighted += 1;
                    let (t, native) =
                        self.conv(&w, input, Geometry::square(kernel, stride, pad), out_q)?;
                    dispatch.push(w.describe(i, "conv2d", &format!("{native}/{n} samples")));
                    (t, native == n)
                }
                LayerSpec::Dense { units } => {
                    let w = WeightedLayer::new(
                        precision,
                        &base_params[2 * weighted],
                        &params[2 * weighted],
                        &params[2 * weighted + 1],
                        act_q[i].as_deref(),
                        &mut self.pack_ns,
                        units,
                    )?;
                    packed |= w.plan.is_some();
                    weighted += 1;
                    let (t, native) = self.dense(&w, input, out_q)?;
                    dispatch.push(w.describe(i, "dense", if native { "yes" } else { "no" }));
                    (t, native)
                }
                LayerSpec::MaxPool {
                    kernel,
                    stride,
                    ceil,
                }
                | LayerSpec::AvgPool {
                    kernel,
                    stride,
                    ceil,
                } => {
                    let geom = if ceil {
                        Geometry::square_ceil(kernel, stride, 0)
                    } else {
                        Geometry::square(kernel, stride, 0)
                    };
                    let t = match s.spec {
                        LayerSpec::MaxPool { .. } => {
                            timed(&mut self.pool_ns, || max_pool2d(input, geom))
                                .map_err(err)?
                                .output
                        }
                        _ => timed(&mut self.pool_ns, || avg_pool2d(input, geom)).map_err(err)?,
                    };
                    (t, false)
                }
                LayerSpec::Relu => (input.map(|v| v.max(0.0)), false),
            };
            let mut out = out;
            if let (Some(q), false) = (out_q, fused) {
                timed(&mut self.quant_ns, || quantize_inplace_par(q, &mut out));
            }
            self.check(&out, &captured[i + 1]);
        }
        if packed {
            self.packed_rows += 1;
        }
        println!(
            "dispatch {:<8} {:<8} {}",
            spec.name(),
            PRECISION_SLUGS[prec],
            dispatch.join(", ")
        );
        Ok(())
    }

    fn check(&mut self, replayed: &Tensor, captured: &Tensor) {
        self.layers += 1;
        if same_bits(replayed, captured) {
            self.layers_matched += 1;
        }
    }

    /// One convolution, per sample like `Conv2d`'s native path; returns the
    /// output and how many samples ran native.
    fn conv(
        &mut self,
        w: &WeightedLayer,
        input: &Tensor,
        geom: Geometry,
        out_q: Option<&(dyn Quantizer + Send + Sync)>,
    ) -> Result<(Tensor, usize), String> {
        let d = input.shape().dims();
        let (n, c, h, wd) = (d[0], d[1], d[2], d[3]);
        let (oh, ow) = geom.output_hw(h, wd).map_err(err)?;
        let (px, kdim, o) = (oh * ow, c * geom.kh * geom.kw, w.out);
        let mut cols = vec![0.0f32; kdim * px];
        let mut tmp = vec![0.0f32; px * o];
        let mut out = vec![0.0f32; n * o * px];
        let epi = Epilogue {
            bias: Some(w.bias.as_slice()),
            out_quant: out_q,
        };
        let mut native = 0usize;
        for (s, dst) in out.chunks_exact_mut(o * px).enumerate() {
            let image = &input.as_slice()[s * c * h * wd..(s + 1) * c * h * wd];
            timed(&mut self.im2col_ns, || {
                im2col_into(image, c, h, wd, geom, &mut cols)
            })
            .map_err(err)?;
            let fused = match (&w.codec, &w.plan) {
                (Some(codec), Some(plan)) => timed(&mut self.native_ns, || {
                    matmul_on_grid_fused(codec, &cols, px, kdim, true, plan, &epi, &mut tmp)
                }),
                _ => false,
            };
            if fused {
                native += 1;
                for (oi, row) in dst.chunks_exact_mut(px).enumerate() {
                    for (p, v) in row.iter_mut().enumerate() {
                        *v = tmp[p * o + oi];
                    }
                }
            } else {
                timed(&mut self.gemm_ns, || {
                    gemm_nn(o, kdim, px, w.qw.as_slice(), &cols, dst);
                    for (row, &b) in dst.chunks_exact_mut(px).zip(w.bias.as_slice()) {
                        for v in row {
                            *v += b;
                        }
                    }
                });
                self.gemm_flops += (2 * o * kdim * px) as f64;
            }
        }
        let t = Tensor::from_vec(Shape::d4(n, o, oh, ow), out).map_err(err)?;
        Ok((t, native))
    }

    /// One dense layer over the whole batch, like `Dense::forward`.
    fn dense(
        &mut self,
        w: &WeightedLayer,
        input: &Tensor,
        out_q: Option<&(dyn Quantizer + Send + Sync)>,
    ) -> Result<(Tensor, bool), String> {
        let n = input.shape().dim(0);
        let k = input.len() / n;
        let o = w.out;
        let mut out = vec![0.0f32; n * o];
        let epi = Epilogue {
            bias: Some(w.bias.as_slice()),
            out_quant: out_q,
        };
        let native = match (&w.codec, &w.plan) {
            (Some(codec), Some(plan)) => timed(&mut self.native_ns, || {
                matmul_on_grid_fused(codec, input.as_slice(), n, k, false, plan, &epi, &mut out)
            }),
            _ => false,
        };
        if !native {
            timed(&mut self.gemm_ns, || {
                gemm_nt(n, k, o, input.as_slice(), w.qw.as_slice(), &mut out);
                for row in out.chunks_exact_mut(o) {
                    for (v, &b) in row.iter_mut().zip(w.bias.as_slice()) {
                        *v += b;
                    }
                }
            });
            self.gemm_flops += (2 * n * k * o) as f64;
        }
        Ok((Tensor::from_vec(Shape::d2(n, o), out).map_err(err)?, native))
    }

    /// The `tensor.*` and `quant.*` metrics: times per image per row.
    fn finish(
        &self,
        cases: &[(NetworkSpec, DatasetKind)],
        batch: usize,
        values: &mut Values,
    ) -> Result<(), String> {
        let per_img = |ns: u128| ns as f64 / 1e3 / self.images.max(1) as f64;
        values.insert("tensor.im2col_us_per_img".into(), per_img(self.im2col_ns));
        values.insert("tensor.gemm_f32_us_per_img".into(), per_img(self.gemm_ns));
        values.insert("tensor.pool_us_per_img".into(), per_img(self.pool_ns));
        values.insert(
            "tensor.gemm_f32_gflops".into(),
            self.gemm_flops / self.gemm_ns.max(1) as f64,
        );
        values.insert(
            "quant.act_quantize_us_per_img".into(),
            per_img(self.quant_ns),
        );
        values.insert(
            "quant.native_matmul_us_per_img".into(),
            per_img(self.native_ns),
        );
        values.insert(
            "quant.weight_pack_ms".into(),
            self.pack_ns as f64 / 1e6 / self.packed_rows.max(1) as f64,
        );
        let (mut macs, mut bytes) = (0u64, 0f64);
        for (spec, _) in cases {
            for s in spec.summaries().map_err(err)? {
                macs += s.macs;
                bytes += 4.0 * (s.input.len() + s.output.len()) as f64
                    + 4.0 * s.params as f64 / batch as f64;
            }
        }
        values.insert("tensor.macs_per_img".into(), macs as f64);
        values.insert("tensor.bytes_per_img".into(), bytes);
        println!(
            "replay: {} of {} layer outputs reproduced bit for bit; bytes_per_img computed from \
             tensor sizes (f32 inputs + outputs, weights spread over a batch of {batch})",
            self.layers_matched, self.layers
        );
        Ok(())
    }
}

/// A weighted layer's replay operands.
struct WeightedLayer {
    out: usize,
    qw: Tensor,
    bias: Tensor,
    codec: Option<qnn_quant::BitCodec>,
    plan: Option<PackedWeights>,
    weight_desc: String,
}

impl WeightedLayer {
    /// Quantizes `weight` with the quantizer calibrated on `base_weight`
    /// and packs it when the layer would try the native kernels (its
    /// input has a codec), timing `PackedWeights::pack` into `pack_ns`.
    fn new(
        precision: Precision,
        base_weight: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        input_q: Option<&(dyn Quantizer + Send + Sync)>,
        pack_ns: &mut u128,
        out: usize,
    ) -> Result<Self, String> {
        let wq = calibrate::scheme_for(precision.weights(), &[base_weight], Method::MaxAbs)
            .map_err(err)?;
        let qw = wq.quantize(weight);
        let codec = input_q.and_then(|q| q.bit_codec());
        let cols = qw.len() / out;
        let plan = match (&codec, wq.bit_codec()) {
            (Some(_), Some(wc)) => timed(pack_ns, || {
                PackedWeights::pack(&wc, out, cols, qw.as_slice())
            }),
            _ => None,
        };
        Ok(WeightedLayer {
            out,
            qw,
            bias: bias.clone(),
            codec,
            plan,
            weight_desc: wq.describe(),
        })
    }

    fn describe(&self, index: usize, kind: &str, native: &str) -> String {
        let route = match (&self.codec, &self.plan) {
            (None, _) => "simulated (float activations)".to_string(),
            (_, None) => format!("simulated (weights {} do not pack)", self.weight_desc),
            _ => format!("native {native}"),
        };
        format!("L{index} {kind}: {route}")
    }
}

/// The `zoo-qat` inputs: a training set, a held-out set, the trainer.
struct Qat {
    train: Dataset,
    held_out: Dataset,
    trainer: Trainer,
}

fn qat_setup(scale: Scale, seed: u64) -> Result<Qat, String> {
    let data = Dataset::generate(
        DatasetKind::Glyphs28,
        scale.qat_train + scale.qat_eval,
        derive_seed(seed, 0x9A7),
    );
    let idx: Vec<usize> = (0..data.len()).collect();
    let (train, held_out) = (
        data.take(&idx[..scale.qat_train]),
        data.take(&idx[scale.qat_train..]),
    );
    let trainer = Trainer::new(TrainerConfig {
        epochs: 1,
        batch_size: QAT_BATCH,
        seed: derive_seed(seed, 0x5ED),
        ..TrainerConfig::default()
    })
    .map_err(err)?;
    // Warm-up: one float32 mini-batch fine-tune and evaluation.
    let warm = data.take(&idx[..QAT_BATCH.min(scale.qat_train)]);
    let mut net = Network::build(&zoo::lenet(), MODEL_SEED).map_err(err)?;
    let qat = QatConfig::new(Precision::float32());
    trainer
        .train_qat(&mut net, &qat, warm.images(), warm.labels(), CALIB)
        .map_err(err)?;
    trainer
        .evaluate(&mut net, warm.images(), warm.labels())
        .map_err(err)?;
    Ok(Qat {
        train,
        held_out,
        trainer,
    })
}

/// FNV-1a over the bits of every parameter.
fn digest(net: &Network) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in net.params() {
        for v in p.value.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// One timed fine-tune plus evaluation (traced into `totals` when given),
/// then its checks: finite losses and a post-training Eval forward that is
/// bit-identical on the native and the simulated path. Returns the trained
/// network, its time and whether the checks passed.
fn fine_tune(
    q: &Qat,
    precision: Precision,
    ctl: &mut Control,
    totals: Option<&mut Totals>,
) -> Result<(Network, f64, bool), String> {
    let mut net = Network::build(&zoo::lenet(), MODEL_SEED).map_err(err)?;
    let cfg = QatConfig::new(precision);
    let work = || -> Result<_, qnn_nn::NnError> {
        let report =
            q.trainer
                .train_qat(&mut net, &cfg, q.train.images(), q.train.labels(), CALIB)?;
        let accuracy = q
            .trainer
            .evaluate(&mut net, q.held_out.images(), q.held_out.labels())?;
        Ok((report, accuracy))
    };
    let (trained, dt) = match totals {
        Some(t) => profile::traced(t, || ctl.measure(work)),
        None => ctl.measure(work),
    };
    let (report, accuracy) = trained.map_err(err)?;
    let finite =
        !report.epoch_losses.is_empty() && report.epoch_losses.iter().all(|l| l.is_finite());
    let x = q.held_out.images();
    qnn_nn::set_native(Some(false));
    let simulated = net.forward(x, Mode::Eval);
    qnn_nn::set_native(None);
    let native = net.forward(x, Mode::Eval).map_err(err)?;
    let ok = finite && accuracy.is_finite() && same_bits(&simulated.map_err(err)?, &native);
    Ok((net, dt, ok))
}

/// Per-precision fine-tune times, and the last network trained at each.
type QatRounds = (Vec<Vec<f64>>, Vec<Option<Network>>);

/// Runs fine-tunes of the seven precisions in seeded shuffled rounds for
/// `budget` (at least one round); returns per-precision times and the last
/// trained network of each precision. A precision whose trained weights
/// differ between rounds fails its check.
fn qat_rounds(
    q: &Qat,
    seed: u64,
    budget: Duration,
    mut totals: Option<&mut [Totals]>,
    digests: &mut [Option<u64>],
    out: &mut Outcome,
) -> Result<QatRounds, String> {
    let sweep = Precision::paper_sweep();
    let mut rng = seeded(derive_seed(seed, 0x0A7));
    let mut order: Vec<usize> = (0..sweep.len()).collect();
    let mut samples = vec![Vec::new(); sweep.len()];
    let mut nets: Vec<Option<Network>> = (0..sweep.len()).map(|_| None).collect();
    let mut ctl = Control::default();
    let start = Instant::now();
    while start.elapsed() < budget || samples.iter().any(|s: &Vec<f64>| s.is_empty()) {
        rng.shuffle(&mut order);
        for &p in &order {
            let t = totals.as_deref_mut().map(|t| &mut t[p]);
            let (net, dt, ok) = fine_tune(q, sweep[p], &mut ctl, t)?;
            let d = digest(&net);
            let repeatable = *digests[p].get_or_insert(d) == d;
            out.record(ok && repeatable);
            samples[p].push(dt);
            nets[p] = Some(net);
        }
    }
    ctl.report("fine-tunes");
    Ok((samples, nets))
}

fn print_digests(digests: &[Option<u64>]) {
    let parts: Vec<String> = digests
        .iter()
        .zip(PRECISION_SLUGS)
        .map(|(d, s)| format!("{s}={:016x}", d.unwrap_or(0)))
        .collect();
    println!("trained-weight digests: {}", parts.join(" "));
}

/// The untraced `zoo-qat` run.
pub fn qat(scale: Scale, seed: u64, seconds: f64, setups: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (q, setup_s) = repeated_setup(setups, |_| qat_setup(scale, seed))?;
    let mut digests = vec![None; PRECISION_SLUGS.len()];
    let (samples, _) = qat_rounds(
        &q,
        seed,
        Duration::from_secs_f64(seconds),
        None,
        &mut digests,
        &mut out,
    )?;
    print_digests(&digests);
    for (s, slug) in samples.iter().zip(PRECISION_SLUGS) {
        println!(
            "  lenet QAT {slug:<8} {:>9.1} ms per fine-tune of {} images + evaluation of {} ({} samples)",
            stats::median(s) * 1e3,
            scale.qat_train,
            scale.qat_eval,
            s.len()
        );
    }
    let precs: Vec<usize> = (0..PRECISION_SLUGS.len()).collect();
    throughput(&precs, &samples, scale.qat_train, &mut out.values);
    latency(&samples, scale.qat_train, &mut out.values);
    out.values.insert("setup_s".into(), setup_s);
    Ok(out)
}

/// The traced `zoo-qat` run: untraced then traced fine-tunes, the training
/// layer metrics, then the layer replay on the trained networks.
pub fn qat_profile(
    scale: Scale,
    seed: u64,
    seconds: f64,
    overhead: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let q = qat_setup(scale, seed)?;
    let half = Duration::from_secs_f64(seconds / 2.0);
    let precs: Vec<usize> = (0..PRECISION_SLUGS.len()).collect();
    let mut digests = vec![None; PRECISION_SLUGS.len()];
    let untraced = if overhead {
        Some(qat_rounds(&q, seed, half, None, &mut digests, &mut out)?.0)
    } else {
        None
    };
    let mut per_prec = vec![Totals::default(); PRECISION_SLUGS.len()];
    let (traced, mut nets) =
        qat_rounds(&q, seed, half, Some(&mut per_prec), &mut digests, &mut out)?;
    print_digests(&digests);
    if let Some(u) = untraced {
        let (u, t) = (
            overall_ips(&precs, &u, scale.qat_train),
            overall_ips(&precs, &traced, scale.qat_train),
        );
        println!("trace overhead: untraced {u:.1} img/s, traced {t:.1} img/s");
        out.values
            .insert("trace.overhead_pct".into(), (u / t - 1.0) * 100.0);
    }
    compute_layer_metrics(&per_prec, &mut out.values);
    let mut all = Totals::default();
    for t in &per_prec {
        all.merge(t);
    }
    let runs = traced.iter().map(Vec::len).sum::<usize>() as f64;
    let train_images = runs * scale.qat_train as f64;
    out.values.insert(
        "nn.bwd_us_per_img".into(),
        all.total_of("bwd") as f64 / 1e3 / train_images,
    );
    out.values.insert(
        "nn.eval_us_per_img".into(),
        all.total_of("evaluate") as f64 / 1e3 / (runs * scale.qat_eval as f64),
    );
    out.values.insert(
        "nn.train_other_us_per_img".into(),
        all.self_of("epoch") as f64 / 1e3 / train_images,
    );

    let spec = zoo::lenet();
    let calib = images(q.train.images(), 0, CALIB);
    let mut base = Network::build(&spec, MODEL_SEED).map_err(err)?;
    let mut replay = Replay::default();
    for (p, net) in nets.iter_mut().enumerate() {
        let net = net.as_mut().expect("every precision ran");
        replay.row(
            &spec,
            p,
            Precision::paper_sweep()[p],
            net,
            &mut base,
            &calib,
            q.held_out.images(),
        )?;
    }
    replay.finish(
        &[(spec, DatasetKind::Glyphs28)],
        scale.qat_eval,
        &mut out.values,
    )?;
    Ok(out)
}
