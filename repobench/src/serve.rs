//! The serving workloads: an in-process `qnn-serve` server on loopback,
//! default configuration with one engine thread, driven over one
//! connection with precision tags drawn uniformly from all seven.
//!
//! * `serve-open`: seeded Poisson arrivals at a fixed [`OPEN_RATE`]. Latency
//!   counts from each request's due time, so a stalled generator shows as
//!   latency; how late the generator ran is reported beside it.
//! * `serve-closed`: a fixed window of [`WINDOW`] pipelined requests, so
//!   batches flush on size and throughput is the capacity.
//!
//! Figures are totals, means or lower quartiles over windows of a second
//! in the open loop and [`WINDOW_S`] in the closed loop, so one stall
//! barely moves them ([`Phase::ips`], [`Phase::latency`]); the closed
//! loop's windows are also rescaled to nominal host speed by a loopback
//! echo control ([`Echo`]). The open loop runs on a fixed schedule and is
//! not rescaled. Set-up times are rescaled by the compute control
//! ([`Control`]).
//!
//! Every response is compared bit for bit with a local `ModelBank`
//! single-image forward made at set-up; an error frame, a `Busy` reply, a
//! mismatch or a missing response counts as a failure.

use std::collections::HashMap;
use std::io::{BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use qnn_serve::{
    model, proto, Frame, FrameKind, ModelBank, ServeClient, ServeConfig, ServeStats, Server,
    NUM_PRECISIONS,
};
use qnn_tensor::rng::{derive_seed, seeded};

use crate::host::{Control, Echo};
use crate::profile::Totals;
use crate::report::{Outcome, Values, PRECISION_SLUGS};
use crate::stats;

/// Open-loop arrival rate, requests per second: an eighth to a fifth of
/// closed-loop capacity on a two-core host (30k–48k img/s as the host's
/// speed drifts). At a third of capacity a slow spell of the host filled
/// the queue and the server answered `Busy`.
const OPEN_RATE: f64 = 6000.0;

/// Requests in flight in the closed loop (as in `qnn-bench serve-bench`):
/// above the default `max_batch` of 16 and below the queue capacity.
const WINDOW: usize = 32;

/// Length of one closed-loop window, s: 60 windows in a 30 s run, each
/// with about 15 000 requests, so 150 lie beyond its p99.
const WINDOW_S: f64 = 0.5;

/// Distinct images requests are drawn from.
const POOL: usize = 256;

/// How long a response may take before the request counts as missing.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The image pool and each image's expected logits per tag.
struct Refs {
    images: Vec<Vec<f32>>,
    logits: Vec<Vec<Vec<f32>>>,
}

impl Refs {
    fn build(seed: u64) -> Result<Refs, String> {
        let mut bank = ModelBank::default_bank().map_err(err)?;
        let len = bank.input_len();
        let images: Vec<Vec<f32>> = (0..POOL)
            .map(|i| model::test_image(derive_seed(seed, 0x5E7), i as u64, len))
            .collect();
        let logits = (0..NUM_PRECISIONS)
            .map(|tag| {
                images
                    .iter()
                    .map(|img| bank.forward_single(tag, img))
                    .collect()
            })
            .collect::<Result<_, _>>()
            .map_err(err)?;
        Ok(Refs { images, logits })
    }

    fn matches(&self, frame: &Frame, tag: u8, image: usize) -> bool {
        frame.kind == FrameKind::InferOk
            && frame.payload_f32s().is_ok_and(|y| {
                let want = &self.logits[tag as usize][image];
                y.len() == want.len() && y.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
            })
    }
}

/// A started server with its references, warmed by a few requests of
/// every tag.
struct Stage {
    server: Server,
    refs: Refs,
}

impl Stage {
    fn start(seed: u64) -> Result<Stage, String> {
        let server = Server::start(ServeConfig {
            engine_threads: 1,
            ..ServeConfig::default()
        })
        .map_err(err)?;
        let refs = Refs::build(seed)?;
        let mut c = ServeClient::connect(&server.local_addr().to_string()).map_err(err)?;
        for tag in 0..NUM_PRECISIONS {
            for i in 0..8 {
                let y = c.infer(tag, &refs.images[i]).map_err(err)?;
                let want = &refs.logits[tag as usize][i];
                if y.iter().zip(want).any(|(a, b)| a.to_bits() != b.to_bits()) {
                    return Err(format!(
                        "warm-up response for tag {tag} differs from the local forward"
                    ));
                }
            }
        }
        Ok(Stage { server, refs })
    }

    fn stop(self) -> ServeStats {
        self.server.shutdown();
        self.server.join()
    }
}

/// One window of a load phase.
#[derive(Default)]
struct Window {
    /// Successful requests per tag.
    ok_per_tag: [u64; 7],
    /// Latency of each successful request, ms.
    latency_ms: Vec<f64>,
    /// Length of the window, s.
    secs: f64,
}

impl Window {
    fn ok(&self) -> u64 {
        self.ok_per_tag.iter().sum()
    }
}

/// What one load phase measured, in windows of a second or less: every
/// figure is a total, mean or lower quartile over windows, so a stall that
/// spoils one window barely moves it.
#[derive(Default)]
struct Phase {
    windows: Vec<Window>,
    /// How late the open-loop generator sent each request, ms.
    late_ms: Vec<f64>,
    attempted: u64,
    wall_s: f64,
}

impl Phase {
    fn ok(&self) -> u64 {
        self.windows.iter().map(Window::ok).sum()
    }

    /// Successes per second over all windows together; with `tag`, that
    /// tag's successes only.
    ///
    /// A total, not a median over windows: on a shared two-core host the
    /// closed loop's windows often fall into two bands (in one run, a p50
    /// latency near 0.7 ms or near 1.0 ms), and a median jumps between
    /// them as their shares move. Over five 30 s closed-loop runs the
    /// median over windows ranged by 13% of its middle value, the total by
    /// 6%.
    fn ips(&self, tag: Option<usize>) -> f64 {
        let secs: f64 = self.windows.iter().map(|w| w.secs).sum();
        let ok: u64 = self
            .windows
            .iter()
            .map(|w| tag.map_or(w.ok(), |t| w.ok_per_tag[t]))
            .sum();
        ok as f64 / secs.max(f64::MIN_POSITIVE)
    }

    /// Latency p50 and tail p99 of each window that answered anything.
    fn window_tails(&self) -> (Vec<f64>, Vec<stats::Tail>) {
        let (mut p50, mut tails) = (Vec::new(), Vec::new());
        for w in self.windows.iter().filter(|w| !w.latency_ms.is_empty()) {
            let mut l = w.latency_ms.clone();
            l.sort_by(f64::total_cmp);
            p50.push(stats::nearest_rank(&l, 0.5));
            tails.push(stats::tail(&l, 0.99));
        }
        (p50, tails)
    }

    /// Latency p50, the mean over windows of each window's p50 (a mean for
    /// the reason given at [`Phase::ips`]), and tail p99, the lower
    /// quartile over windows of each window's p99.
    ///
    /// The tail takes the quieter windows because a scheduling stall of the
    /// shared host (server and client run four threads on two cores) spoils
    /// a window's p99 but not its p50, and the share of spoiled windows
    /// changes from run to run: over five 30 s closed-loop runs the median
    /// over windows of the p99 ranged from 1.60 to 1.92 ms, the lower
    /// quartile from 1.39 to 1.52 ms.
    fn latency(&self) -> (f64, stats::Tail) {
        let (p50, tails) = self.window_tails();
        let beyond = tails.iter().map(|t| t.beyond).min().unwrap_or(0);
        let q = tails.iter().map(|t| t.q).fold(1.0, f64::min);
        let mut p99: Vec<f64> = tails.iter().map(|t| t.value).collect();
        p99.sort_by(f64::total_cmp);
        let value = if p99.is_empty() {
            0.0
        } else {
            stats::nearest_rank(&p99, 0.25)
        };
        let p50 = p50.iter().sum::<f64>() / p50.len().max(1) as f64;
        (p50, stats::Tail { value, q, beyond })
    }
}

/// Sends `OPEN_RATE × seconds` requests on the seeded Poisson schedule
/// from a sender thread while this thread reads and checks responses.
/// Windows split the schedule by due time.
fn open_loop(
    addr: SocketAddr,
    refs: &Refs,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let n = (OPEN_RATE * seconds).round().max(1.0) as usize;
    let schedule = stats::poisson_schedule(seed, OPEN_RATE, n, NUM_PRECISIONS, POOL);
    let mut writer = TcpStream::connect(addr).map_err(err)?;
    writer.set_nodelay(true).map_err(err)?;
    writer.set_read_timeout(Some(READ_TIMEOUT)).map_err(err)?;
    let mut reader = BufReader::new(writer.try_clone().map_err(err)?);
    let start = Instant::now() + Duration::from_millis(5);
    let since = |t: Instant| t.saturating_duration_since(start).as_secs_f64();

    let (sent, done) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> Result<Vec<f64>, String> {
            let mut sent = Vec::with_capacity(n);
            for (id, a) in schedule.iter().enumerate() {
                let due = start + Duration::from_secs_f64(a.due_s);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                sent.push(since(Instant::now()));
                let frame = Frame::infer(id as u64, a.tag, &refs.images[a.image]);
                writer.write_all(&frame.encode()).map_err(err)?;
            }
            Ok(sent)
        });
        // Completion time and verdict per request; `None` never answered.
        let mut done: Vec<Option<(f64, bool)>> = vec![None; n];
        for _ in 0..n {
            let Ok(frame) = proto::read_frame(&mut reader) else {
                break;
            };
            let t = since(Instant::now());
            let Some(slot) = done.get_mut(frame.req_id as usize) else {
                continue;
            };
            let a = schedule[frame.req_id as usize];
            *slot = Some((t, refs.matches(&frame, a.tag, a.image)));
        }
        (sender.join(), done)
    });
    let sent = sent.map_err(|_| "sender thread panicked".to_string())??;

    let span = schedule.last().map_or(seconds, |a| a.due_s);
    let count = (span.floor() as usize).max(1);
    let mut phase = Phase {
        windows: (0..count)
            .map(|_| Window {
                secs: span / count as f64,
                ..Window::default()
            })
            .collect(),
        attempted: n as u64,
        ..Phase::default()
    };
    for ((a, s), d) in schedule.iter().zip(&sent).zip(&done) {
        phase.late_ms.push((s - a.due_s).max(0.0) * 1e3);
        out.record(matches!(d, Some((_, true))));
        if let Some((t, true)) = d {
            let w = &mut phase.windows[((a.due_s / span * count as f64) as usize).min(count - 1)];
            w.latency_ms.push((t - a.due_s) * 1e3);
            w.ok_per_tag[a.tag as usize] += 1;
            phase.wall_s = phase.wall_s.max(*t);
        }
    }
    Ok(phase)
}

/// Keeps `WINDOW` requests in flight for `seconds`, in windows of
/// [`WINDOW_S`]. Each window ends by draining what is in flight, and the
/// echo control then runs on an idle server; every window's time and
/// latencies are rescaled to the nominal host speed by the median of these
/// probes ([`Echo`]).
fn closed_loop(
    addr: SocketAddr,
    refs: &Refs,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let mut c = ServeClient::connect(&addr.to_string()).map_err(err)?;
    c.set_read_timeout(READ_TIMEOUT).map_err(err)?;
    let mut r = seeded(derive_seed(seed, 0xC105));
    let mut inflight: HashMap<u64, (Instant, u8, usize)> = HashMap::with_capacity(2 * WINDOW);
    let count = ((seconds / WINDOW_S).floor() as usize).max(1);
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut echo = Echo::start().map_err(err)?;
    echo.probe().map_err(err)?;
    'windows: for _ in 0..count {
        let mut w = Window::default();
        let w_start = Instant::now();
        let deadline = w_start + Duration::from_secs_f64(seconds / count as f64);
        loop {
            while inflight.len() < WINDOW && Instant::now() < deadline {
                let (tag, image) = (r.gen_range(0..NUM_PRECISIONS), r.gen_range(0..POOL));
                let id = c.send_infer(tag, &refs.images[image]).map_err(err)?;
                inflight.insert(id, (Instant::now(), tag, image));
                phase.attempted += 1;
            }
            if inflight.is_empty() {
                break;
            }
            let Ok(frame) = c.recv_frame() else {
                break 'windows;
            };
            let now = Instant::now();
            let Some((t0, tag, image)) = inflight.remove(&frame.req_id) else {
                continue;
            };
            let ok = refs.matches(&frame, tag, image);
            out.record(ok);
            if ok {
                w.latency_ms.push((now - t0).as_secs_f64() * 1e3);
                w.ok_per_tag[tag as usize] += 1;
            }
        }
        w.secs = w_start.elapsed().as_secs_f64();
        echo.probe().map_err(err)?;
        phase.windows.push(w);
    }
    // One host speed for the whole phase, the median probe, so that one
    // disturbed probe does not move the window beside it.
    let slowdown = echo.slowdown();
    echo.report();
    for w in &mut phase.windows {
        w.secs /= slowdown;
        w.latency_ms.iter_mut().for_each(|l| *l /= slowdown);
    }
    // Requests still in flight after a read failure never got an answer.
    for _ in 0..inflight.len() {
        out.record(false);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    Ok(phase)
}

/// Which loop a serving workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// Poisson arrivals at [`OPEN_RATE`].
    Open,
    /// [`WINDOW`] requests in flight.
    Closed,
}

fn drive(
    lp: Loop,
    stage: &Stage,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let addr = stage.server.local_addr();
    let phase = match lp {
        Loop::Open => open_loop(addr, &stage.refs, seed, seconds, out)?,
        Loop::Closed => closed_loop(addr, &stage.refs, seed, seconds, out)?,
    };
    let (p50, tail) = phase.latency();
    println!(
        "{lp:?} loop: {} of {} requests answered correctly in {:.3} s over {} windows; \
         latency p50 {:.3} ms (mean over windows), p{:.2} {:.3} ms (lower quartile over \
         windows) with at least {} requests beyond in each window",
        phase.ok(),
        phase.attempted,
        phase.wall_s,
        phase.windows.len(),
        p50,
        tail.q * 100.0,
        tail.value,
        tail.beyond
    );
    let (p50s, tails) = phase.window_tails();
    if !p50s.is_empty() {
        let spread = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            [0.0, 0.25, 0.5, 0.75, 1.0].map(|q| stats::nearest_rank(&v, q))
        };
        println!(
            "per window, min/q1/median/q3/max over windows: {:.0?} img/s, latency p50 {:.3?} ms, \
             p99 {:.3?} ms",
            spread(
                phase
                    .windows
                    .iter()
                    .map(|w| w.ok() as f64 / w.secs)
                    .collect()
            ),
            spread(p50s),
            spread(tails.iter().map(|t| t.value).collect())
        );
    }
    if lp == Loop::Open {
        let mut late = phase.late_ms.clone();
        late.sort_by(f64::total_cmp);
        let t = stats::tail(&late, 0.99);
        println!(
            "open-loop generator lateness: p50 {:.3} ms, p{:.2} {:.3} ms, max {:.3} ms",
            stats::nearest_rank(&late, 0.5),
            t.q * 100.0,
            t.value,
            late.last().copied().unwrap_or(0.0)
        );
    }
    Ok(phase)
}

/// The untraced serving run: `setups` set-ups (server start, references,
/// warm-up), then `seconds` of load on the last one.
pub fn run(lp: Loop, seed: u64, seconds: f64, setups: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut ctl = Control::default();
    let mut setup_s = Vec::new();
    let mut stage = None;
    for _ in 0..setups.max(1) {
        let (fresh, dt) = ctl.measure(|| Stage::start(seed));
        setup_s.push(dt);
        if let Some(old) = stage.replace(fresh?) {
            Stage::stop(old);
        }
    }
    ctl.report("set-ups");
    println!("setup: {setup_s:?} s");
    let stage = stage.expect("at least one set-up");
    let phase = drive(lp, &stage, seed, seconds, &mut out)?;
    let stats = stage.stop();
    println!("server: {}", stats.render().trim_end().replace('\n', "; "));
    let v = &mut out.values;
    v.insert("img_per_s".into(), phase.ips(None));
    for (t, slug) in PRECISION_SLUGS.iter().enumerate() {
        v.insert(format!("img_per_s.{slug}"), phase.ips(Some(t)));
    }
    let (p50, tail) = phase.latency();
    v.insert("latency_p50_ms".into(), p50);
    v.insert("latency_p99_ms".into(), tail.value);
    v.insert("setup_s".into(), stats::median(&setup_s));
    Ok(out)
}

/// Mean cost of `Frame::encode` and `proto::read_frame` for one request
/// frame, ns: the median of five passes of 20 000 calls each.
fn proto_costs(image: &[f32]) -> Result<(f64, f64), String> {
    const CALLS: usize = 20_000;
    let frame = Frame::infer(1, 3, image);
    let bytes = frame.encode();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(std::hint::black_box(&frame).encode());
        }
        enc.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
        let t = Instant::now();
        for _ in 0..CALLS {
            let f =
                proto::read_frame(&mut Cursor::new(std::hint::black_box(&bytes))).map_err(err)?;
            std::hint::black_box(f);
        }
        dec.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    Ok((stats::median(&enc), stats::median(&dec)))
}

/// Longest traced phase, s: a traced request records several events, and
/// a longer phase only grows the in-memory trace.
const TRACED_MAX_S: f64 = 4.0;

/// The traced serving run: an untraced and a traced phase of equal length
/// (half of `seconds`, at most [`TRACED_MAX_S`]) on fresh servers, then the
/// `serve.*` layer metrics from the traced phase.
pub fn profile(lp: Loop, seed: u64, seconds: f64, overhead: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let half = (seconds / 2.0).min(TRACED_MAX_S);
    let untraced_ips = if overhead {
        let stage = Stage::start(seed)?;
        let p = drive(lp, &stage, seed, half, &mut out)?;
        stage.stop();
        Some(p.ips(None))
    } else {
        None
    };
    let stage = Stage::start(seed)?;
    let mut traced = Outcome::default();
    // An open-loop slice only supplies the generator's lateness, measured
    // at the client, and runs untraced: traced right after a traced
    // closed-loop run, the server stalled for tens of milliseconds at the
    // start and the open loop's queue overflowed into `Busy` replies.
    let tracing = lp == Loop::Closed || overhead;
    if tracing {
        qnn_trace::start();
    }
    let phase = drive(lp, &stage, seed, half, &mut traced);
    let trace = if tracing {
        qnn_trace::stop()
    } else {
        qnn_trace::Trace::default()
    };
    let phase = phase?;
    let image = stage.refs.images[0].clone();
    let stats = stage.stop();
    out.absorb_counts(&traced);

    let mut t = Totals::default();
    t.add(&trace);
    let v: &mut Values = &mut out.values;
    if let Some(u) = untraced_ips {
        println!(
            "trace overhead: untraced {u:.1} img/s, traced {:.1} img/s",
            phase.ips(None)
        );
        v.insert(
            "trace.overhead_pct".into(),
            (u / phase.ips(None) - 1.0) * 100.0,
        );
    }
    let batches = t.counter("serve.batches").max(1) as f64;
    let wall_ns = phase.wall_s * 1e9;
    let server_p50 = stats.latency_us.quantile(0.5);
    let mean_batch_us =
        t.total_of("serve.batch") as f64 / 1e3 / t.count_of("serve.batch").max(1) as f64;
    let (client_p50_ms, _) = phase.latency();
    v.insert(
        "serve.batch_size_mean".into(),
        t.counter("serve.requests") as f64 / batches,
    );
    v.insert(
        "serve.groups_per_batch".into(),
        t.count_of("serve.infer") as f64 / batches,
    );
    v.insert("serve.batches_per_s".into(), batches / phase.wall_s);
    v.insert("serve.server_latency_p50_us".into(), server_p50);
    v.insert(
        "serve.server_latency_p99_us".into(),
        stats.latency_us.quantile(0.99),
    );
    v.insert("serve.queue_wait_p50_us".into(), server_p50 - mean_batch_us);
    v.insert(
        "serve.transport_p50_us".into(),
        client_p50_ms * 1e3 - server_p50,
    );
    v.insert(
        "serve.engine_busy_share".into(),
        t.total_of("serve.batch") as f64 / wall_ns,
    );
    v.insert(
        "serve.busy_rejections".into(),
        stats.rejected_busy as f64 / traced.attempted.max(1) as f64,
    );
    if lp == Loop::Open {
        let mut late = phase.late_ms.clone();
        late.sort_by(f64::total_cmp);
        v.insert(
            "serve.gen_late_ms_p99".into(),
            stats::tail(&late, 0.99).value,
        );
    }
    let (enc, dec) = proto_costs(&image)?;
    v.insert("serve.proto_encode_ns".into(), enc);
    v.insert("serve.proto_decode_ns".into(), dec);
    println!(
        "note: serve.server_latency_* are ServeStats histogram quantiles (lower edge of a \
         power-of-two bucket); queue wait and transport are derived from them"
    );
    Ok(out)
}
