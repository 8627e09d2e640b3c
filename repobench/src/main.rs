//! The qnn repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path repobench/Cargo.toml -- \
//!     --workload zoo-infer --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `zoo-infer`: paper-network inference, LeNet/ConvNet/ALEX × the seven
//!   Table III precisions, batch 64 ([`zoo::infer`]).
//! * `zoo-qat`: LeNet QAT fine-tunes under the seven precisions
//!   ([`zoo::qat`]).
//! * `serve-closed`, `serve-open`: an in-process `qnn-serve` server driven
//!   closed loop (fixed window) or open loop (Poisson arrivals)
//!   ([`serve::run`]). `serve-open` is not in `BENCHMARK.json`: on a
//!   shared two-core host its p99 latency, set by scheduling stalls of the
//!   host, ranged from 3.4 to 10.4 ms between runs. It still supplies
//!   `serve.gen_late_ms_p99` to every traced run.
//!
//! Compute time is rescaled to a nominal host speed measured alongside it
//! ([`host::Control`]), serving time likewise by a loopback echo
//! ([`host::Echo`]). Every figure is a median over operations, or a total,
//! mean or lower quartile over serving windows of a second or less (see
//! `serve.rs`).
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! is the profile run: the workload untraced and then traced (the
//! difference is `trace.overhead_pct`), the per-layer metrics from the
//! spans and counters the program already emits plus outside timings of
//! the public layer calls. Layers the workload does not exercise are
//! measured on a short slice of a workload that does, and the output says
//! which. Every run checks the program's outputs and ends with one JSON
//! line: `correct`, `attempted`, `failed` and the metrics.

mod host;
mod profile;
mod report;
mod serve;
mod stats;
mod zoo;

use std::process::ExitCode;

use report::Outcome;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Measured seconds of each fill-in slice in a traced run.
const SLICE_SECONDS: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ZooInfer,
    ZooQat,
    ServeOpen,
    ServeClosed,
}

impl Workload {
    /// Also the order in which traced runs take fill-in slices: the
    /// serving slices first, because after the zoo slices the open loop's
    /// first half second stalled long enough to fill the server's queue.
    const ALL: [Workload; 4] = [
        Workload::ServeClosed,
        Workload::ServeOpen,
        Workload::ZooInfer,
        Workload::ZooQat,
    ];

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ZooInfer => "zoo-infer",
            Workload::ZooQat => "zoo-qat",
            Workload::ServeOpen => "serve-open",
            Workload::ServeClosed => "serve-closed",
        }
    }

    /// The end-to-end run.
    fn run(
        self,
        scale: zoo::Scale,
        seed: u64,
        seconds: f64,
        setups: usize,
    ) -> Result<Outcome, String> {
        match self {
            Workload::ZooInfer => zoo::infer(scale, seed, seconds, setups),
            Workload::ZooQat => zoo::qat(scale, seed, seconds, setups),
            Workload::ServeOpen => serve::run(serve::Loop::Open, seed, seconds, setups),
            Workload::ServeClosed => serve::run(serve::Loop::Closed, seed, seconds, setups),
        }
    }

    /// The traced run; `overhead` adds the untraced half that
    /// `trace.overhead_pct` compares against.
    fn profile(
        self,
        scale: zoo::Scale,
        seed: u64,
        seconds: f64,
        overhead: bool,
    ) -> Result<Outcome, String> {
        match self {
            Workload::ZooInfer => zoo::infer_profile(scale, seed, seconds, overhead),
            Workload::ZooQat => zoo::qat_profile(scale, seed, seconds, overhead),
            Workload::ServeOpen => serve::profile(serve::Loop::Open, seed, seconds, overhead),
            Workload::ServeClosed => serve::profile(serve::Loop::Closed, seed, seconds, overhead),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: qnn-repobench --workload <zoo-infer|zoo-qat|serve-open|serve-closed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without running git.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let Some(r) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Pins the compute pool and prints the run environment.
///
/// One compute thread: on a two-core host the second core is left to the
/// server's I/O threads and the load generator, and another process
/// stealing a core cannot stall a fork-join region mid-forward, which at
/// two threads made single forwards vary by ±20%.
fn pin_and_describe(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = 1.min(nproc);
    qnn_tensor::par::set_threads(Some(threads));
    println!(
        "env: workload={} seed={} seconds={} trace={} nproc={nproc} QNN_THREADS={threads} \
         engine_threads=1 avx2={} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        avx2(),
        commit()
    );
}

/// The profile run: the workload's own traced run, then slices of other
/// workloads for whatever per-layer metric it left unmeasured.
fn profile_run(
    w: Workload,
    scale: zoo::Scale,
    slice: zoo::Scale,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut out = w.profile(scale, seed, seconds, true)?;
    for donor in Workload::ALL {
        let missing: Vec<String> = report::per_layer()
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| !out.values.contains_key(n))
            .collect();
        if missing.is_empty() {
            break;
        }
        if donor == w {
            continue;
        }
        println!(
            "-- {} slice for layers {} does not exercise",
            donor.name(),
            w.name()
        );
        let part = donor.profile(slice, seed, SLICE_SECONDS, false)?;
        out.absorb_counts(&part);
        for name in missing {
            if let Some(&v) = part.values.get(&name) {
                println!("layer {name} measured on the {} slice", donor.name());
                out.values.insert(name, v);
            }
        }
    }
    Ok(out)
}

fn run(args: &Args) -> Result<String, String> {
    pin_and_describe(args);
    if args.trace {
        let out = profile_run(
            args.workload,
            zoo::FULL,
            zoo::SLICE,
            args.seed,
            args.seconds,
        )?;
        report::render(&out, &report::per_layer())
    } else {
        let mut out = args
            .workload
            .run(zoo::FULL, args.seed, args.seconds, SETUPS)?;
        out.values.insert("peak_rss_mb".into(), peak_rss_mb()?);
        println!("error_rate: {} of {} failed", out.failed, out.attempted);
        report::render(&out, &report::end_to_end())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Tests that trace or run workloads share the process-wide trace
/// collector and thread pool, so they run one at a time.
#[cfg(test)]
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: zoo::Scale = zoo::Scale {
        nets: 1,
        batch: 4,
        qat_train: 32,
        qat_eval: 8,
    };

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve-open --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeOpen, 9, 2.5, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload zoo-qat --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload zoo-qat --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload zoo-qat --seed 1 --seconds 1")).is_err());
    }

    #[test]
    fn every_workload_smoke_untraced() {
        let _g = test_lock();
        qnn_tensor::par::set_threads(Some(1));
        for w in Workload::ALL {
            let mut out = w
                .run(SMOKE, 3, 0.3, 2)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            out.values
                .insert("peak_rss_mb".into(), peak_rss_mb().unwrap());
            assert!(
                out.attempted > 0 && out.failed == 0,
                "{}: {out:?}",
                w.name()
            );
            let line = report::render(&out, &report::end_to_end()).unwrap();
            assert!(line.starts_with("{\"correct\": true"), "{line}");
        }
    }

    #[test]
    fn every_workload_smoke_traced() {
        let _g = test_lock();
        qnn_tensor::par::set_threads(Some(1));
        for w in Workload::ALL {
            let out = profile_run(w, SMOKE, SMOKE, 4, 0.4)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(
                out.attempted > 0 && out.failed == 0,
                "{}: {out:?}",
                w.name()
            );
            report::render(&out, &report::per_layer()).unwrap();
        }
    }
}
