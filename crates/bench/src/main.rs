//! `qnn-bench` — the offline benchmark/artifact entry point.
//!
//! With no arguments it runs the kernel suite and writes
//! `BENCH_kernels.json` to the current directory. Subcommands regenerate
//! individual paper artifacts; `all` chains every one of them;
//! `bench-check` gates against the committed kernel baseline and
//! `trace-summary` reads back a `--trace` JSONL file.

use qnn_bench::json::Json;
use qnn_bench::{
    artifacts, kernels, loadgen, pareto, qcheck, regression, servebench, sync, tracereport,
};

const USAGE: &str = "\
usage: qnn-bench [--quick] [--trace <path>] [SUBCOMMAND]

  kernels        kernel benchmarks; writes BENCH_kernels.json (default)
  bench-check [--baseline <path>] [--pareto <fresh>]
                 quick kernel run compared against the committed
                 BENCH_kernels.json; exits 1 on any >25% regression
                 (tolerance factor via QNN_BENCH_TOLERANCE, e.g. 1.25).
                 With --pareto FRESH it instead gates the committed
                 autotuner frontier (--baseline, default
                 PARETO_tune.json) against the freshly tuned front in
                 FRESH: a committed point no fresh point matches within
                 QNN_PARETO_ACC_TOL accuracy pct-pt (default 0.5) and
                 QNN_PARETO_ENERGY_TOL relative energy (default 0.05)
                 fails with a PARETO-DOMINATED verdict, as do parse
                 failures and an empty fresh front
  kernels-bench [--baseline <path>]
                 full-repetition re-run of the qgemm_256 microkernel
                 suite compared against the committed BENCH_kernels.json
                 with per-kernel verdicts; exits 1 on any >75% regression
                 or any native speedup_*_vs_f32 ratio below 1.0; a
                 failure on the absolute ns/op backstop alone gets one
                 clean re-run (recorded in the verdict) before it gates
  qkernels       native-vs-simulated bit-identity self-check of the
                 quantized fast path on this host's CPU; exits 1 on any
                 mismatch or never-dispatched packable precision
  trace-summary <path>
                 summarize a qnn-trace JSONL file written by --trace
  serve-soak --addr HOST:PORT [--clients N] [--requests M] [--seed S]
             [--cycles K] [--dir DIR] [--kill-pid PID] [--shutdown]
                 load-generate against a running `qnn serve` or `qnn
                 router` and verify every response bit-identical to a
                 local forward on the bank of the model version that
                 answered it (--seed, decimal or 0x-hex, must match the
                 server's); --cycles runs K live model reloads mid-soak
                 from checkpoints written to DIR; --kill-pid SIGKILLs
                 PID right after a seed-chosen cycle's reload frame
                 (the server: reload-chaos) or, without --cycles, at a
                 seed-derived point mid-soak (a shard behind the router:
                 cluster-soak); --shutdown drains the server or the
                 whole cluster afterwards
  reload-verify --addr HOST:PORT [--seeds A,B,...] [--base S --cycles K]
                 probe a (restarted) server across every precision and
                 prove it serves exactly one complete candidate seed
                 bit-identically — never a torn bank; seeds are decimal
                 or 0x-hex, and --base/--cycles expands to the same
                 cycle-seed schedule serve-soak used (base plus K
                 derived reload seeds)
  serve-bench [--write] [--attach HOST:PORT] [--baseline <path>]
                 serving-throughput benchmark: loopback servers at 1 and
                 4 engine threads, every Table III precision, pipelined
                 client; default mode gates against the committed
                 BENCH_serve.json (exit 1 on >25% regression), --write
                 regenerates it, --attach also measures an externally
                 started server (recorded as *_attached entries)
  sync-check [--sh PATH] [--yml PATH]
                 fail if ci.sh stages and ci.yml jobs have drifted, or
                 a job does not run its body as `./ci.sh --stage <id>`
                 (defaults: ci.sh, .github/workflows/ci.yml)
  table3         Table III  — design metrics per precision
  table4         Table IV   — MNIST/SVHN-class accuracy + energy
  table5         Table V    — CIFAR-class accuracy + energy
  fig3           Figure 3   — area/power breakdown, buffer dominance
  fig4           Figure 4   — accuracy-vs-energy Pareto frontier
  memory         \u{a7}V-B       — parameter memory per network per precision
  ablations      QAT-vs-PTQ, STE clip, calibration, radix ablations
  all            every artifact above, then the kernel suite

Flags:
  --quick        shorter kernel repetitions, mini-sweep skipped
  --trace <path> record a qnn-trace JSONL of the run to <path>

Training-based artifacts honour QNN_BENCH_SCALE=smoke|reduced|full
(default reduced) and QNN_THREADS=<n>.";

fn run_kernels(quick: bool) {
    let report = kernels::run_with(quick);
    let path = "BENCH_kernels.json";
    std::fs::write(path, report.render()).expect("write BENCH_kernels.json");
    println!("\nwrote {path}");
}

fn bench_check(baseline_path: &str) -> i32 {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench-check: cannot read baseline {baseline_path}: {e}");
            return 1;
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("bench-check: baseline {baseline_path} is not valid JSON: {e}");
            return 1;
        }
    };
    println!("bench-check: quick kernel run vs {baseline_path}");
    let current = kernels::run_with(true);
    print_simd(&baseline, &current);
    let tolerance = regression::tolerance_from_env();
    // The quick run deliberately skips the mini-sweep; everything else
    // in the committed baseline must show up or the check fails.
    match regression::check_with(&baseline, &current, tolerance, &["table4/*"]) {
        Ok(outcome) => {
            print!("\n{}", outcome.render());
            i32::from(!outcome.passed())
        }
        Err(e) => {
            eprintln!("bench-check: {e}");
            1
        }
    }
}

/// Prints the SIMD builds behind the committed and the fresh timings side
/// by side. Informational: a different build changes no verdict.
fn print_simd(baseline: &Json, current: &Json) {
    let simd = |j: &Json| {
        j.get("simd")
            .and_then(Json::as_str)
            .unwrap_or("unrecorded")
            .to_string()
    };
    println!(
        "simd builds: committed {} | fresh {}",
        simd(baseline),
        simd(current)
    );
}

fn kernels_bench(baseline_path: &str) -> i32 {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("kernels-bench: cannot read baseline {baseline_path}: {e}");
            return 1;
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("kernels-bench: baseline {baseline_path} is not valid JSON: {e}");
            return 1;
        }
    };
    println!("kernels-bench: full qgemm_256 microkernel re-run vs {baseline_path}");
    // The binding contract for this leg is the same-run
    // speedup_*_vs_f32 ratios (NATIVE-SLOWDOWN verdicts), which divide
    // out machine speed; the absolute ns/op comparison is only a
    // backstop, so it gets a wider default than bench-check — one-off
    // 1.5x spikes are routine on shared single-core runners.
    let tolerance = regression::tolerance_from_env_or(1.75);
    // This leg re-runs only the microkernel suite; every other suite in
    // the committed baseline is out of scope. The qgemm entries stay
    // gated — one vanishing is a MISSING failure — and a fresh
    // speedup_*_vs_f32 ratio below 1.0 fails with its own verdict.
    const OUT_OF_SCOPE: &[&str] = &[
        "matmul_256/*",
        "conv2d/*",
        "maxpool/*",
        "quantize_4096/*",
        "quantize_262144/*",
        "lenet_small/*",
        "table4/*",
    ];
    let mut current = kernels::run_qgemm();
    let mut retried = false;
    loop {
        let outcome = match regression::check_with(&baseline, &current, tolerance, OUT_OF_SCOPE) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("kernels-bench: {e}");
                return 1;
            }
        };
        // Because the absolute comparison is only a backstop, a failure
        // on it *alone* — REGRESSED verdicts with no NATIVE-SLOWDOWN
        // and nothing MISSING — gets one clean re-run of the suite
        // before it gates: a scheduler spike on a shared runner is not
        // reproducible, a real regression is.
        let backstop_only = !outcome.passed()
            && outcome.missing_gated.is_empty()
            && outcome.native_slowdowns.is_empty();
        if backstop_only && !retried {
            retried = true;
            println!(
                "\nabsolute ns/op backstop exceeded ({} REGRESSED, nothing missing or \
                 slowed down natively); re-running the qgemm_256 suite once",
                outcome.regressions.len()
            );
            current = kernels::run_qgemm();
            continue;
        }
        print_simd(&baseline, &current);
        print!("\n{}", outcome.render());
        if retried {
            println!(
                "verdict above is from retry 1 of 1: the first run failed only the \
                 absolute ns/op backstop"
            );
        }
        return i32::from(!outcome.passed());
    }
}

fn pareto_check(committed_path: &str, fresh_path: &str) -> i32 {
    let read = |role: &str, path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {role} front {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{role} front {path} is not valid JSON: {e}"))
    };
    let committed = match read("committed", committed_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("pareto-check: {e}");
            return 1;
        }
    };
    let fresh = match read("fresh", fresh_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("pareto-check: {e}");
            return 1;
        }
    };
    println!("pareto-check: fresh front {fresh_path} vs committed {committed_path}");
    match pareto::check(
        &committed,
        &fresh,
        pareto::acc_tol_from_env(),
        pareto::energy_tol_from_env(),
    ) {
        Ok(outcome) => {
            print!("\n{}", outcome.render());
            i32::from(!outcome.passed())
        }
        Err(e) => {
            eprintln!("pareto-check: {e}");
            1
        }
    }
}

fn trace_summary(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace-summary: cannot read {path}: {e}");
            return 1;
        }
    };
    match tracereport::summarize(&text) {
        Ok(report) => {
            print!("{report}");
            0
        }
        Err(e) => {
            eprintln!("trace-summary: {path}: {e}");
            1
        }
    }
}

fn parse_seed_arg(ctx: &str, v: &str) -> u64 {
    let parsed = if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    };
    parsed.unwrap_or_else(|| {
        eprintln!("{ctx}: `{v}` is not a seed (decimal or 0x-hex)");
        std::process::exit(2);
    })
}

fn serve_soak(args: &[String]) -> i32 {
    let mut cfg = loadgen::SoakConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut next = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("serve-soak: {flag} needs a value\n\n{USAGE}");
                std::process::exit(2);
            })
        };
        let parse = |flag: &str, v: String| -> usize {
            v.parse().unwrap_or_else(|_| {
                eprintln!("serve-soak: {flag} `{v}` is not a count");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = next("--addr"),
            "--shutdown" => cfg.shutdown = true,
            "--clients" => cfg.clients = parse("--clients", next("--clients")),
            "--requests" => cfg.requests = parse("--requests", next("--requests")),
            "--cycles" => cfg.cycles = parse("--cycles", next("--cycles")),
            "--dir" => cfg.dir = std::path::PathBuf::from(next("--dir")),
            "--seed" => cfg.seed = parse_seed_arg("serve-soak: --seed", &next("--seed")),
            "--kill-pid" => {
                let v = next("--kill-pid");
                cfg.kill_pid = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("serve-soak: --kill-pid `{v}` is not a pid");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("serve-soak: unknown argument {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if cfg.addr.is_empty() {
        eprintln!("serve-soak: --addr is required\n\n{USAGE}");
        std::process::exit(2);
    }
    match loadgen::run(&cfg) {
        Ok(outcome) => i32::from(!outcome.passed(&cfg)),
        Err(e) => {
            eprintln!("serve-soak: {e}");
            1
        }
    }
}

fn reload_verify(args: &[String]) -> i32 {
    let mut addr = String::new();
    let mut seeds: Vec<u64> = Vec::new();
    let mut base: Option<u64> = None;
    let mut cycles = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut next = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("reload-verify: {flag} needs a value\n\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = next("--addr"),
            "--seeds" => {
                seeds = next("--seeds")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| parse_seed_arg("reload-verify: --seeds", s))
                    .collect();
            }
            "--base" => base = Some(parse_seed_arg("reload-verify: --base", &next("--base"))),
            "--cycles" => {
                let v = next("--cycles");
                cycles = v.parse().unwrap_or_else(|_| {
                    eprintln!("reload-verify: --cycles `{v}` is not a count");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("reload-verify: unknown argument {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if let Some(b) = base {
        // Expand the same pure cycle-seed schedule serve-soak walked:
        // the base bank plus one derived seed per reload cycle.
        seeds.extend((0..=cycles).map(|k| loadgen::cycle_seed(b, k)));
        seeds.dedup();
    }
    if addr.is_empty() || seeds.is_empty() {
        eprintln!("reload-verify: --addr plus --seeds or --base is required\n\n{USAGE}");
        std::process::exit(2);
    }
    match loadgen::verify(&addr, &seeds) {
        Ok(seed) => {
            println!("reload-verify: server is complete on seed {seed:#x}");
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn serve_bench(quick: bool, args: &[String]) -> i32 {
    let mut cfg = servebench::ServeBenchConfig {
        quick,
        ..Default::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut next = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("serve-bench: {flag} needs a value\n\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--write" => cfg.write = true,
            "--attach" => cfg.attach = Some(next("--attach")),
            "--baseline" => cfg.baseline = Some(next("--baseline")),
            other => {
                eprintln!("serve-bench: unknown argument {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    servebench::run(&cfg)
}

fn sync_check(args: &[String]) -> i32 {
    let mut sh_path = "ci.sh".to_string();
    let mut yml_path = ".github/workflows/ci.yml".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut next = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("sync-check: {flag} needs a value\n\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--sh" => sh_path = next("--sh"),
            "--yml" => yml_path = next("--yml"),
            other => {
                eprintln!("sync-check: unknown argument {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    sync::run(&sh_path, &yml_path)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut trace_path: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(p),
                None => {
                    eprintln!("--trace needs a path\n\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            _ => rest.push(a),
        }
    }

    if trace_path.is_some() {
        qnn_trace::start();
    }
    let code = match rest.first().map(String::as_str) {
        None | Some("kernels") => {
            run_kernels(quick);
            0
        }
        Some("bench-check") => {
            let mut baseline: Option<&str> = None;
            let mut pareto_fresh: Option<&str> = None;
            let mut i = 1;
            while i < rest.len() {
                match rest[i].as_str() {
                    flag @ ("--baseline" | "--pareto") => {
                        let Some(value) = rest.get(i + 1) else {
                            eprintln!("bench-check {flag} needs a path\n\n{USAGE}");
                            std::process::exit(2);
                        };
                        if flag == "--baseline" {
                            baseline = Some(value.as_str());
                        } else {
                            pareto_fresh = Some(value.as_str());
                        }
                        i += 2;
                    }
                    other => {
                        eprintln!("unknown bench-check argument: {other}\n\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            match pareto_fresh {
                Some(fresh) => pareto_check(baseline.unwrap_or("PARETO_tune.json"), fresh),
                None => bench_check(baseline.unwrap_or("BENCH_kernels.json")),
            }
        }
        Some("kernels-bench") => {
            let baseline = match rest.get(1).map(String::as_str) {
                None => "BENCH_kernels.json",
                Some("--baseline") => match rest.get(2) {
                    Some(p) => p.as_str(),
                    None => {
                        eprintln!("kernels-bench --baseline needs a path\n\n{USAGE}");
                        std::process::exit(2);
                    }
                },
                Some(other) => {
                    eprintln!("unknown kernels-bench argument: {other}\n\n{USAGE}");
                    std::process::exit(2);
                }
            };
            kernels_bench(baseline)
        }
        Some("qkernels") => i32::from(!qcheck::run(quick)),
        Some("serve-bench") => serve_bench(quick, &rest[1..]),
        Some("serve-soak") => serve_soak(&rest[1..]),
        Some("reload-verify") => reload_verify(&rest[1..]),
        Some("sync-check") => sync_check(&rest[1..]),
        Some("trace-summary") => match rest.get(1) {
            Some(p) => trace_summary(p),
            None => {
                eprintln!("trace-summary needs a path\n\n{USAGE}");
                std::process::exit(2);
            }
        },
        Some("table3") => {
            artifacts::table3();
            0
        }
        Some("table4") => {
            artifacts::table4_artifact();
            0
        }
        Some("table5") => {
            artifacts::table5_artifact();
            0
        }
        Some("fig3") => {
            artifacts::fig3();
            0
        }
        Some("fig4") => {
            artifacts::fig4();
            0
        }
        Some("memory") => {
            artifacts::memory_artifact();
            0
        }
        Some("ablations") => {
            artifacts::ablations();
            0
        }
        Some("all") => {
            artifacts::table3();
            artifacts::fig3();
            artifacts::memory_artifact();
            artifacts::fig4();
            artifacts::table4_artifact();
            artifacts::table5_artifact();
            artifacts::ablations();
            run_kernels(quick);
            0
        }
        Some(other) => {
            eprintln!("unknown subcommand: {other}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(path) = trace_path {
        let trace = qnn_trace::stop();
        std::fs::write(&path, trace.to_jsonl()).expect("write trace JSONL");
        println!("wrote trace to {path}");
    }
    if code != 0 {
        std::process::exit(code);
    }
}
