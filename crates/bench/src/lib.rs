#![warn(missing_docs)]

//! # qnn-bench — offline benchmark harness
//!
//! A zero-dependency benchmark suite: [`timer`] is a hand-rolled
//! warmup + median-of-N timer, [`kernels`] benchmarks the compute core's
//! hot paths (blocked vs naive GEMM, convolution, quantization, a full
//! training step) and emits the committed `BENCH_kernels.json` artifact,
//! [`regression`] gates CI against that committed baseline
//! (`bench-check`), [`pareto`] gates the committed autotuner frontier
//! `PARETO_tune.json` against a fresh `qnn tune` run
//! (`bench-check --pareto`), [`tracereport`] summarizes `qnn-trace`
//! JSONL files,
//! [`loadgen`] is the `serve-soak` load generator behind every serving
//! soak stage: it proves each `qnn-serve` response bit-identical to a
//! local forward on the bank of the model version that answered it,
//! through a server or a `qnn router`, while a control thread cycles
//! live reloads and/or delivers a seeded mid-soak `SIGKILL`,
//! [`servebench`] is the `serve-bench` serving-throughput benchmark that
//! emits and gates the committed `BENCH_serve.json` artifact,
//! [`sync`] is the `sync-check` gate that every workflow job runs its
//! body as a `ci.sh` stage, and [`artifacts`] regenerates every table/figure
//! of the paper (see DESIGN.md §5 for the index).
//!
//! Run the kernel suite (and write `BENCH_kernels.json`) with
//! `cargo run -p qnn-bench --release --bin qnn-bench`, or a single
//! artifact with e.g. `cargo run -p qnn-bench --release -- table3`.

pub mod artifacts;
pub mod json;
pub mod kernels;
pub mod loadgen;
pub mod pareto;
pub mod qcheck;
pub mod regression;
pub mod servebench;
pub mod sync;
pub mod timer;
pub mod tracereport;

/// Scale selector shared by the heavy (training-based) artifacts: set
/// `QNN_BENCH_SCALE=smoke|reduced|full` (default `reduced`).
pub fn bench_scale() -> qnn_core::experiments::ExperimentScale {
    match std::env::var("QNN_BENCH_SCALE").as_deref() {
        Ok("smoke") => qnn_core::experiments::ExperimentScale::Smoke,
        Ok("full") => qnn_core::experiments::ExperimentScale::Full,
        _ => qnn_core::experiments::ExperimentScale::Reduced,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_scale_is_reduced() {
        // Only meaningful when the env var is unset, which is the CI case.
        if std::env::var("QNN_BENCH_SCALE").is_err() {
            assert_eq!(
                super::bench_scale(),
                qnn_core::experiments::ExperimentScale::Reduced
            );
        }
    }
}
