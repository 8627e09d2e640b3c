//! End-to-end checks of the tracing layer and benchmark artifacts: the
//! committed baseline round-trips through the JSON parser, and tracing a
//! Table IV run changes neither its results nor its accounting. That a
//! trace does not depend on the worker count is pinned in `qnn-nn`'s
//! `trace_threads` test, in a process of its own.

use qnn_bench::json::Json;
use qnn_bench::tracereport;
use qnn_core::experiments::{table4, ExperimentScale};
use qnn_tensor::par;

#[test]
fn committed_baseline_parses_field_for_field() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_kernels.json");
    let parsed = Json::parse(&text).expect("baseline is valid JSON");
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("qnn-bench/kernels/v1")
    );
    let benches = parsed
        .get("benchmarks")
        .and_then(Json::as_arr)
        .expect("benchmarks array");
    assert!(!benches.is_empty());
    for b in benches {
        let name = b.get("name").and_then(Json::as_str).expect("entry name");
        // Every entry is either a timing (with calibration metadata) or
        // a derived ratio — never both, never neither.
        match (b.get("ns_per_op"), b.get("ratio")) {
            (Some(ns), None) => {
                assert!(ns.as_f64().unwrap() > 0.0, "{name}");
                assert!(
                    b.get("iters").and_then(Json::as_f64).unwrap() >= 1.0,
                    "{name}"
                );
                assert!(
                    b.get("reps").and_then(Json::as_f64).unwrap() >= 1.0,
                    "{name}"
                );
            }
            (None, Some(r)) => assert!(r.as_f64().unwrap() > 0.0, "{name}"),
            other => panic!("{name}: unexpected field combination {other:?}"),
        }
    }
    // Field-for-field round trip: render the parsed value and parse it
    // back; nothing may be lost or reordered.
    assert_eq!(Json::parse(&parsed.render()).unwrap(), parsed);
}

#[test]
fn traced_table4_is_bit_identical_with_consistent_accounting() {
    // Single worker: spans nest serially, so child durations must sum
    // to no more than the experiment span.
    par::set_threads(Some(1));
    let plain = table4(ExperimentScale::Smoke, 11).unwrap();
    qnn_trace::start();
    let traced = table4(ExperimentScale::Smoke, 11).unwrap();
    let trace = qnn_trace::stop();
    par::set_threads(None);

    // Tracing must not perturb the computation at all.
    assert_eq!(plain, traced);

    let total = trace.path_total_ns("table4").expect("table4 span recorded");
    let rows = trace.summary_rows();
    let direct_child_sum: u64 = rows
        .iter()
        .filter(|r| r.path.starts_with("table4/") && !r.path["table4/".len()..].contains('/'))
        .map(|r| r.total_ns)
        .sum();
    assert!(
        direct_child_sum <= total,
        "children {direct_child_sum} ns exceed experiment span {total} ns"
    );
    assert!(
        direct_child_sum > 0,
        "no nested spans recorded under table4"
    );
    // The expected structure is present: pre-training, QAT points, and
    // per-layer forward/backward spans below them.
    assert!(rows.iter().any(|r| r.path.contains("pretrain:")));
    assert!(rows.iter().any(|r| r.path.contains("qat:")));
    assert!(rows.iter().any(|r| r.path.contains("fwd:")));
    assert!(rows.iter().any(|r| r.path.contains("bwd:")));
    assert!(trace.counters["tensor.gemm.calls"] > 0);
    assert!(trace.counters["accel.cycles.compute"] > 0);
    assert!(trace.gauges.contains_key("accel.energy.total_uj"));

    // The JSONL writer and the offline reader agree on the schema.
    let jsonl = trace.to_jsonl();
    let summary = tracereport::summarize(&jsonl).expect("summarize own trace");
    assert!(summary.contains("table4"));
    assert!(summary.contains("tensor.gemm.calls"));
}
