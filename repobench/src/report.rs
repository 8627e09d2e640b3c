//! The metric catalogue and the result line the benchmark ends with.

use std::collections::BTreeMap;

/// The Table III rows in `Precision::paper_sweep()` order, as metric-name
/// suffixes.
pub const PRECISION_SLUGS: [&str; 7] = [
    "float32", "fixed32", "fixed16", "fixed8", "fixed4", "pow2", "binary",
];

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut v = vec![("img_per_s".to_string(), "img/s")];
    v.extend(
        PRECISION_SLUGS
            .iter()
            .map(|p| (format!("img_per_s.{p}"), "img/s")),
    );
    v.extend([
        ("latency_p50_ms".to_string(), "ms"),
        ("latency_p99_ms".to_string(), "ms"),
        ("setup_s".to_string(), "s"),
        ("peak_rss_mb".to_string(), "MiB"),
    ]);
    v
}

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("tensor.im2col_us_per_img", "us"),
        ("tensor.gemm_f32_us_per_img", "us"),
        ("tensor.pool_us_per_img", "us"),
        ("tensor.gemm_f32_gflops", "GFLOP/s"),
        ("tensor.macs_per_img", "count"),
        ("tensor.bytes_per_img", "bytes"),
        ("quant.act_quantize_us_per_img", "us"),
        ("quant.native_matmul_us_per_img", "us"),
        ("quant.weight_pack_ms", "ms"),
        ("nn.fwd.conv2d_us_per_img", "us"),
        ("nn.fwd.dense_us_per_img", "us"),
        ("nn.fwd.maxpool_us_per_img", "us"),
        ("nn.fwd.avgpool_us_per_img", "us"),
        ("nn.fwd.relu_us_per_img", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    v.extend(
        PRECISION_SLUGS
            .iter()
            .map(|p| (format!("nn.native_mac_share.{p}"), "fraction")),
    );
    v.extend(
        [
            ("nn.bwd_us_per_img", "us"),
            ("nn.eval_us_per_img", "us"),
            ("nn.train_other_us_per_img", "us"),
            ("serve.batch_size_mean", "count"),
            ("serve.groups_per_batch", "count"),
            ("serve.batches_per_s", "1/s"),
            ("serve.server_latency_p50_us", "us"),
            ("serve.server_latency_p99_us", "us"),
            ("serve.queue_wait_p50_us", "us"),
            ("serve.transport_p50_us", "us"),
            ("serve.engine_busy_share", "fraction"),
            ("serve.proto_encode_ns", "ns"),
            ("serve.proto_decode_ns", "ns"),
            ("serve.busy_rejections", "fraction"),
            ("serve.gen_late_ms_p99", "ms"),
            ("trace.overhead_pct", "%"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// Metric values by name, in a fixed order.
pub type Values = BTreeMap<String, f64>;

/// What a run did: its operation counts, whether every output checked
/// out, and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (forwards, fine-tunes or requests).
    pub attempted: u64,
    /// Operations whose output was wrong, missing or refused.
    pub failed: u64,
    /// Metric values by name.
    pub values: Values,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another outcome's operation counts to this one.
    pub fn absorb_counts(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Renders the final result line for `catalogue` (one of [`end_to_end`] or
/// [`per_layer`]).
///
/// # Errors
///
/// Names a catalogue metric the run did not produce or produced as a
/// non-finite number.
pub fn render(outcome: &Outcome, catalogue: &[(String, &'static str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        if !valid_name(name) {
            return Err(format!("metric name {name:?} is not [A-Za-z0-9_.-]+"));
        }
        let v = *outcome
            .values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

/// Whether `name` is a legal metric name: a letter or digit, then up to 63
/// more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metric_names_are_legal_and_unique() {
        let all: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|(n, _)| n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let unique: BTreeSet<&String> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(!valid_name("a b") && !valid_name(".x") && !valid_name(""));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let names_in = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\":")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let names = |c: Vec<(String, &str)>| c.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        assert_eq!(names_in("end_to_end"), names(end_to_end()));
        assert_eq!(names_in("per_layer"), names(per_layer()));
    }

    #[test]
    fn render_demands_every_metric() {
        let cat = vec![("a".to_string(), "s"), ("b".to_string(), "ms")];
        let mut o = Outcome::default();
        o.record(true);
        o.values.insert("a".into(), 1.5);
        assert!(render(&o, &cat).is_err());
        o.values.insert("b".into(), 0.25);
        assert_eq!(
            render(&o, &cat).unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.25, \"unit\": \"ms\"}}}"
        );
        o.record(false);
        assert!(render(&o, &cat).unwrap().starts_with("{\"correct\": false"));
        o.values.insert("b".into(), f64::NAN);
        assert!(render(&o, &cat).is_err());
    }
}
