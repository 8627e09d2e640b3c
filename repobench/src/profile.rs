//! Folding recorded traces into per-layer totals.

use std::collections::BTreeMap;

use qnn_trace::Trace;

/// Span and counter totals summed over any number of traces.
///
/// Spans are keyed by class, not full path: `fwd:3:conv2d` becomes
/// `fwd.conv2d`, every `bwd:*` span is `bwd`, `serve.infer:{tag}` is
/// `serve.infer`; other spans keep their name.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    /// Span time not covered by child spans, ns.
    pub self_ns: BTreeMap<String, u64>,
    /// Span time including children, ns.
    pub total_ns: BTreeMap<String, u64>,
    /// Completed spans.
    pub count: BTreeMap<String, u64>,
    /// Counter sums.
    pub counters: BTreeMap<String, u64>,
}

fn class(leaf: &str) -> String {
    if let Some(rest) = leaf.strip_prefix("fwd:") {
        let layer = rest.rsplit(':').next().unwrap_or(rest);
        return format!("fwd.{layer}");
    }
    if leaf.starts_with("bwd:") {
        return "bwd".to_string();
    }
    if leaf.starts_with("serve.infer:") {
        return "serve.infer".to_string();
    }
    leaf.to_string()
}

impl Totals {
    /// Adds one finished trace.
    pub fn add(&mut self, trace: &Trace) {
        for row in trace.summary_rows() {
            let leaf = row.path.rsplit('/').next().unwrap_or(&row.path);
            let key = class(leaf);
            *self.self_ns.entry(key.clone()).or_default() += row.self_ns();
            *self.total_ns.entry(key.clone()).or_default() += row.total_ns;
            *self.count.entry(key).or_default() += row.count;
        }
        for (name, v) in &trace.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
    }

    /// Adds another set of totals.
    pub fn merge(&mut self, other: &Totals) {
        for (mine, theirs) in [
            (&mut self.self_ns, &other.self_ns),
            (&mut self.total_ns, &other.total_ns),
            (&mut self.count, &other.count),
            (&mut self.counters, &other.counters),
        ] {
            for (k, v) in theirs {
                *mine.entry(k.clone()).or_default() += v;
            }
        }
    }

    /// A counter's sum, 0 when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Self time of a span class, ns.
    pub fn self_of(&self, key: &str) -> u64 {
        self.self_ns.get(key).copied().unwrap_or(0)
    }

    /// Total time of a span class, ns.
    pub fn total_of(&self, key: &str) -> u64 {
        self.total_ns.get(key).copied().unwrap_or(0)
    }

    /// Completed spans of a class.
    pub fn count_of(&self, key: &str) -> u64 {
        self.count.get(key).copied().unwrap_or(0)
    }

    /// Share of forward MACs that ran on the native kernels.
    pub fn native_share(&self) -> f64 {
        let native = self.counter("nn.fwd.flops.native") as f64;
        let total = native + self.counter("nn.fwd.flops.simulated") as f64;
        if total == 0.0 {
            0.0
        } else {
            native / total
        }
    }
}

/// Runs `f` inside a trace session and folds what it recorded into
/// `totals`.
pub fn traced<R>(totals: &mut Totals, f: impl FnOnce() -> R) -> R {
    qnn_trace::start();
    let out = f();
    totals.add(&qnn_trace::stop());
    out
}

/// The `nn.fwd.*` self times per forwarded image, from spans recorded
/// around `Network::forward` calls.
pub fn forward_layer_metrics(t: &Totals, values: &mut crate::report::Values) {
    let images = t.counter("nn.fwd.images").max(1) as f64;
    for layer in ["conv2d", "dense", "maxpool", "avgpool", "relu"] {
        let ns = t.self_of(&format!("fwd.{layer}")) as f64;
        values.insert(format!("nn.fwd.{layer}_us_per_img"), ns / 1e3 / images);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_fold_by_class() {
        assert_eq!(class("fwd:12:conv2d"), "fwd.conv2d");
        assert_eq!(class("bwd:0:dense"), "bwd");
        assert_eq!(class("serve.infer:6"), "serve.infer");
        assert_eq!(class("epoch"), "epoch");
        let _g = crate::test_lock();
        let mut t = Totals::default();
        traced(&mut t, || {
            qnn_trace::span!("epoch");
            {
                qnn_trace::span!("fwd:0:conv2d");
                qnn_trace::counter!("nn.fwd.flops.native", 3);
                qnn_trace::counter!("nn.fwd.flops.simulated", 1);
            }
        });
        assert_eq!(t.count_of("epoch"), 1);
        assert_eq!(t.count_of("fwd.conv2d"), 1);
        assert!(t.total_of("epoch") >= t.total_of("fwd.conv2d"));
        assert_eq!(
            t.self_of("epoch"),
            t.total_of("epoch") - t.total_of("fwd.conv2d")
        );
        assert_eq!(t.native_share(), 0.75);
    }
}
