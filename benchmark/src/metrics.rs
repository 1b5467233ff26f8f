//! The metrics the benchmark reports: names, units and the result line.

use std::collections::BTreeMap;

/// A reported metric: name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Reported by every untraced run.
pub const END_TO_END: &[Spec] =
    &[spec("trials_per_s", "1/s"), spec("setup_s", "s"), spec("peak_rss_mb", "MB")];

/// Reported by every traced run.
pub const PER_LAYER: &[Spec] = &[
    spec("campaign.runner.idle_share", "ratio"),
    spec("campaign.runner.trial_ms.p50", "ms"),
    spec("campaign.runner.trial_ms.tail", "ms"),
    spec("campaign.runner.trial_ms.tail_pct", "%"),
    spec("campaign.runner.trial_ms.samples", "count"),
    spec("fail_ratio", "ratio"),
    spec("campaign.io.us_per_trial", "us"),
    spec("campaign.io.commit_us", "us"),
    spec("campaign.coord.claim_us", "us"),
    spec("campaign.coord.claim_won_ratio", "ratio"),
    spec("campaign.coord.claim_attempts", "count"),
    spec("campaign.artifacts.load_us", "us"),
    spec("campaign.artifacts.train_task_s", "s"),
    spec("core.train_us_per_trial", "us"),
    spec("core.eval_us_per_trial", "us"),
    spec("nn.fwd_us", "us"),
    spec("nn.bwd_us", "us"),
    spec("nn.apply_us", "us"),
    spec("nn.infer_us", "us"),
    spec("nn.fwd_gflops", "GFLOP/s"),
    spec("nn.fwd_flops_dense", "flop"),
    spec("nn.fwd_flops_conv", "flop"),
    spec("nn.dispatch_per_trial", "count"),
    spec("nn.train_batch.p50", "count"),
    spec("envs.step_us", "us"),
    spec("envs.render_us", "us"),
    spec("rl.learn_us", "us"),
    spec("rl.act_us", "us"),
    spec("federated.aggregate_us", "us"),
    spec("federated.aggregate_us_per_trial", "us"),
    spec("federated.bytes_per_round", "bytes"),
    spec("fault.inject_us", "us"),
    spec("fault.bits_per_inject", "count"),
    spec("mitigation.observe_us", "us"),
    spec("mitigation.checkpoint_us", "us"),
    spec("mitigation.scan_us", "us"),
    spec("mitigation.repair_us", "us"),
    spec("mitigation.overhead_pct", "%"),
    spec("obs.overhead_pct", "%"),
];

/// Metric values by name, checked against a spec table on output.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object for `table`, in table order. Every metric
    /// of the table must be set to a finite value.
    pub fn render(&self, table: &[Spec]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(table.len());
        for s in table {
            let v =
                self.get(s.name).ok_or_else(|| format!("metric {} was not measured", s.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", s.name));
            }
            parts.push(format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", s.name, s.unit));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frlfi_campaign::fmt::json::parse;
    use serde::Value;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect("string").to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let table = |t: &[Spec]| {
            t.iter().map(|s| (s.name.to_owned(), s.unit.to_owned())).collect::<Vec<_>>()
        };
        assert_eq!(listed(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), table(PER_LAYER));
    }

    #[test]
    fn render_requires_every_metric_and_keeps_digits() {
        let mut m = Metrics::default();
        m.set("trials_per_s", 9.061_234_567_8);
        m.set("setup_s", 1.5e-5);
        assert!(m.render(END_TO_END).unwrap_err().contains("peak_rss_mb"));
        m.set("peak_rss_mb", 61.25);
        let out = parse(&m.render(END_TO_END).expect("complete")).expect("json");
        let tps = out.get("trials_per_s").and_then(|v| v.get("value")).and_then(Value::as_float);
        assert_eq!(tps, Some(9.061_234_567_8));
        m.set("setup_s", f64::NAN);
        assert!(m.render(END_TO_END).is_err());
    }
}
