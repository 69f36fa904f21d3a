//! The result line: every metric by name with its unit, and the count
//! of operations attempted and failed.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload of an untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("prepare_s", "s"),
    ("train_s", "s"),
    ("annotate_fps", "1/s"),
    ("top1_acc", "ratio"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("write_p50_ms", "ms"),
];

/// Per-layer metrics, printed by every workload of a traced run. A
/// layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("pyast.parse_ms", "ms"),
    ("pyast.symtable_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("models.prepare_ms", "ms"),
    ("models.embed_ms", "ms"),
    ("models.prepare_s", "s"),
    ("models.embed_s", "s"),
    ("nn.train_step_s", "s"),
    ("nn.adam_s", "s"),
    ("nn.steps", "count"),
    ("nn.fresh_allocs", "count"),
    ("space.knn_ms", "ms"),
    ("space.markers", "count"),
    ("space.overlay", "count"),
    ("space.add_ms", "ms"),
    ("space.add_s", "s"),
    ("space.index_s", "s"),
    ("check.verify_s", "s"),
    ("check.calls", "count"),
    ("check.accept_ratio", "ratio"),
    ("core.save_s", "s"),
    ("core.load_s", "s"),
    ("core.predict_s", "s"),
    ("core.predict_ms", "ms"),
    ("serbin.encode_ms", "ms"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.residual_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.largest_batch", "count"),
    ("serve.errors", "count"),
    ("serve.targets_per_request", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.reconcile_ratio", "ratio"),
    ("trace.stage_coverage", "ratio"),
    ("trace.spans", "count"),
];

/// Operations attempted and failed. A failed operation is an error
/// reply, a transport error or an output that differs from what it
/// must be.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line. Untraced runs print the end-to-end metrics,
    /// traced runs the per-layer ones. A missing end-to-end metric, or
    /// one that reads 0 or is not finite, is an error: the run printed
    /// something other than a measurement.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(&v) if v.is_finite() && (traced || v > 0.0) => v,
                Some(&v) => return Err(format!("metric {name} reads {v}")),
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            fields.join(", ")
        ))
    }
}

/// A JSON number with every digit the value has.
fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names of one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|rest| {
                let rest = rest.trim_start().trim_start_matches('"');
                rest[..rest.find('"').expect("quoted name")].to_string()
            })
            .collect()
    }

    #[test]
    fn metric_names_match_the_benchmark_file() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layer);
    }

    #[test]
    fn result_line_carries_every_metric_of_its_kind() {
        let mut out = Outcome::default();
        out.tally.record(true);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            out.set(name, 1.0 + i as f64 / 7.0);
        }
        let line = out.result_line(false).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        let traced = out.result_line(true).expect("layers default to 0");
        assert!(traced.contains("\"serve.residual_ms\": {\"value\": 0.0"));
        assert!(!traced.contains("setup_s"));
    }

    #[test]
    fn missing_or_zero_end_to_end_metrics_are_errors() {
        let mut out = Outcome::default();
        out.tally.record(true);
        assert!(out.result_line(false).is_err());
        for (name, _) in END_TO_END {
            out.set(name, 2.0);
        }
        out.set("p50_ms", 0.0);
        assert!(out.result_line(false).is_err());
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut out = Outcome::default();
        out.tally.record(true);
        out.tally.record(false);
        let line = out.result_line(true).expect("traced");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }
}
