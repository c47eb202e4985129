//! The metric names and units the harness emits — exactly those declared in
//! `BENCHMARK.json` (a unit test holds the two together).

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("artifact_bytes", "bytes")];

/// `(name, unit)` of every per-layer metric, reported with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 77] = [
    // bench — the harness itself, and the three timings of the rounds that
    // do not repeat within a tenth on a shared machine (see README.md)
    ("bench.docs_per_s", "docs/s"),
    ("bench.latency_p50_us", "us"),
    ("bench.latency_p99_us", "us"),
    ("bench.latency_p99_beyond", "count"),
    ("bench.update_p50_ms", "ms"),
    ("bench.passes", "count"),
    ("bench.client_overhead_us_p50", "us"),
    ("bench.trace_overhead_share", "share"),
    ("bench.unattributed_share", "share"),
    ("bench.gold_recall", "share"),
    // text
    ("text.tokenize_ns_per_doc", "ns"),
    ("text.tokens_per_doc", "count"),
    // rules
    ("rules.derive_ms", "ms"),
    ("rules.derived_variants", "count"),
    // index
    ("index.build_ms", "ms"),
    ("index.entries", "count"),
    ("index.size_bytes", "bytes"),
    // core
    ("core.extract_ns_per_doc", "ns"),
    ("core.stage.remap_ns_per_doc", "ns"),
    ("core.stage.prefix_update_ns_per_doc", "ns"),
    ("core.stage.window_slide_ns_per_doc", "ns"),
    ("core.stage.candidate_gen_ns_per_doc", "ns"),
    ("core.stage.verify_ns_per_doc", "ns"),
    ("core.window_share", "share"),
    ("core.verify_share", "share"),
    ("core.accessed_entries_per_doc", "count"),
    ("core.candidates_per_doc", "count"),
    ("core.verifications_per_doc", "count"),
    ("core.matches_per_doc", "count"),
    ("core.windows_per_doc", "count"),
    ("core.candidate_precision", "share"),
    ("core.strategy.simple.ns_per_doc", "ns"),
    ("core.strategy.simple.accessed_entries_per_doc", "count"),
    ("core.strategy.skip.ns_per_doc", "ns"),
    ("core.strategy.skip.accessed_entries_per_doc", "count"),
    ("core.strategy.dynamic.ns_per_doc", "ns"),
    ("core.strategy.dynamic.accessed_entries_per_doc", "count"),
    ("core.strategy.lazy.ns_per_doc", "ns"),
    ("core.strategy.lazy.accessed_entries_per_doc", "count"),
    ("core.topk5_ns_per_doc", "ns"),
    ("core.topk5_candidate_share", "share"),
    ("core.wal_append_sync_us_p50", "us"),
    // sim
    ("sim.verify_ns_per_call", "ns"),
    ("sim.variants_per_verify", "count"),
    // frozen
    ("frozen.freeze_ms", "ms"),
    ("frozen.open_us", "us"),
    ("frozen.first_extract_us", "us"),
    ("frozen.extract_ratio", "ratio"),
    // shard
    ("shard.extract_ns_per_doc", "ns"),
    ("shard.overhead_ratio", "ratio"),
    ("shard.fanout_ns_per_doc", "ns"),
    ("shard.route_fanout_share", "share"),
    ("shard.apply_update_ms_p50", "ms"),
    ("shard.apply_update_ms_p90", "ms"),
    ("shard.post_swap_first_extract_us", "us"),
    ("shard.reader_docs_per_s_beside_writer", "docs/s"),
    // pool
    ("pool.dispatch_ns_per_doc", "ns"),
    ("pool.scaling_w2", "ratio"),
    ("pool.tasks_per_batch", "count"),
    ("pool.steals_per_batch", "count"),
    ("pool.worker_busy_share", "share"),
    ("pool.cpu_ms_per_doc", "ms"),
    // stream
    ("stream.feed_ns_per_doc", "ns"),
    ("stream.overhead_ratio", "ratio"),
    // protocol
    ("protocol.parse_ns_per_req", "ns"),
    ("protocol.serialize_ns_per_resp", "ns"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.response_bytes", "bytes"),
    // serve
    ("serve.inproc_us_per_req", "us"),
    ("serve.wire_us_p50", "us"),
    ("serve.stdin_us_per_req", "us"),
    ("serve.cpu_us_per_req", "us"),
    ("serve.shed_share", "share"),
    // cluster
    ("cluster.hop_us_p50", "us"),
    ("cluster.retries", "count"),
    // obs
    ("obs.metrics_scrape_us", "us"),
    ("obs.metric_families", "count"),
];

/// Metric values collected by a run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name = value`; a name set twice is a harness bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.0.insert(name, value).is_none(), "metric {name} set twice");
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Serialises the metrics in `schema` order as the contract's `metrics`
    /// object, with every digit of every value.
    ///
    /// # Panics
    /// Panics when the recorded names are not exactly the schema's: the
    /// benchmark never prints a partial or an undeclared metric.
    pub fn to_json(&self, schema: &[(&'static str, &'static str)]) -> String {
        assert_eq!(self.0.len(), schema.len(), "recorded metrics {:?} do not match the schema", self.0.keys().collect::<Vec<_>>());
        let fields: Vec<String> = schema
            .iter()
            .map(|(name, unit)| {
                let value = self.0.get(name).unwrap_or_else(|| panic!("metric {name} was never recorded"));
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;
    use serde_json::Value;

    fn declared(benchmark: &Value, section: &str) -> Vec<(String, String)> {
        benchmark
            .get(section)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` array"))
            .iter()
            .map(|m| (m.get("name").and_then(Value::as_str).unwrap().to_string(), m.get("unit").and_then(Value::as_str).unwrap().to_string()))
            .collect()
    }

    fn owned(schema: &[(&str, &str)]) -> Vec<(String, String)> {
        schema.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn emitted_names_are_exactly_those_declared_in_benchmark_json() {
        let benchmark = serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(declared(&benchmark, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&benchmark, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = benchmark
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        assert_eq!(benchmark.get("paths").and_then(Value::as_array).unwrap().len(), 1);
        assert_eq!(benchmark.get("run_seconds").and_then(Value::as_f64), Some(crate::DEFAULT_SECONDS));
    }

    #[test]
    fn names_and_units_stay_inside_the_contract() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16 && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{unit}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn json_holds_every_declared_metric_and_refuses_a_partial_set() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, i as f64 + 0.125);
        }
        let parsed = serde_json::from_str(&m.to_json(&END_TO_END)).unwrap();
        assert_eq!(parsed.get("artifact_bytes").and_then(|v| v.get("value")).and_then(Value::as_f64), Some(2.125));
        assert_eq!(parsed.get("peak_rss_mb").and_then(|v| v.get("unit")).and_then(Value::as_str), Some("MiB"));
        let partial = Metrics::default();
        assert!(std::panic::catch_unwind(|| partial.to_json(&END_TO_END)).is_err());
    }
}
