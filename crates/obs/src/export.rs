//! Renderers over a registry snapshot: Prometheus text exposition format
//! and a plain JSON document. Both are hand-rolled — the snapshot model is
//! small and this crate stays dependency-free.

use crate::registry::{MetricSnapshot, MetricValue};

const NANOS_PER_SEC: f64 = 1e9;

fn fmt_seconds(nanos: u64) -> String {
    format!("{}", nanos as f64 / NANOS_PER_SEC)
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format (0.0.4).
/// Histograms are exported in seconds; `# HELP`/`# TYPE` headers are
/// emitted once per family, on its first instance.
pub fn prometheus_text(snapshot: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();
    for m in snapshot {
        if !seen.contains(&m.name.as_str()) {
            seen.push(&m.name);
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram { .. } => "histogram",
            };
            out.push_str(&format!("# HELP {} {}\n# TYPE {} {}\n", m.name, m.help, m.name, kind));
        }
        match &m.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("{}{} {}\n", m.name, label_block(&m.labels, None), v));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("{}{} {}\n", m.name, label_block(&m.labels, None), v));
            }
            MetricValue::Histogram { buckets, sum_nanos, count } => {
                for &(bound, cum) in buckets {
                    let le = if bound == u64::MAX { "+Inf".to_string() } else { fmt_seconds(bound) };
                    out.push_str(&format!("{}_bucket{} {}\n", m.name, label_block(&m.labels, Some(("le", &le))), cum));
                }
                out.push_str(&format!("{}_sum{} {}\n", m.name, label_block(&m.labels, None), fmt_seconds(*sum_nanos)));
                out.push_str(&format!("{}_count{} {}\n", m.name, label_block(&m.labels, None), count));
            }
        }
    }
    out
}

/// Renders a snapshot as a JSON array of metric objects. Histogram buckets
/// are `[le_seconds, cumulative_count]` pairs with `null` for `+Inf`.
pub fn json(snapshot: &[MetricSnapshot]) -> String {
    let mut items = Vec::with_capacity(snapshot.len());
    for m in snapshot {
        let labels = m
            .labels
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)))
            .collect::<Vec<_>>()
            .join(",");
        let value = match &m.value {
            MetricValue::Counter(v) => format!("\"type\":\"counter\",\"value\":{v}"),
            MetricValue::Gauge(v) => format!("\"type\":\"gauge\",\"value\":{v}"),
            MetricValue::Histogram { buckets, sum_nanos, count } => {
                let bs = buckets
                    .iter()
                    .map(|&(bound, cum)| {
                        if bound == u64::MAX {
                            format!("[null,{cum}]")
                        } else {
                            format!("[{},{cum}]", fmt_seconds(bound))
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                format!("\"type\":\"histogram\",\"sum_seconds\":{},\"count\":{count},\"buckets\":[{bs}]", fmt_seconds(*sum_nanos))
            }
        };
        items.push(format!(
            "{{\"name\":\"{}\",\"help\":\"{}\",\"labels\":{{{labels}}},{value}}}",
            escape_json(&m.name),
            escape_json(&m.help)
        ));
    }
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricRegistry;

    fn sample_registry() -> MetricRegistry {
        let reg = MetricRegistry::new();
        reg.counter("aeetes_candidates_total", "Candidates generated").inc(42);
        reg.counter_with("aeetes_requests_total", "Requests by outcome", &[("outcome", "served")]).inc(7);
        reg.counter_with("aeetes_requests_total", "Requests by outcome", &[("outcome", "shed")]).inc(9);
        reg.gauge("aeetes_queue_depth", "Queued requests").set(3);
        reg.histogram("aeetes_request_duration_seconds", "Request latency").observe_nanos(1_500_000);
        reg
    }

    #[test]
    fn prometheus_text_shape() {
        let text = prometheus_text(&sample_registry().snapshot());
        assert!(text.contains("# TYPE aeetes_candidates_total counter"));
        assert!(text.contains("aeetes_candidates_total 42"));
        assert!(text.contains("aeetes_requests_total{outcome=\"served\"} 7"));
        assert!(text.contains("aeetes_requests_total{outcome=\"shed\"} 9"));
        assert_eq!(text.matches("# TYPE aeetes_requests_total").count(), 1, "one header per family");
        assert!(text.contains("# TYPE aeetes_queue_depth gauge"));
        assert!(text.contains("aeetes_request_duration_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("aeetes_request_duration_seconds_count 1"));
        assert!(text.contains("aeetes_request_duration_seconds_sum 0.0015"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_bounded_in_seconds() {
        let reg = MetricRegistry::new();
        let h = reg.histogram("h", "help");
        h.observe_nanos(500); // sub-µs → first bucket
        h.observe_nanos(3_000_000_000); // 3s
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("h_bucket{le=\"0.000001\"} 1"), "first bucket holds the sub-µs sample:\n{text}");
        let inf_line = text.lines().find(|l| l.contains("+Inf")).unwrap();
        assert!(inf_line.ends_with(" 2"), "+Inf bucket is the total: {inf_line}");
    }

    #[test]
    fn json_is_parseable_shape() {
        let out = json(&sample_registry().snapshot());
        assert!(out.starts_with('[') && out.ends_with(']'));
        assert!(out.contains("\"name\":\"aeetes_candidates_total\""));
        assert!(out.contains("\"type\":\"counter\",\"value\":42"));
        assert!(out.contains("\"labels\":{\"outcome\":\"served\"}"));
        assert!(out.contains("\"type\":\"histogram\""));
        assert!(out.contains("[null,1]"), "+Inf bucket is null-bounded: {out}");
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("tab\there"), "tab\\there");
    }
}
