//! Streaming extraction metric families.
//!
//! The streaming engine (`aeetes-stream`) and the server's stream mode
//! record per-stream lifecycle and per-chunk work here: how many streams
//! are open, how many chunks each has carried across, how many tokens are
//! held back waiting to settle, and how long a `flush` takes to drain the
//! tail. Like [`crate::ExtractMetrics`] this is a bundle of
//! pre-registered `Arc` handles: recording touches only striped atomics,
//! never the registry, so observation rides the allocation-free feed path.

use crate::{Counter, Gauge, Histogram, MetricRegistry};
use std::sync::Arc;

/// Stream-mode metrics, one bundle per serving process.
pub struct StreamMetrics {
    /// `aeetes_streams_open`: streams currently open (between the server's
    /// `open` and `close` verbs, disconnects included).
    pub open: Arc<Gauge>,
    /// `aeetes_streams_opened_total`: streams ever opened.
    pub opened: Arc<Counter>,
    /// `aeetes_streams_closed_total`: streams closed for any reason —
    /// explicit close, client disconnect, or server drain.
    pub closed: Arc<Counter>,
    /// `aeetes_stream_chunks_total`: chunks fed across all streams.
    pub chunks: Arc<Counter>,
    /// `aeetes_stream_carried_bytes`: bytes currently buffered across all
    /// open streams (undecoded suffixes, held-back word runs, and the
    /// retained token tails).
    pub carried_bytes: Arc<Gauge>,
    /// `aeetes_stream_emitted_total`: matches emitted across all streams.
    pub emitted: Arc<Counter>,
    /// `aeetes_stream_flush_nanos`: latency of a stream flush (finish the
    /// current document, emit the remaining tail).
    pub flush_nanos: Arc<Histogram>,
}

impl StreamMetrics {
    /// Registers (or re-acquires) the stream families in `registry`.
    pub fn register(registry: &MetricRegistry) -> Self {
        StreamMetrics {
            open: registry.gauge("aeetes_streams_open", "Streams currently open"),
            opened: registry.counter("aeetes_streams_opened_total", "Streams ever opened"),
            closed: registry.counter("aeetes_streams_closed_total", "Streams closed (explicit, disconnect, or drain)"),
            chunks: registry.counter("aeetes_stream_chunks_total", "Chunks fed across all streams"),
            carried_bytes: registry.gauge("aeetes_stream_carried_bytes", "Bytes buffered across open streams awaiting settlement"),
            emitted: registry.counter("aeetes_stream_emitted_total", "Matches emitted across all streams"),
            flush_nanos: registry.histogram("aeetes_stream_flush_nanos", "Latency of a stream flush (drain + emit tail)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_observe() {
        let registry = MetricRegistry::new();
        let m = StreamMetrics::register(&registry);
        m.open.add(1);
        m.opened.inc(1);
        m.chunks.inc(2);
        m.emitted.inc(3);
        m.carried_bytes.add(64);
        m.flush_nanos.observe_nanos(1_500);
        m.open.add(-1);
        m.closed.inc(1);
        let text = crate::prometheus_text(&registry.snapshot());
        assert!(text.contains("aeetes_streams_open 0"), "{text}");
        assert!(text.contains("aeetes_streams_opened_total 1"), "{text}");
        assert!(text.contains("aeetes_stream_chunks_total 2"), "{text}");
        assert!(text.contains("aeetes_stream_carried_bytes 64"), "{text}");
        assert!(text.contains("aeetes_stream_emitted_total 3"), "{text}");
        assert!(text.contains("aeetes_stream_flush_nanos"), "{text}");
    }

    #[test]
    fn register_is_idempotent() {
        let registry = MetricRegistry::new();
        let a = StreamMetrics::register(&registry);
        let b = StreamMetrics::register(&registry);
        a.opened.inc(1);
        b.opened.inc(1);
        let text = crate::prometheus_text(&registry.snapshot());
        assert!(text.contains("aeetes_streams_opened_total 2"), "{text}");
    }
}
