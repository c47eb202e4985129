//! In-memory spans recorded by the harness around its calls into each layer,
//! written out as JSON when the run ends.
//!
//! No probe lives inside the program: a layer that wraps another (`shard`
//! around `core`, `serve` around everything) is timed by calling both on the
//! same document and linking the inner span to the outer one as its parent.
//! A span's *self time* is its duration minus its direct children's
//! durations; when the parent ran its children on several lanes at once
//! (a pool batch on two workers) the children's sum is divided by the lanes.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later ones are counted but dropped, so a fast
/// workload cannot grow the trace without bound.
const MAX_SPANS: usize = 40_000;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.extract`.
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the span of the layer that wraps this one.
    pub parent: Option<usize>,
    /// Shared by all spans of one request (one document, or one batch).
    pub request: u64,
    /// How many of this span's children ran side by side (1 = serially).
    pub lanes: u32,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn duration_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// The span store of one run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Self {
        Trace { epoch: Instant::now(), spans: Vec::with_capacity(MAX_SPANS), dropped: 0 }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds between the epoch and `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index (`None` once the store
    /// is full).
    pub fn push(&mut self, span: Span) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Runs `f` `reps` times and records the fastest run as the span: a
    /// replay explains what a layer costs undisturbed, and one sample of a
    /// millisecond call on a shared machine does not.
    pub fn time_fastest(&mut self, name: &'static str, parent: Option<usize>, request: u64, reps: usize, mut f: impl FnMut()) -> Option<usize> {
        let mut best: Option<(u64, u64)> = None;
        for _ in 0..reps.max(1) {
            let start_ns = self.now_ns();
            f();
            let end_ns = self.now_ns();
            if best.is_none_or(|(s, e)| end_ns - start_ns < e - s) {
                best = Some((start_ns, end_ns));
            }
        }
        let (start_ns, end_ns) = best.expect("at least one repetition");
        self.push(Span { name, start_ns, end_ns, parent, request, lanes: 1 })
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, indexed like [`Trace::spans`].
    /// Signed on purpose: a child replayed slower than the call it explains
    /// shows up as a negative remainder instead of being hidden by a clamp.
    pub fn self_times_ns(&self) -> Vec<f64> {
        let mut children = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, &c)| s.duration_ns() - c / f64::from(s.lanes.max(1)))
            .collect()
    }

    /// Writes the trace as one JSON object (spans one per line).
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"dropped\":{},\"spans\":[", self.dropped)?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{},\"lanes\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request, s.lanes
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>, lanes: u32) -> Span {
        Span { name, start_ns, end_ns, parent, request: 7, lanes }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // A serve request of 1000 ns explained by a 100 ns parse, a 300 ns
        // sharded extract (of which 250 ns is the core engine) and a 50 ns
        // serialise: 550 ns of wire, 50 ns of shard merge.
        let mut t = Trace::new();
        let op = t.push(span("serve.request", 0, 1000, None, 1)).unwrap();
        t.push(span("protocol.parse", 1000, 1100, Some(op), 1));
        let shard = t.push(span("shard.extract", 1100, 1400, Some(op), 1)).unwrap();
        t.push(span("core.extract", 1400, 1650, Some(shard), 1));
        t.push(span("protocol.serialize", 1650, 1700, Some(op), 1));
        assert_eq!(t.self_times_ns(), vec![550.0, 100.0, 50.0, 250.0, 50.0]);
    }

    #[test]
    fn parallel_parent_divides_children_by_lanes() {
        // A batch of 4 documents, 100 ns each, on two lanes takes 230 ns:
        // 200 ns is extraction on the critical path, 30 ns is dispatch.
        let mut t = Trace::new();
        let op = t.push(span("pool.batch", 0, 230, None, 2)).unwrap();
        for i in 0..4 {
            t.push(span("shard.extract", 300 + i * 100, 400 + i * 100, Some(op), 1));
        }
        assert_eq!(t.self_times_ns()[op], 30.0);
    }

    #[test]
    fn a_slow_replay_shows_as_negative_not_zero() {
        let mut t = Trace::new();
        let op = t.push(span("shard.extract", 0, 100, None, 1)).unwrap();
        t.push(span("core.extract", 100, 220, Some(op), 1));
        assert_eq!(t.self_times_ns()[op], -20.0);
    }

    #[test]
    fn json_round_trips_through_the_repo_parser() {
        let mut t = Trace::new();
        let mut calls = 0;
        let id = t.time_fastest("text.tokenize", None, 3, 4, || calls += 1);
        assert_eq!((calls, id), (4, Some(0)), "four repetitions, one span");
        t.push(span("core.extract", 5, 9, id, 1));
        // Inside the crate's own scratch directory, like everything a run writes.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        t.write_json(&path, "unit", 12).unwrap();
        let parsed = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let spans = parsed.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(spans[1].get("name").and_then(|p| p.as_str()), Some("core.extract"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
