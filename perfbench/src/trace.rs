//! In-memory span recording for the traced runs.
//!
//! A span times one call into one layer's public function. Spans are
//! pushed into memory while the workload runs and written out as JSONL
//! only when it has finished, so tracing adds one clock read pair and one
//! vector push per call and no I/O.

use serde_json::{json, Value};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// One timed call: which layer, which request or sweep cell caused it
/// (0 = the sweep itself, outside any cell), and when it ran relative to
/// the tracer's creation.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: &'static str,
    parent: u64,
    start: Duration,
    dur: Duration,
    thread: ThreadId,
}

/// Collects spans from any thread.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` as one span of `layer` caused by `parent`.
    pub fn span<T>(&self, layer: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(layer, parent, start, end);
        out
    }

    /// Record a span whose endpoints the caller measured itself.
    pub fn record(&self, layer: &'static str, parent: u64, start: Instant, end: Instant) {
        let span = Span {
            layer,
            parent,
            start: start.duration_since(self.origin),
            dur: end.duration_since(start),
            thread: std::thread::current().id(),
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking span")
            .push(span);
    }

    fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking span")
            .clone()
    }

    /// Total time spent in `layer`.
    pub fn busy(&self, layer: &str) -> Duration {
        self.spans()
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur)
            .sum()
    }

    /// Number of calls into `layer`.
    pub fn calls(&self, layer: &str) -> u64 {
        self.spans().iter().filter(|s| s.layer == layer).count() as u64
    }

    /// Distinct threads that made the traced calls.
    pub fn threads(&self) -> usize {
        let ids: std::collections::HashSet<ThreadId> =
            self.spans().iter().map(|s| s.thread).collect();
        ids.len()
    }

    /// Durations of every span of `layer`, in recording order.
    pub fn durations(&self, layer: &str) -> Vec<Duration> {
        self.spans()
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in self.spans() {
            let line: Value = json!({
                "layer": s.layer,
                "parent": s.parent,
                "start_us": s.start.as_secs_f64() * 1e6,
                "end_us": (s.start + s.dur).as_secs_f64() * 1e6,
            });
            text.push_str(&serde_json::to_string(&line)?);
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
