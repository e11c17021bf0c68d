//! Benchmark-side span recorder: spans around every call into a layer,
//! kept in memory and written as Chrome `trace_event` JSON at exit.
//!
//! Spans are recorded from the benchmark's own files only (spans inside
//! the engine are a later issue). Per-event calls are spanned per burst.
//! With tracing off a span costs one branch, so the end-to-end numbers
//! come from runs where this file does nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layer charged with whatever a pass does outside any layer span
/// (loop bookkeeping, event cloning outside bursts, oracle checks).
pub const HARNESS: &str = "bench";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// One id per pass (or per live cycle batch): spans of one unit of
    /// work share it.
    pub trace_id: u32,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    trace_id: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 18 } else { 0 }),
            stack: Vec::new(),
            trace_id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording; used to take the untraced baseline of
    /// `trace.overhead_ratio` inside a traced run.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Start a new unit of work: later spans carry a fresh trace id.
    pub fn next_trace(&mut self) {
        self.trace_id += 1;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span of `layer`. Nesting follows the call stack.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(u32::MAX),
            trace_id: self.trace_id,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.now();
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of the spans called `name` recorded since `mark`
    /// (a value `span_count()` returned earlier). Empty when disabled.
    pub fn durations_since(&self, mark: usize, name: &str) -> Vec<f64> {
        self.spans[mark.min(self.spans.len())..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time per layer in ns: each span's duration minus the part
    /// its direct children cover (children of one parent never overlap:
    /// the recorder is single-threaded and stack-shaped).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                child_cover[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, cover) in self.spans.iter().zip(child_cover) {
            *out.entry(s.layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(cover);
        }
        out
    }

    /// Total duration of root spans: the traced wall time the self
    /// times must add up to.
    pub fn root_wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == u32::MAX)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Chrome `trace_event` JSON (complete events, µs timestamps; one
    /// `tid` row per trace id). Loads in chrome://tracing and Perfetto.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}}}",
                s.name,
                s.layer,
                s.trace_id,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root_wall() {
        let mut t = Tracer::new(true);
        t.span("pass", HARNESS, |t| {
            t.span("a", "ingest", |t| {
                t.span("b", "wal", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            t.span("c", "index", |_| ());
        });
        let total: u64 = t.self_time_by_layer().values().sum();
        assert_eq!(total, t.root_wall_ns());
        assert!(t.self_time_by_layer()["wal"] >= 2_000_000);
        assert!(t.chrome_json().contains("\"cat\":\"wal\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", "ingest", |_| 7), 7);
        assert_eq!(t.span_count(), 0);
    }
}
