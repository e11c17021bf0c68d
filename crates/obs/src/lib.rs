//! `wf-obs` — zero-dependency observability for the workflow-provenance
//! engine: atomic metrics, log2 latency histograms, a bounded structured
//! trace ring, and Prometheus/JSON export.
//!
//! The crate is deliberately self-contained (std only, no shims, no
//! network) so every layer of the engine can depend on it without
//! dragging in serialization machinery. Two pieces, one clock
//! (`std::time::Instant`) under both:
//!
//! - [`metrics`] — [`MetricsRegistry`] holding named [`Counter`]s and
//!   64-bucket log2 [`Histogram`]s with lock-free recording, percentile
//!   estimation, and snapshots. Point-in-time values (gauges) are not
//!   stored: the caller hands the renderers the rows it computed.
//! - [`trace`] — [`TraceRing`], a bounded in-memory ring of structured
//!   [`TraceEvent`]s with overwrite-oldest semantics, for per-subsystem
//!   spans and slow-op promotion.
//!
//! Export surfaces: [`MetricsRegistry::render_prometheus`] (text
//! exposition format) and [`MetricsRegistry::render_json`].

#![forbid(unsafe_code)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, GaugeRow, Histogram, HistogramSnapshot, MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use trace::{chrome_trace_json, next_span_id, TraceEvent, TraceRing};

/// Append a JSON-escaped string literal (with quotes) to `out`.
///
/// Shared by the metrics and trace JSON renderers; public so embedders
/// building composite dumps escape identically.
pub fn json_escape_into(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_controls_and_quotes() {
        let mut out = String::new();
        json_escape_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
