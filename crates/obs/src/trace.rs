//! Bounded in-memory structured tracing.
//!
//! [`TraceRing`] keeps the most recent `capacity` [`TraceEvent`]s under a
//! mutex, overwriting the oldest on overflow — recording is off every
//! per-operation fast path (callers only trace lifecycle transitions and
//! slow-op outliers), so a short critical section is fine there.

use crate::json_escape_into;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Process-global span id allocator. Ids start at 1 so `0` can mean
/// "no span" in [`TraceEvent`] and in propagated contexts.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh process-unique span id (never 0).
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the ring was created (engine start).
    pub ts_ns: u64,
    /// Event kind, e.g. `"freeze"`, `"pack_pin"`, `"shed"`.
    pub kind: &'static str,
    /// Run the event concerns, when applicable.
    pub run_id: Option<u64>,
    /// Tier the event concerns, when applicable.
    pub tier: Option<&'static str>,
    /// Duration of the traced span; 0 for instantaneous events.
    pub dur_ns: u64,
    /// Trace the event belongs to (the root span's id); 0 when untraced.
    pub trace_id: u64,
    /// This event's span id; 0 when untraced.
    pub span_id: u64,
    /// Parent span id; 0 for roots and untraced events.
    pub parent_id: u64,
    /// Free-form context (bytes moved, file counts, …).
    pub detail: String,
}

impl TraceEvent {
    /// Render as one compact JSON object.
    pub fn json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"ts_ns\":{},\"kind\":", self.ts_ns);
        json_escape_into(&mut out, self.kind);
        match self.run_id {
            Some(r) => {
                let _ = write!(out, ",\"run\":{r}");
            }
            None => out.push_str(",\"run\":null"),
        }
        match self.tier {
            Some(t) => {
                out.push_str(",\"tier\":");
                json_escape_into(&mut out, t);
            }
            None => out.push_str(",\"tier\":null"),
        }
        let _ = write!(
            out,
            ",\"dur_ns\":{},\"trace\":{},\"span\":{},\"parent\":{},\"detail\":",
            self.dur_ns, self.trace_id, self.span_id, self.parent_id
        );
        json_escape_into(&mut out, &self.detail);
        out.push('}');
        out
    }
}

/// Render events as Chrome `trace_event` JSON (the format `chrome://
/// tracing` and Perfetto load): complete (`"X"`) events for spans with a
/// duration, instants (`"i"`) otherwise. Timestamps are microseconds;
/// each trace becomes one "thread" row (`tid` = trace id) so causally
/// linked spans nest visually.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json_escape_into(&mut out, e.kind);
        let ts_us = e.ts_ns / 1_000;
        if e.dur_ns > 0 {
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{}",
                (e.dur_ns / 1_000).max(1)
            );
        } else {
            let _ = write!(out, ",\"ph\":\"i\",\"ts\":{ts_us},\"s\":\"t\"");
        }
        let _ = write!(out, ",\"pid\":1,\"tid\":{}", e.trace_id);
        out.push_str(",\"cat\":");
        json_escape_into(&mut out, e.tier.unwrap_or("engine"));
        let _ = write!(
            out,
            ",\"args\":{{\"span\":{},\"parent\":{}",
            e.span_id, e.parent_id
        );
        if let Some(run) = e.run_id {
            let _ = write!(out, ",\"run\":{run}");
        }
        if !e.detail.is_empty() {
            out.push_str(",\"detail\":");
            json_escape_into(&mut out, &e.detail);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

struct RingInner {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

/// Bounded ring of [`TraceEvent`]s with overwrite-oldest semantics.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    start: Instant,
    inner: Mutex<RingInner>,
}

impl std::fmt::Debug for RingInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingInner")
            .field("len", &self.buf.len())
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl TraceRing {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            start: Instant::now(),
            inner: Mutex::new(RingInner {
                buf: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
        }
    }

    /// The ring, recovered if a thread panicked holding it: every
    /// statement under the lock leaves a valid ring, so a poisoned one
    /// is still whole.
    fn inner(&self) -> MutexGuard<'_, RingInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record an event with no span identity (`trace`/`span`/`parent`
    /// all 0), stamping `ts_ns` from the ring's creation time. The
    /// oldest event is dropped when the ring is full.
    pub fn record(
        &self,
        kind: &'static str,
        run_id: Option<u64>,
        tier: Option<&'static str>,
        dur_ns: u64,
        detail: String,
    ) {
        self.record_span(kind, run_id, tier, dur_ns, 0, 0, 0, detail);
    }

    /// Record an event carrying causal span identity. Ids of 0 mean
    /// "none"; `trace_id` is the root span's id shared by every event in
    /// the causal tree.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        kind: &'static str,
        run_id: Option<u64>,
        tier: Option<&'static str>,
        dur_ns: u64,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        detail: String,
    ) {
        let event = TraceEvent {
            ts_ns: self.start.elapsed().as_nanos() as u64,
            kind,
            run_id,
            tier,
            dur_ns,
            trace_id,
            span_id,
            parent_id,
            detail,
        };
        let mut inner = self.inner();
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(event);
    }

    /// Copy out the retained events, oldest first.
    pub fn dump(&self) -> Vec<TraceEvent> {
        self.inner().buf.iter().cloned().collect()
    }

    /// Number of events overwritten since creation.
    pub fn dropped(&self) -> u64 {
        self.inner().dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner().buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_overwrites_oldest() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.record("tick", Some(i), None, i, String::new());
        }
        let events = ring.dump();
        assert_eq!(events.len(), 4);
        assert_eq!(ring.dropped(), 6);
        // The four newest survive, oldest first.
        let runs: Vec<u64> = events.iter().filter_map(|e| e.run_id).collect();
        assert_eq!(runs, vec![6, 7, 8, 9]);
        // Timestamps are monotone within the dump.
        for pair in events.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }
    }

    /// A thread that panicked holding the ring's lock leaves a whole
    /// ring: recording (as a sampled span does on a writing thread),
    /// dumping and counting drops go on, none of them panics.
    #[test]
    fn a_poisoned_ring_still_records_dumps_and_counts_drops() {
        let ring = TraceRing::new(2);
        ring.record("before", Some(0), None, 0, String::new());
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _g = ring.inner.lock().unwrap();
                panic!("poison the trace ring on purpose");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(ring.inner.is_poisoned());

        for i in 1..4u64 {
            ring.record("after", Some(i), None, 0, String::new());
        }
        let runs: Vec<u64> = ring.dump().iter().filter_map(|e| e.run_id).collect();
        assert_eq!(runs, [2, 3]);
        assert_eq!((ring.dropped(), ring.len()), (2, 2));
    }

    #[test]
    fn capacity_floor_is_one() {
        let ring = TraceRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.record("a", None, None, 0, String::new());
        ring.record("b", None, None, 0, String::new());
        let events = ring.dump();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "b");
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn event_json_shape() {
        let e = TraceEvent {
            ts_ns: 12,
            kind: "pack_pin",
            run_id: Some(7),
            tier: Some("persisted"),
            dur_ns: 3400,
            trace_id: 9,
            span_id: 11,
            parent_id: 9,
            detail: "bytes=128".to_string(),
        };
        assert_eq!(
            e.json(),
            "{\"ts_ns\":12,\"kind\":\"pack_pin\",\"run\":7,\"tier\":\"persisted\",\
             \"dur_ns\":3400,\"trace\":9,\"span\":11,\"parent\":9,\"detail\":\"bytes=128\"}"
        );
        let bare = TraceEvent {
            ts_ns: 0,
            kind: "shed",
            run_id: None,
            tier: None,
            dur_ns: 0,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            detail: String::new(),
        };
        assert!(bare.json().contains("\"run\":null"));
        assert!(bare.json().contains("\"tier\":null"));
        assert!(bare.json().contains("\"trace\":0,\"span\":0,\"parent\":0"));
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn chrome_export_shapes_complete_and_instant() {
        let span = TraceEvent {
            ts_ns: 2_000,
            kind: "reach",
            run_id: Some(3),
            tier: Some("hot"),
            dur_ns: 5_000,
            trace_id: 1,
            span_id: 1,
            parent_id: 0,
            detail: "u=1 v=2".to_string(),
        };
        let instant = TraceEvent {
            ts_ns: 9_000,
            kind: "stall",
            run_id: None,
            tier: None,
            dur_ns: 0,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            detail: String::new(),
        };
        let json = chrome_trace_json(&[span, instant]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\",\"ts\":2,\"dur\":5"));
        assert!(json.contains("\"ph\":\"i\",\"ts\":9,\"s\":\"t\""));
        assert!(json.contains("\"cat\":\"hot\""));
        assert!(json.contains("\"cat\":\"engine\""));
        assert!(json.contains("\"run\":3"));
        // Sub-microsecond spans still render with a visible width.
        let tiny = TraceEvent {
            dur_ns: 500,
            ..TraceEvent {
                ts_ns: 0,
                kind: "pin",
                run_id: None,
                tier: None,
                dur_ns: 0,
                trace_id: 2,
                span_id: 4,
                parent_id: 2,
                detail: String::new(),
            }
        };
        assert!(chrome_trace_json(&[tiny]).contains("\"dur\":1"));
    }
}
