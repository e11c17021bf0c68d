//! Engine-wide telemetry: registry-backed counters, latency instruments,
//! and the structured trace ring, shared by every subsystem through
//! `EngineShared::obs`.
//!
//! Two cost tiers, so instrumentation stays off the critical path:
//!
//! - **Counters always run.** They are single relaxed atomic adds, and
//!   `ServiceStats` reads them, so `EngineBuilder::telemetry(false)` does
//!   not turn them off.
//! - **Spans, histograms, and traces are gated** on the `enabled` flag.
//!   There is one clock, `std::time::Instant` (a vDSO read, ~20 ns);
//!   histograms are three relaxed atomics, and trace events are recorded
//!   only for lifecycle transitions (freeze/spill/shed/re-heat/
//!   compaction) or when a span exceeds the slow-op threshold. The three
//!   sub-µs hot paths — the ~40 ns reachability probe, the
//!   few-hundred-ns ingest apply and the subscription notify behind it —
//!   are *sampled* (1 in 64), which is what makes that clock affordable
//!   there: a sampled pooled ingest reads it four times (the producer's
//!   enqueue span and the worker's apply span), so ≤ 4 reads per 64
//!   events; the other 63 pay one branch and a thread-local increment.
//!
//! Point-in-time values are not kept here: their one home is
//! [`crate::ServiceStats`], whose `gauges()` table the exporters render.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wf_obs::{next_span_id, Counter, Histogram, MetricsRegistry, TraceRing};

/// Sample 1 operation in 64 for latency recording on the three sub-µs
/// hot paths (the reach probe, the ingest apply and the subscription
/// notify behind it).
const SAMPLE_MASK: u32 = 63;

thread_local! {
    static REACH_SAMPLE: Cell<u32> = const { Cell::new(0) };
    static APPLY_SAMPLE: Cell<u32> = const { Cell::new(0) };
    static NOTIFY_SAMPLE: Cell<u32> = const { Cell::new(0) };
    /// The span the current thread is executing under; [`SpanCtx::NONE`]
    /// outside any span. Child spans and leaf trace events read this for
    /// parentage; [`Telemetry::begin_under`] seeds it across thread
    /// boundaries (e.g. an enqueue's context riding the ingest envelope
    /// into the worker).
    static CURRENT_SPAN: Cell<SpanCtx> = const { Cell::new(SpanCtx::NONE) };
    /// The query profile being filled in by an EXPLAIN run on this
    /// thread, if any. Frame-load hooks accumulate into it.
    static PROFILE: RefCell<Option<QueryProfile>> = const { RefCell::new(None) };
}

/// A propagable causal context: the trace (root span) id plus the id of
/// the span currently in scope. `Copy` and two words, so it rides
/// channel envelopes across threads for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanCtx {
    /// Root span id shared by every event in the causal tree; 0 = none.
    pub trace: u64,
    /// Innermost open span id; 0 = none.
    pub span: u64,
}

impl SpanCtx {
    pub const NONE: SpanCtx = SpanCtx { trace: 0, span: 0 };

    #[inline]
    pub fn is_none(self) -> bool {
        self.span == 0
    }
}

/// Advance one per-thread sampling counter; true on every 64th tick.
#[inline]
fn sample_tick(counter: &Cell<u32>) -> bool {
    let n = counter.get().wrapping_add(1);
    counter.set(n);
    n & SAMPLE_MASK == 0
}

/// The span context the calling thread is currently under.
#[inline]
pub(crate) fn current_span() -> SpanCtx {
    CURRENT_SPAN.with(Cell::get)
}

/// Put back a context saved with [`current_span`]: a panic unwinds past
/// [`Telemetry::finish`], so whoever catches it restores the context the
/// dead span left installed.
pub(crate) fn set_current_span(ctx: SpanCtx) {
    CURRENT_SPAN.with(|c| c.set(ctx));
}

/// An open span: its start time and, for one opened by
/// [`Telemetry::begin`] / [`Telemetry::begin_under`], its identity and
/// the context it replaced (restored on [`Telemetry::finish`]). A *leaf*
/// handle ([`Telemetry::timer`]) has no identity of its own and installs
/// no context: it traces under whatever span is current when it closes.
/// An *inert* handle (telemetry disabled, or an unsampled operation)
/// carries nothing and makes `finish` a no-op.
#[must_use = "finish the span with Telemetry::finish"]
pub(crate) struct SpanHandle {
    pub ctx: SpanCtx,
    prev: SpanCtx,
    start: Option<Instant>,
    parent: u64,
}

impl SpanHandle {
    /// A handle that records nothing and restores nothing.
    pub const fn inert() -> Self {
        SpanHandle {
            ctx: SpanCtx::NONE,
            prev: SpanCtx::NONE,
            start: None,
            parent: 0,
        }
    }

    /// Whether closing this handle records anything.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.start.is_some()
    }

    /// Nanoseconds since the span opened (0 for inert handles) — for a
    /// stage that is timed but has no instrument of its own.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.map_or(0, |s| s.elapsed().as_nanos() as u64)
    }
}

/// Construction-time knobs, filled in by `EngineBuilder`.
pub(crate) struct TelemetryConfig {
    pub enabled: bool,
    pub slow_op_ns: u64,
    pub trace_capacity: usize,
}

/// One latency instrument: a histogram declared together with the
/// trace-event kind every span recorded into it closes under, and
/// whether each such span is traced (`always`: lifecycle transitions and
/// the already-sampled ingest spans) or only the slow ones.
pub(crate) struct Instrument {
    hist: Arc<Histogram>,
    kind: &'static str,
    always: bool,
}

/// Trace-event kinds recorded without an instrument: instantaneous
/// lifecycle events, plus `tier_scan` (a per-tier share of the
/// cross-run scan's span). With the instruments' kinds this is every
/// kind the ring can hold; [`Telemetry::record_leaf`] holds emitters to
/// it in debug builds, and `tests/observability.rs` holds README and
/// `scripts/obsdump` to it.
const LIFECYCLE_KINDS: [&str; 14] = [
    "shed",
    "stall",
    "pack_pin_failed",
    "tier_scan",
    "wal_truncate",
    "wal_reset",
    "wal_reset_failed",
    "wal_sync_failed",
    "wal_recover",
    "wal_recover_failed",
    "wal_torn_tail",
    "wal_skip_record",
    "wal_skip_run",
    "wal_replay_error",
];

/// All engine observability state: lifetime counters, latency
/// instruments, and the trace ring.
pub(crate) struct Telemetry {
    pub enabled: bool,
    pub slow_op_ns: u64,
    pub started: Instant,
    pub registry: MetricsRegistry,
    pub trace: TraceRing,
    /// The instruments' trace kinds, in declaration order.
    span_kinds: Vec<&'static str>,

    // Lifetime counters (always recorded; ServiceStats reads them).
    pub runs_opened: Counter,
    pub runs_completed: Counter,
    pub runs_failed: Counter,
    pub events_ingested: Counter,
    pub flushes: Counter,
    pub freezes: Counter,
    pub spills: Counter,
    pub reheats: Counter,
    pub compactions: Counter,
    pub segment_sheds: Counter,
    pub pack_pins: Counter,
    pub wal_records: Counter,
    pub wal_bytes: Counter,
    pub wal_truncations: Counter,
    pub wal_recovered_runs: Counter,
    pub wal_recovered_records: Counter,
    pub sub_deltas: Counter,
    pub sub_lagged: Counter,

    // Latency instruments (recorded only when `enabled`).
    pub h_ingest_enqueue: Instrument,
    pub h_ingest_apply: Instrument,
    pub h_flush_wait: Instrument,
    pub h_freeze: Instrument,
    pub h_freeze_encode: Instrument,
    pub h_spill: Instrument,
    pub h_pack_pin: Instrument,
    pub h_reheat: Instrument,
    pub h_compaction: Instrument,
    pub h_reach: Instrument,
    pub h_cross_run_scan: Instrument,
    pub h_wal_append: Instrument,
    pub h_wal_fsync: Instrument,
    pub h_sub_notify: Instrument,
    pub h_sub_match: Instrument,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("slow_op_ns", &self.slow_op_ns)
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    pub fn new(config: TelemetryConfig) -> Self {
        let registry = MetricsRegistry::new();
        let counter = |name: &str, help: &str| registry.counter(name, help);
        let mut span_kinds = Vec::new();
        let mut span = |name: &str, kind: &'static str, always: bool, help: &str| {
            span_kinds.push(kind);
            Instrument {
                hist: registry.histogram(name, help),
                kind,
                always,
            }
        };
        Self {
            enabled: config.enabled,
            slow_op_ns: config.slow_op_ns,
            started: Instant::now(),
            trace: TraceRing::new(config.trace_capacity),

            runs_opened: counter("wf_runs_opened_total", "runs opened"),
            runs_completed: counter("wf_runs_completed_total", "runs completed"),
            runs_failed: counter("wf_runs_failed_total", "run operations rejected"),
            events_ingested: counter("wf_events_ingested_total", "events applied to hot runs"),
            flushes: counter("wf_flushes_total", "flush barriers completed"),
            freezes: counter("wf_freezes_total", "hot runs frozen"),
            spills: counter("wf_spills_total", "frozen runs spilled to disk"),
            reheats: counter(
                "wf_reheats_total",
                "persisted runs re-heated to the frozen tier",
            ),
            compactions: counter("wf_compactions_total", "segment compaction passes"),
            segment_sheds: counter(
                "wf_segment_sheds_total",
                "resident segments shed by the LRU",
            ),
            pack_pins: counter(
                "wf_pack_pins_total",
                "frames loaded from disk (first load or re-load after a shed)",
            ),
            wal_records: counter("wf_wal_records_total", "records appended to the WAL"),
            wal_bytes: counter("wf_wal_bytes_total", "bytes appended to the WAL"),
            wal_truncations: counter(
                "wf_wal_truncations_total",
                "WAL shard compactions after checkpoints",
            ),
            wal_recovered_runs: counter(
                "wf_wal_recovered_runs_total",
                "hot runs resurrected from the WAL at build time",
            ),
            wal_recovered_records: counter(
                "wf_wal_recovered_records_total",
                "WAL records replayed at build time",
            ),
            sub_deltas: counter(
                "wf_sub_deltas_total",
                "deltas enqueued to standing-query subscriptions",
            ),
            sub_lagged: counter(
                "wf_sub_lagged_total",
                "subscription deltas dropped by bounded notify queues (drop-oldest)",
            ),

            h_ingest_enqueue: span(
                "wf_ingest_enqueue_ns",
                "ingest",
                true,
                "one event routed and enqueued to an ingest worker (sampled 1 in 64)",
            ),
            h_ingest_apply: span(
                "wf_ingest_apply_ns",
                "ingest_apply",
                true,
                "one event applied to a hot run",
            ),
            h_flush_wait: span(
                "wf_flush_wait_ns",
                "flush_barrier",
                false,
                "flush barrier wait",
            ),
            h_freeze: span(
                "wf_freeze_ns",
                "freeze",
                true,
                "freeze of one hot run (encode + promote)",
            ),
            // A sub-span of `freeze`: no trace event of its own unless
            // it alone crosses the slow-op threshold.
            h_freeze_encode: span(
                "wf_freeze_encode_ns",
                "freeze_encode",
                false,
                "label arena encode during freeze",
            ),
            h_spill: span(
                "wf_spill_ns",
                "spill",
                true,
                "segment write of one frozen run",
            ),
            h_pack_pin: span(
                "wf_pack_pin_ns",
                "pack_pin",
                false,
                "first load of a persisted blob at its place (read + verify)",
            ),
            h_reheat: span(
                "wf_reheat_ns",
                "reheat",
                true,
                "persisted run promoted back to the frozen tier",
            ),
            h_compaction: span(
                "wf_compaction_ns",
                "compaction",
                true,
                "one segment compaction pass",
            ),
            h_reach: span(
                "wf_reach_ns",
                "reach",
                false,
                "reachability probe (sampled 1 in 64)",
            ),
            h_cross_run_scan: span(
                "wf_cross_run_scan_ns",
                "cross_run_scan",
                false,
                "cross-run query scan",
            ),
            h_wal_append: span(
                "wf_wal_append_ns",
                "wal_append",
                false,
                "one WAL record framed and written",
            ),
            h_wal_fsync: span(
                "wf_wal_fsync_ns",
                "wal_fsync",
                false,
                "one WAL fsync (a committer pass or the final sync at shutdown)",
            ),
            h_sub_notify: span(
                "wf_sub_notify_ns",
                "sub_notify",
                false,
                "subscription fan-out after one applied event (sampled 1 in 64)",
            ),
            h_sub_match: span(
                "wf_sub_match_ns",
                "sub_match",
                true,
                "subscription catch-up scan at registration",
            ),

            span_kinds,
            registry,
        }
    }

    /// Every trace-event kind the ring can hold: the instruments' kinds
    /// in declaration order, then [`LIFECYCLE_KINDS`].
    pub fn trace_kinds(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.span_kinds.iter().copied().chain(LIFECYCLE_KINDS)
    }

    /// Open a leaf span: starts the clock and nothing else. Inert when
    /// telemetry is disabled (the span then costs one branch).
    #[inline]
    pub fn timer(&self) -> SpanHandle {
        SpanHandle {
            start: self.enabled.then(Instant::now),
            ..SpanHandle::inert()
        }
    }

    /// Open a root span on this thread: allocates ids, installs the
    /// context as [`CURRENT_SPAN`], and starts the clock. Inert when
    /// telemetry is disabled. Close with [`finish`](Self::finish).
    #[inline]
    pub fn begin(&self) -> SpanHandle {
        self.open(SpanCtx::NONE)
    }

    /// Open a child span under an explicit parent context — the
    /// cross-thread edge (the parent context rode a channel envelope to
    /// this thread). Inert when telemetry is disabled or `parent` is
    /// none (the producer did not sample this operation).
    #[inline]
    pub fn begin_under(&self, parent: SpanCtx) -> SpanHandle {
        if parent.is_none() {
            return SpanHandle::inert();
        }
        self.open(parent)
    }

    /// A span with its own identity: a child of `parent`, or the root of
    /// a new trace when `parent` is none.
    #[inline]
    fn open(&self, parent: SpanCtx) -> SpanHandle {
        if !self.enabled {
            return SpanHandle::inert();
        }
        let span = next_span_id();
        let trace = if parent.is_none() { span } else { parent.trace };
        let ctx = SpanCtx { trace, span };
        let prev = CURRENT_SPAN.with(|c| c.replace(ctx));
        SpanHandle {
            ctx,
            prev,
            start: Some(Instant::now()),
            parent: parent.span,
        }
    }

    /// Close a span: record its duration into the instrument's histogram
    /// and trace it under the instrument's kind when the instrument
    /// always traces or the duration reaches the slow-op threshold. A
    /// span with its own identity restores the thread context it
    /// replaced and traces with its causal ids; a leaf parents under the
    /// calling thread's current span, if any. `detail` is only rendered
    /// when the event is actually traced. Returns the duration in ns (0
    /// for inert handles).
    ///
    /// Never inlined: every caller is a sampled (1 in 64) or a
    /// per-lifecycle-operation path, where a call is free, while the
    /// body inlined into `RunHandle::reach` grew that function's frame
    /// for the 63 probes that never get here — `reach_hot_qps` −6 % on
    /// every wfbench workload until this attribute went on.
    #[inline(never)]
    pub fn finish(
        &self,
        handle: SpanHandle,
        inst: &Instrument,
        run_id: Option<u64>,
        tier: Option<&'static str>,
        detail: impl FnOnce() -> String,
    ) -> u64 {
        let Some(start) = handle.start else { return 0 };
        let SpanCtx { trace, span } = handle.ctx;
        if span != 0 {
            CURRENT_SPAN.with(|c| c.set(handle.prev));
        }
        let dur_ns = start.elapsed().as_nanos() as u64;
        inst.hist.record(dur_ns);
        if inst.always || dur_ns >= self.slow_op_ns {
            if span != 0 {
                self.trace.record_span(
                    inst.kind,
                    run_id,
                    tier,
                    dur_ns,
                    trace,
                    span,
                    handle.parent,
                    detail(),
                );
            } else {
                self.record_leaf(inst.kind, run_id, tier, dur_ns, detail());
            }
        }
        dur_ns
    }

    /// Record a leaf event with causal identity derived from the calling
    /// thread's current span (a fresh root when there is none). Only
    /// runs when the caller already decided to trace, so the id
    /// allocation is off every untraced path.
    pub(crate) fn record_leaf(
        &self,
        kind: &'static str,
        run_id: Option<u64>,
        tier: Option<&'static str>,
        dur_ns: u64,
        detail: String,
    ) {
        debug_assert!(
            self.trace_kinds().any(|k| k == kind),
            "trace kind {kind:?} is not declared in telemetry.rs"
        );
        let cur = current_span();
        let id = next_span_id();
        let (trace, parent) = if cur.is_none() {
            (id, 0)
        } else {
            (cur.trace, cur.span)
        };
        self.trace
            .record_span(kind, run_id, tier, dur_ns, trace, id, parent, detail);
    }

    /// Record an instantaneous lifecycle event (no duration), parented
    /// under the calling thread's current span, if any.
    pub fn event(
        &self,
        kind: &'static str,
        run_id: Option<u64>,
        tier: Option<&'static str>,
        detail: impl FnOnce() -> String,
    ) {
        if self.enabled {
            self.record_leaf(kind, run_id, tier, 0, detail());
        }
    }

    /// Whether this reach probe should be timed (1 in 64 per thread, and
    /// only when telemetry is enabled).
    #[inline]
    pub fn reach_sampled(&self) -> bool {
        self.enabled && REACH_SAMPLE.with(sample_tick)
    }

    /// Whether this ingest apply should be timed (1 in 64 per thread,
    /// and only when telemetry is enabled). Sampled for the same reason
    /// as reach: the apply itself is a few hundred ns, so two clock
    /// reads per event would be a double-digit tax.
    #[inline]
    pub fn apply_sampled(&self) -> bool {
        self.enabled && APPLY_SAMPLE.with(sample_tick)
    }

    /// Whether this subscription fan-out should be timed (1 in 64 per
    /// thread, and only when telemetry is enabled): the notify itself is
    /// tens of ns when nothing matches.
    #[inline]
    pub fn notify_sampled(&self) -> bool {
        self.enabled && NOTIFY_SAMPLE.with(sample_tick)
    }

    /// Record a duration the WAL measured itself. It ran synchronously
    /// inside the worker's apply span, so tracing whenever a span is
    /// open (the sampled 1-in-64 applies) keeps the causal tree complete
    /// without changing the `WalObserver` trait.
    fn observe_wal(&self, inst: &Instrument, dur_ns: u64, detail: impl FnOnce() -> String) {
        if self.enabled {
            inst.hist.record(dur_ns);
            if dur_ns >= self.slow_op_ns || !current_span().is_none() {
                self.record_leaf(inst.kind, None, None, dur_ns, detail());
            }
        }
    }
}

/// Bridges [`wf_wal::WalObserver`] into the engine's telemetry, so the
/// dependency-free WAL crate feeds the same registry, histograms, and
/// trace ring as every other subsystem. Counters always run (the same
/// contract as the rest of the engine); histogram records and trace
/// events are gated on `enabled`.
pub(crate) struct WalTelemetry(pub(crate) Arc<Telemetry>);

impl wf_wal::WalObserver for WalTelemetry {
    fn append(&self, bytes: u64, dur_ns: u64) {
        let t = &self.0;
        t.wal_records.inc();
        t.wal_bytes.add(bytes);
        t.observe_wal(&t.h_wal_append, dur_ns, || format!("bytes={bytes}"));
    }

    fn fsync(&self, dur_ns: u64) {
        let t = &self.0;
        t.observe_wal(&t.h_wal_fsync, dur_ns, String::new);
    }

    fn truncation(&self, shard: usize, bytes_before: u64, bytes_after: u64) {
        self.0.wal_truncations.inc();
        self.lifecycle(
            "wal_truncate",
            format!("shard={shard} bytes={bytes_before}->{bytes_after}"),
        );
    }

    fn lifecycle(&self, kind: &'static str, detail: String) {
        debug_assert!(LIFECYCLE_KINDS.contains(&kind), "undeclared kind {kind:?}");
        if self.0.enabled {
            self.0.trace.record(kind, None, None, 0, detail);
        }
    }
}

/// Structured cost profile of one EXPLAIN'd query: what the scan
/// actually paid for, per tier and per stage. Returned by
/// [`crate::ExplainQuery`]'s query methods; render with
/// [`json`](Self::json) or [`table`](Self::table).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// Trace id of the query's root span (join against `trace_dump()` /
    /// the Chrome export); 0 when telemetry is disabled.
    pub trace_id: u64,
    /// Runs scanned in the hot tier.
    pub runs_hot: u64,
    /// Runs scanned in the frozen tier.
    pub runs_frozen: u64,
    /// Runs scanned in the persisted tier.
    pub runs_persisted: u64,
    /// Labels visited across all scanned runs.
    pub labels_scanned: u64,
    /// Hot-tier index chunks spanned by the scanned labels (the index is
    /// a doubling chunk array; a scan of n labels walks ~log2(n) chunks).
    pub chunks_touched: u64,
    /// Frames loaded from disk: first loads at a place (read + checksum
    /// verify) and re-loads after a shed (read only).
    pub pack_pins: u64,
    /// Reads served by a frame already loaded from disk (no read, no
    /// checksum verify).
    pub verifies_skipped: u64,
    /// View collection (tier snapshot + filter + sort), ns.
    pub snapshot_ns: u64,
    /// Time scanning hot-tier runs, ns.
    pub scan_hot_ns: u64,
    /// Time scanning frozen-tier runs, ns.
    pub scan_frozen_ns: u64,
    /// Time scanning persisted-tier runs, ns.
    pub scan_persisted_ns: u64,
    /// End-to-end wall time of the query, ns.
    pub wall_ns: u64,
}

impl QueryProfile {
    /// Total runs scanned across tiers.
    #[must_use]
    pub fn runs_scanned(&self) -> u64 {
        self.runs_hot + self.runs_frozen + self.runs_persisted
    }

    /// CPU time attributed to query stages (snapshot + per-tier scans),
    /// ns. The query runs single-threaded, so `wall_ns - cpu_ns()` is
    /// time spent off-CPU: frame loads waiting on disk.
    #[must_use]
    pub fn cpu_ns(&self) -> u64 {
        self.snapshot_ns + self.scan_hot_ns + self.scan_frozen_ns + self.scan_persisted_ns
    }

    /// Render as one compact JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"trace_id\":{},\"runs\":{{\"hot\":{},\"frozen\":{},\"persisted\":{}}},\
             \"labels_scanned\":{},\"chunks_touched\":{},\"pack_pins\":{},\
             \"verifies_skipped\":{},\
             \"stages_ns\":{{\"snapshot\":{},\"scan_hot\":{},\"scan_frozen\":{},\
             \"scan_persisted\":{}}},\"cpu_ns\":{},\"wall_ns\":{}}}",
            self.trace_id,
            self.runs_hot,
            self.runs_frozen,
            self.runs_persisted,
            self.labels_scanned,
            self.chunks_touched,
            self.pack_pins,
            self.verifies_skipped,
            self.snapshot_ns,
            self.scan_hot_ns,
            self.scan_frozen_ns,
            self.scan_persisted_ns,
            self.cpu_ns(),
            self.wall_ns,
        );
        out
    }

    /// Render as a human-readable table.
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "query profile (trace {})", self.trace_id);
        let _ = writeln!(
            out,
            "  runs scanned      hot={} frozen={} persisted={}",
            self.runs_hot, self.runs_frozen, self.runs_persisted
        );
        let _ = writeln!(
            out,
            "  labels scanned    {} ({} index chunks)",
            self.labels_scanned, self.chunks_touched
        );
        let _ = writeln!(
            out,
            "  bufmgr            pack_pins={} verifies_skipped={}",
            self.pack_pins, self.verifies_skipped
        );
        let _ = writeln!(
            out,
            "  stages (ns)       snapshot={} hot={} frozen={} persisted={}",
            self.snapshot_ns, self.scan_hot_ns, self.scan_frozen_ns, self.scan_persisted_ns
        );
        let _ = writeln!(
            out,
            "  total             cpu={} ns, wall={} ns",
            self.cpu_ns(),
            self.wall_ns
        );
        out
    }
}

/// Install a fresh profile on this thread; subsequent frame-load
/// hooks accumulate into it until [`take_profile`] removes it.
pub(crate) fn install_profile() {
    PROFILE.with(|p| *p.borrow_mut() = Some(QueryProfile::default()));
}

/// Remove and return this thread's active profile, if any.
pub(crate) fn take_profile() -> Option<QueryProfile> {
    PROFILE.with(|p| p.borrow_mut().take())
}

/// Mutate this thread's active profile; no-op (one thread-local read)
/// when no EXPLAIN is running — which is every non-EXPLAIN query, so
/// hooks in the load path stay off the hot path.
#[inline]
pub(crate) fn with_profile(f: impl FnOnce(&mut QueryProfile)) {
    PROFILE.with(|p| {
        if let Some(prof) = p.borrow_mut().as_mut() {
            f(prof);
        }
    });
}

/// Raw per-run query-counter bump, kept per-slot (not in the registry)
/// so concurrent readers touching different runs do not contend on one
/// cache line.
#[inline]
pub(crate) fn bump(cell: &AtomicU64) {
    cell.fetch_add(1, Ordering::Relaxed);
}
