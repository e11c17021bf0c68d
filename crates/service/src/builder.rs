//! [`EngineBuilder`]: every engine knob, fixed at construction, and the
//! `build()` that wires the subsystems together — telemetry, the spill
//! directory's reloaded history, WAL recovery, the shared state and the
//! two background threads, in that order.

use crate::engine::{EngineShared, WfEngine};
use crate::ingest::Ingest;
use crate::lifecycle::{Ticker, TierPolicy, Tiering};
use crate::recovery::{self, Recovered};
use crate::spill::SpillDir;
use crate::store::{LabelStore, SegmentLru};
use crate::sub::{SubHub, DEFAULT_SUB_QUEUE_CAPACITY};
use crate::telemetry::{Telemetry, TelemetryConfig};
use crate::watchdog::{self, Health};
use crate::SpecContext;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use wf_spec::Specification;
use wf_wal::WalSync;

/// Configures and builds a [`WfEngine`] — every knob is fixed at
/// construction, which removes v1's `&mut self` post-construction
/// configuration footgun.
pub struct EngineBuilder {
    contexts: Vec<Arc<SpecContext>>,
    shards: usize,
    wal_shards: usize,
    policy: TierPolicy,
    spill_dir: Option<PathBuf>,
    wal_dir: Option<PathBuf>,
    wal_sync: WalSync,
    max_resident_bytes: Option<u64>,
    telemetry: bool,
    slow_op_threshold: std::time::Duration,
    trace_capacity: usize,
    watchdog: Option<std::time::Duration>,
    sub_queue_capacity: usize,
}

/// Default slow-op threshold: spans at or above this are promoted into
/// the trace ring even on otherwise-untracked fast paths.
pub const DEFAULT_SLOW_OP_THRESHOLD: std::time::Duration = std::time::Duration::from_millis(25);

/// Default bounded trace-ring capacity (events retained).
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// A builder with default configuration and an empty catalog.
    pub fn new() -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(4);
        Self {
            contexts: Vec::new(),
            shards: 16,
            wal_shards: parallelism.clamp(1, 8),
            policy: TierPolicy::default(),
            spill_dir: None,
            wal_dir: None,
            wal_sync: WalSync::default(),
            max_resident_bytes: None,
            telemetry: true,
            slow_op_threshold: DEFAULT_SLOW_OP_THRESHOLD,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            watchdog: None,
            sub_queue_capacity: DEFAULT_SUB_QUEUE_CAPACITY,
        }
    }

    /// Add a specification to the catalog, building its skeleton labels
    /// (§5.1 preprocessing) here, once.
    pub fn spec(self, spec: Specification) -> Self {
        self.context(SpecContext::from_spec(spec))
    }

    /// Add a prebuilt catalog entry. Accepts `SpecContext` or
    /// `Arc<SpecContext>` — pass the `Arc` to share one preprocessed
    /// spec across several engines (benchmarks do this).
    pub fn context(mut self, ctx: impl Into<Arc<SpecContext>>) -> Self {
        self.contexts.push(ctx.into());
        self
    }

    /// Registry shard count (rounded up to a power of two). More shards
    /// = less run-lookup contention at high run counts.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Number of WAL shard files (default: the available parallelism,
    /// clamped to 1..=8). Each run's records land on one shard, picked
    /// by a hash of its id; a log written with another count is re-homed
    /// at recovery. Writes apply on their callers' threads whatever this
    /// is: ingest parallelism is the number of calling threads.
    pub fn ingest_workers(mut self, n: usize) -> Self {
        self.wal_shards = n.max(1);
        self
    }

    /// Accepted and ignored: ingest has no queue to bound — every write
    /// applies on its caller's thread. Kept so existing builder chains
    /// compile.
    pub fn queue_capacity(self, _n: usize) -> Self {
        self
    }

    /// **Recency bound of the hot tier** — its one bound: keep at most
    /// `n` *completed* runs hot; older completions are frozen (encoded
    /// arena) by the background tiering worker, in completion order. `0`
    /// freezes every run as soon as it completes. Live runs are never
    /// frozen, however many there are.
    pub fn freeze_after(mut self, n: usize) -> Self {
        self.policy.freeze_after = Some(n);
        self
    }

    /// **Spill directory**: sealed runs' blobs are written here, byte for
    /// byte (versioned binary segments appended to pack files), and their
    /// held frames let go for the packs, read back lazily. Every change
    /// is one record appended to the directory's seal log — a run sealed
    /// at a pack, offset and length, or evicted — and at build time the
    /// runs it places are registered, so historical runs from previous
    /// engine lifetimes keep answering [`WfEngine::query`] — with the
    /// **same catalog** (spec ids must mean the same thing across
    /// lifetimes). A record naming a spec beyond this catalog, or one
    /// that does not read back, is not registered but is kept — in the
    /// log, with the exact bytes it names in its pack — for a build that
    /// can read it. A run id the log names is never issued again, evicted
    /// or not. A directory an earlier build left its manifest in is
    /// refused, and left as it is.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// **Write-ahead log directory**: every ingest operation — run open,
    /// event, completion — is journaled here *before* it is applied, in
    /// [`Self::ingest_workers`] append-only shard files. At build time the
    /// directory is scanned and surviving runs are replayed back into
    /// the hot tier (crash recovery); a torn tail — the partial record
    /// of an append that was cut mid-write — is truncated away, keeping
    /// the valid prefix. Runs already persisted to the
    /// [spill directory](Self::spill_dir) are not replayed (their WAL
    /// history is checkpointed, and dropped once it is dead-heavy). Unset
    /// = no durability for hot runs (pre-WAL behavior).
    pub fn wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// **WAL group-commit window** (default [`WalSync::GroupCommit`] with
    /// a 2ms window, the one policy): a dedicated committer thread
    /// fsyncs the appends of each window in one batch, and
    /// [`WfEngine::flush`] doubles as the durability barrier that cuts
    /// the window short. An acknowledged event is durable at the next
    /// pass or `flush()`. No effect without [`Self::wal_dir`].
    pub fn wal_sync(mut self, policy: WalSync) -> Self {
        self.wal_sync = policy;
        self
    }

    /// **Resident-byte budget of the persisted tier**: frames loaded
    /// from disk are tracked by a size/age LRU, and once their total
    /// exceeds `n` bytes the least-recently-queried frames are dropped
    /// (oldest freeze time breaking ties) — so the runs queries keep
    /// touching are the ones that stay resident. Unset = a frame stays
    /// once loaded.
    pub fn max_resident_bytes(mut self, n: u64) -> Self {
        self.max_resident_bytes = Some(n);
        self
    }

    /// **Automatic compaction threshold**: the tiering worker runs the
    /// [`WfEngine::compact`] pass once `n` underfull pack files
    /// accumulate (minimum 2) or a pack turns dead-heavy. Unset = manual
    /// [`WfEngine::compact`] only.
    pub fn compact_after(mut self, n: usize) -> Self {
        self.policy.compact_after = Some(n);
        self
    }

    /// **Telemetry toggle** (default on): when off, span timing,
    /// histograms, and trace recording are skipped — only the plain
    /// lifetime counters behind [`WfEngine::stats`] keep running. The
    /// tiering bench uses this to measure instrumentation overhead.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// **Slow-op threshold** (default 25ms): any timed span — ingest
    /// apply, flush barrier, first frame load, cross-run scan — whose
    /// duration reaches this is promoted into the trace ring, so outliers
    /// are visible in [`WfEngine::trace_dump`] without tracing every
    /// operation. `Duration::ZERO` traces every timed span.
    pub fn slow_op_threshold(mut self, threshold: std::time::Duration) -> Self {
        self.slow_op_threshold = threshold;
        self
    }

    /// **Trace ring capacity** (default 1024): how many structured
    /// events [`WfEngine::trace_dump`] retains; the oldest are
    /// overwritten first.
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.trace_capacity = events;
        self
    }

    /// **Stall watchdog** (default off): spawn a monitor thread that
    /// samples every subsystem's progress watermark each `interval` —
    /// WAL committer flush lag, tiering backlog, LRU shed-thrash rate,
    /// subscription drop rate. Violations are promoted
    /// into the trace ring as `stall` events and escalate
    /// [`WfEngine::health`] to `Degraded` after one violating interval
    /// and `Stalled` after two consecutive ones.
    pub fn watchdog(mut self, interval: std::time::Duration) -> Self {
        self.watchdog = Some(interval.max(std::time::Duration::from_millis(1)));
        self
    }

    /// **Subscription queue bound** (default
    /// [`DEFAULT_SUB_QUEUE_CAPACITY`]): how many deltas each standing
    /// query buffers before overflowing drop-oldest (the consumer then
    /// receives a [`crate::Delta::Lagged`] with the exact drop count).
    pub fn sub_queue_capacity(mut self, n: usize) -> Self {
        self.sub_queue_capacity = n.max(1);
        self
    }

    /// Build the engine and start its background threads: the tiering
    /// worker and, when configured, the stall watchdog.
    pub fn build(self) -> WfEngine {
        let obs = Arc::new(Telemetry::new(TelemetryConfig {
            enabled: self.telemetry,
            slow_op_ns: u64::try_from(self.slow_op_threshold.as_nanos()).unwrap_or(u64::MAX),
            trace_capacity: self.trace_capacity,
        }));
        // Reload persisted history from the spill directory's seal log:
        // header-only reads; a run's frame is loaded, with one positioned
        // read of its blob, at its first query.
        let lru = Arc::new(SegmentLru::new(self.max_resident_bytes, Arc::clone(&obs)));
        let (spill, persisted) = self
            .spill_dir
            .map(|dir| SpillDir::open(dir, &lru, self.contexts.len()))
            .unzip();
        let persisted = persisted.unwrap_or_default();
        // Crash recovery, first half: scan and rewrite the log now (the
        // reopened writer is part of the shared state)…
        let recovered = match &self.wal_dir {
            Some(dir) => {
                let (shards, sync) = (self.wal_shards, self.wal_sync);
                recovery::scan(dir, shards, sync, &obs, &persisted, &self.contexts)
            }
            None => Recovered::default(),
        };
        // Fresh run ids start above everything either log has named.
        let spill_next = spill.as_ref().map_or(0, SpillDir::next_run);
        let shared = Arc::new(EngineShared {
            catalog: self.contexts.into_boxed_slice(),
            store: LabelStore::new(self.shards, persisted, lru),
            subs: SubHub::new(self.sub_queue_capacity),
            next_run: AtomicU64::new(spill_next.max(recovered.next_run)),
            obs,
            ingest: Ingest::default(),
            tiering: Tiering::new(self.policy),
            spill,
            wal_unavailable: self.wal_dir.is_some() && recovered.wal.is_none(),
            wal: recovered.wal,
            watchdog: Ticker::new(Health::Healthy),
        });
        // …second half: replay the surviving runs into the hot tier
        // before the engine takes its first write.
        recovery::replay(&shared, recovered.replay);
        Tiering::spawn(&shared);
        if let Some(interval) = self.watchdog {
            watchdog::spawn(&shared, interval);
        }
        WfEngine { shared }
    }
}
