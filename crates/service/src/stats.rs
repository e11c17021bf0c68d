//! Point-in-time snapshot of engine activity, including the per-tier
//! byte footprints of the label store — the one home of every value
//! that is read rather than counted.
//!
//! [`crate::WfEngine::stats`] is a pure read: lifetime totals come from
//! the atomic counters of the engine's [`crate::telemetry::Telemetry`]
//! registry (the `wf_*_total` families — counted once, read here and by
//! the exporters), point-in-time values from one walk of the run
//! registry. Nothing else stores the latter: the gauges
//! `render_prometheus()` / `render_json()` export are
//! [`ServiceStats::gauges`] of a snapshot, and the CI footprint line is
//! [`ServiceStats::tier_footprint_json`] of one. A flat `Copy` struct,
//! the same with telemetry enabled or disabled.

use std::fmt::Write as _;
use std::time::Duration;

/// A point-in-time snapshot of engine activity across all three label
/// tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceStats {
    /// Runs ever opened.
    pub runs_opened: u64,
    /// Runs currently accepting events (opened − completed − failed −
    /// evicted).
    pub runs_live: u64,
    /// Runs marked complete.
    pub runs_completed: u64,
    /// Runs whose ingestion hit an error.
    pub runs_failed: u64,
    /// Insertion events successfully applied across all runs. Every
    /// write — live, on its caller's thread, or replayed from the WAL at
    /// build time — goes through the one apply body that counts here.
    pub events_ingested: u64,
    /// Durability barriers taken ([`crate::WfEngine::flush`]).
    pub flushes: u64,
    /// Reachability queries served, summed over currently-registered
    /// runs of every tier (counted per run so the query hot path never
    /// contends on an engine-wide cache line; evicting a run drops its
    /// count, tiering carries it along).
    pub queries_answered: u64,
    /// Labels published, across all tiers.
    pub labels_published: u64,
    /// Labels currently held decoded in the hot tier.
    pub labels_hot: u64,
    /// **Hot tier** label storage in bits (the paper's label-length
    /// accounting, over decoded in-memory labels).
    pub label_bits_total: u64,
    /// **Hot tier** resident bytes. Counted, per hot run: one 16-byte
    /// *cell* per published label (name, prefix position, the label's
    /// own entry); one 24-byte prefix-table *slot* per distinct prefix
    /// array; and each such *array* once, at its full size (entries plus
    /// the `Arc` header) — the memory a freeze actually releases, several
    /// times [`Self::hot_bytes`]. It covers the *only* copy of a hot
    /// run's labels: the index is where an applied label lives. Not
    /// counted: the index's *chunk directories* and the chunks' unreached
    /// slots (the cells' unreached neighbours, the slots of replaced
    /// composite vertices), the run's fixed state, and — until
    /// `complete()` drops it — the run's *labeler* (the parse tree, the
    /// placements, the expansion slots; it shares the arrays counted
    /// here). `tests/alloc_free_reads.rs` holds it against the
    /// allocator: a live 6 000-label `running_example` run keeps ≈ 114 B
    /// of heap per label against 47 B reported here, 57 B once completed
    /// (173 / 57 B with 96-byte parse-tree nodes and a full chunk
    /// directory per table; 198 / 64 / 83 B when a cell took a 32-byte
    /// slot, 222 / 75 / 112 B when each cell held a fat `Arc` to its
    /// prefix, 408 / 167 / 231 B when every label boxed a private copy of
    /// it).
    pub hot_resident_bytes: u64,
    /// Runs currently in the hot tier (any status).
    pub runs_hot: u64,
    /// Sealed runs holding their blob's frame (the frozen tier).
    pub runs_frozen: u64,
    /// Sealed runs read from their pack on disk (the persisted tier).
    pub runs_persisted: u64,
    /// Cumulative hot → sealed transitions.
    pub freezes: u64,
    /// Cumulative blobs written to disk (a persist that only lets the
    /// held frame of a re-heated run go writes none).
    pub spills: u64,
    /// Cumulative re-heats (a run on disk made to hold its frame).
    pub reheats: u64,
    /// Cumulative compaction passes that wrote packs.
    pub compactions: u64,
    /// **Frozen tier** footprint in bytes: each held frame's label arena —
    /// layout header, presence words, cells and prefix heap (the blob's
    /// 64 header and checksum bytes are not counted).
    pub frozen_bytes: u64,
    /// DRL accounting bits the frozen runs occupied while hot (the
    /// compaction numerator: `frozen_label_bits/8` vs `frozen_bytes`).
    pub frozen_label_bits: u64,
    /// **Persisted tier** footprint in bytes: segment blobs on disk.
    pub persisted_bytes: u64,
    /// **Persisted tier** resident bytes: frames currently loaded from
    /// disk and not yet shed (governed by
    /// [`crate::EngineBuilder::max_resident_bytes`]).
    pub persisted_resident_bytes: u64,
    /// Distinct pack files holding a live blob (a persisted run's, or a
    /// re-heated run's) — what compaction exists to keep small.
    pub segment_files: u64,
    /// Always 0: counted owned-buffer fault-ins, a read path that no
    /// longer exists (every load is counted in [`Self::pack_pins`]). Kept so
    /// wfbench, which sums the two, builds; goes with that read.
    pub segment_loads: u64,
    /// Cumulative blobs shed by the resident-byte LRU.
    pub segment_sheds: u64,
    /// Cumulative frames loaded from disk (the first load at a place,
    /// which verifies the blob, or a re-load after a shed, which does
    /// not).
    pub pack_pins: u64,
    /// Bytes inside current pack files owned by the (dead) blobs of
    /// evicted runs — what a dead-heavy rewrite exists to reclaim.
    pub pack_dead_bytes: u64,
    /// WAL records appended this lifetime (run opens, events,
    /// completions, checkpoint stamps). 0 without a
    /// [`crate::EngineBuilder::wal_dir`].
    pub wal_records: u64,
    /// Bytes appended to the WAL this lifetime (frame headers
    /// included).
    pub wal_bytes: u64,
    /// Checkpoint truncation passes — shard-file compactions after a
    /// run's spill made its WAL history redundant.
    pub wal_truncations: u64,
    /// Runs resurrected from the WAL at build time (crash recovery).
    pub wal_recovered_runs: u64,
    /// WAL records replayed while resurrecting those runs.
    pub wal_recovered_records: u64,
    /// Open standing-query subscriptions
    /// ([`crate::WfEngine::subscribe`] handles not yet dropped).
    pub subscriptions: u64,
    /// Wall-clock since the engine started.
    pub uptime: Duration,
}

impl ServiceStats {
    /// Average ingest throughput since the engine started, in events
    /// per second. Misleading after idle periods — for "what is
    /// happening now" take two snapshots and divide the difference of
    /// their `events_ingested` by the difference of their `uptime`.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs > 0.0 {
            self.events_ingested as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean published-label size in bits over the hot tier.
    pub fn avg_label_bits(&self) -> f64 {
        if self.labels_hot > 0 {
            self.label_bits_total as f64 / self.labels_hot as f64
        } else {
            0.0
        }
    }

    /// Hot-tier label storage in bytes (accounting bits, rounded up) —
    /// the same unit as the frozen/persisted footprints, so the
    /// hot-vs-frozen memory comparison is a one-liner.
    pub fn hot_bytes(&self) -> u64 {
        self.label_bits_total.div_ceil(8)
    }

    /// The gauge families of the metrics export, `(family, help,
    /// value)` — declared here and nowhere else: both renderings take
    /// these rows from a snapshot, so an exported gauge cannot disagree
    /// with the field it names.
    pub fn gauges(&self) -> [wf_obs::GaugeRow; 8] {
        [
            ("wf_runs_hot", "runs in the hot tier", self.runs_hot),
            (
                "wf_runs_frozen",
                "runs in the frozen tier",
                self.runs_frozen,
            ),
            (
                "wf_runs_persisted",
                "runs in the persisted tier",
                self.runs_persisted,
            ),
            (
                "wf_hot_bytes",
                "hot-tier bytes resident in decoded labels (cells + shared prefix arrays)",
                self.hot_resident_bytes,
            ),
            (
                "wf_persisted_resident_bytes",
                "persisted-tier bytes loaded from disk and resident",
                self.persisted_resident_bytes,
            ),
            ("wf_segment_files", "pack files on disk", self.segment_files),
            (
                "wf_pack_dead_bytes",
                "dead blob bytes in packs awaiting garbage collection",
                self.pack_dead_bytes,
            ),
            (
                "wf_subscriptions",
                "open standing-query subscriptions",
                self.subscriptions,
            ),
        ]
    }

    /// One JSON line with the per-tier run counts and byte footprints —
    /// what CI uploads next to the bench artifact (its `grep` matches
    /// the leading `"metric":"tier_footprint"`, its `jq` the keys).
    pub fn tier_footprint_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"metric\":\"tier_footprint\",\"runs_hot\":{},\"runs_frozen\":{},\
             \"runs_persisted\":{},\"hot_bytes\":{},\"hot_resident_bytes\":{},\
             \"frozen_bytes\":{},\"persisted_bytes\":{},\"persisted_resident_bytes\":{},\
             \"segment_files\":{},\"segment_loads\":{},\"segment_sheds\":{},\"pack_pins\":{},\
             \"pack_dead_bytes\":{},\"hot_label_bits\":{},\
             \"frozen_label_bits\":{},\"freezes\":{},\"spills\":{},\"reheats\":{},\
             \"compactions\":{}}}",
            self.runs_hot,
            self.runs_frozen,
            self.runs_persisted,
            self.hot_bytes(),
            self.hot_resident_bytes,
            self.frozen_bytes,
            self.persisted_bytes,
            self.persisted_resident_bytes,
            self.segment_files,
            self.segment_loads,
            self.segment_sheds,
            self.pack_pins,
            self.pack_dead_bytes,
            self.label_bits_total,
            self.frozen_label_bits,
            self.freezes,
            self.spills,
            self.reheats,
            self.compactions,
        );
        out
    }
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "runs: {} live / {} completed / {} failed (of {} opened); \
             tiers: {} hot ({} B) / {} frozen ({} B) / {} persisted ({} B); \
             events: {} applied ({:.0}/s lifetime); \
             queries: {}; labels: {} ({:.1} bits avg)",
            self.runs_live,
            self.runs_completed,
            self.runs_failed,
            self.runs_opened,
            self.runs_hot,
            self.hot_bytes(),
            self.runs_frozen,
            self.frozen_bytes,
            self.runs_persisted,
            self.persisted_bytes,
            self.events_ingested,
            self.events_per_sec(),
            self.queries_answered,
            self.labels_published,
            self.avg_label_bits(),
        )
    }
}
