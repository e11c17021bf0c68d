//! The **frozen tier**: completed runs compacted into encoded label
//! arenas, optionally re-labeled with the static SKL baseline.
//!
//! A live run needs the paper's *dynamic* machinery — labels must be
//! assignable the moment a vertex arrives (Definition 8). Once the run
//! completes, that machinery is pure overhead: the labels are final, so
//! the run can be *frozen* into the compact at-rest form
//! ([`wf_drl::LabelArena`]) and its writer state dropped. Queries keep
//! working — the same constant-time predicate walks two label cursors
//! over the arena bytes ([`wf_drl::ArenaRef`], the reader the persisted
//! tier shares), materialising neither label; memory shrinks from
//! decoded entry lists in a chunk table to one contiguous byte buffer.
//!
//! Freezing is also the moment the engine can afford the paper's §7.4
//! comparison *per run*: when the run's derivation is available (and the
//! spec is non-recursive), the freezer re-labels the finished run with
//! [`SklLabeling`] and records the DRL-vs-SKL bit and latency deltas in
//! the engine stats — the SKL baseline served from inside the service,
//! exactly the trade the paper measures between dynamic labels that can
//! be assigned on-the-fly and static labels that need the whole run.

use crate::slot::RunSlot;
use crate::snapshot::{PersistedRun, SegmentHeader};
use crate::telemetry::Telemetry;
use crate::{RunId, SpecContext, SpecId};
use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;
use wf_drl::{ArenaRef, DrlPredicate, LabelArena};
use wf_graph::VertexId;
use wf_run::Derivation;
use wf_skeleton::SpecLabeling;
use wf_skl::SklLabeling;

/// The DRL-vs-SKL delta recorded when a frozen run is re-labeled with
/// the static baseline (§7.4, measured per completed run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SklReport {
    /// Total SKL label bits across the run (eq. (4): slope ≈ 3·log n).
    pub skl_bits: u64,
    /// Total DRL label bits for the same run (accounting size, slope
    /// ≈ log n).
    pub drl_bits: u64,
    /// Wall-clock to build the SKL labeling from the derivation.
    pub build_ns: u64,
    /// Wall-clock for the sampled pairs answered from the *frozen* DRL
    /// arena (slot lookup + the constant-time predicate over two label
    /// cursors).
    pub drl_query_ns: u64,
    /// Wall-clock for the same pairs through `SklLabeling::reaches`.
    pub skl_query_ns: u64,
    /// Number of `(u, v)` pairs timed.
    pub pairs_sampled: u64,
}

/// A completed run compacted into the frozen tier: the encoded label
/// arena, the metadata queries need (spec, source), and the optional
/// SKL re-label report. Immutable once built; shared by `Arc`.
#[derive(Debug)]
pub struct FrozenRun {
    pub(crate) run: RunId,
    pub(crate) spec: SpecId,
    pub(crate) source: Option<VertexId>,
    pub(crate) arena: LabelArena,
    /// DRL accounting bits the hot tier was charging for this run.
    pub(crate) drl_bits: u64,
    /// Unix seconds at freeze time (0 if the clock read before the
    /// epoch). The persisted tier's LRU breaks recency ties on it.
    pub(crate) frozen_at: u64,
    pub(crate) skl: Option<SklReport>,
    /// Queries answered over the run's lifetime (carried in by the
    /// store's tier transition).
    pub(crate) queries: AtomicU64,
    /// The run's registration in the spill directory, when this arena
    /// was re-heated out of a pack: the blob stays live and listed, and
    /// persisting the run again is a transition back to it.
    pub(crate) home: Option<Arc<PersistedRun>>,
}

impl FrozenRun {
    /// The run this arena holds.
    pub fn run(&self) -> RunId {
        self.run
    }

    /// The specification the run labeled against.
    pub fn spec(&self) -> SpecId {
        self.spec
    }

    /// The run's source vertex.
    pub fn source(&self) -> Option<VertexId> {
        self.source
    }

    /// Number of labeled vertices.
    pub fn published(&self) -> usize {
        self.arena.len()
    }

    /// In-memory footprint of the frozen representation in bytes
    /// (encoded arena + vertex directory).
    pub fn footprint_bytes(&self) -> usize {
        self.arena.footprint_bytes()
    }

    /// DRL accounting bits this run occupied in the hot tier.
    pub fn drl_bits(&self) -> u64 {
        self.drl_bits
    }

    /// The SKL re-label report, when the derivation was available and
    /// the spec admits SKL (non-recursive).
    pub fn skl_report(&self) -> Option<&SklReport> {
        self.skl.as_ref()
    }

    /// The encoded arena.
    pub fn arena(&self) -> &LabelArena {
        &self.arena
    }

    /// Unix seconds at freeze time (0 if the clock read before the
    /// epoch).
    pub fn frozen_at(&self) -> u64 {
        self.frozen_at
    }

    /// The header of the segment blob this run encodes to.
    pub(crate) fn header(&self) -> SegmentHeader {
        SegmentHeader {
            run: self.run,
            spec: self.spec,
            skl_bits: self.arena.skl_bits() as u32,
            source: self.source,
            count: self.arena.len() as u32,
            arena_len: self.arena.encoded_bytes() as u64,
            drl_bits: self.drl_bits,
            frozen_at: self.frozen_at,
            skl: self.skl,
        }
    }
}

/// Unix seconds now (0 if the clock is before the epoch).
pub(crate) fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Compact one completed run slot into a [`FrozenRun`]. The caller has
/// already observed `Completed` status, so the slot's label index is
/// final (completion and inserts serialize on the writer lock).
pub(crate) fn freeze_slot<S: SpecLabeling>(
    run: RunId,
    slot: &RunSlot<S>,
    ctx: &SpecContext<S>,
    derivation: Option<&Derivation>,
    obs: &Telemetry,
) -> FrozenRun {
    let skl_bits = slot.skl_bits;
    let encode = obs.timer();
    let arena = LabelArena::build(
        skl_bits,
        slot.indexed.iter().map(|(v, p)| (v, p.name, &p.label)),
    );
    // Encode is a sub-span of the freeze span the engine opens; no trace
    // event of its own unless it alone crosses the slow-op threshold.
    obs.span(
        &obs.h_freeze_encode,
        "freeze_encode",
        Some(run.0),
        Some("frozen"),
        encode,
        false,
        String::new,
    );
    let drl_bits = slot.indexed.total_bits();
    let skl = derivation.and_then(|d| skl_report(ctx, d, arena.view(), drl_bits));
    if obs.enabled {
        if let Some(report) = &skl {
            obs.h_skl_build.record(report.build_ns);
        }
    }
    FrozenRun {
        run,
        spec: slot.spec,
        source: slot.source.get().copied(),
        arena,
        drl_bits,
        frozen_at: unix_now(),
        skl,
        queries: AtomicU64::new(0),
        home: slot.home.clone(),
    }
}

/// Re-label the finished run with the static SKL baseline and time both
/// schemes on a sampled pair set. `None` when SKL does not apply (the
/// spec is recursive) or the derivation does not replay.
fn skl_report<S: SpecLabeling>(
    ctx: &SpecContext<S>,
    derivation: &Derivation,
    arena: ArenaRef<'_>,
    drl_bits: u64,
) -> Option<SklReport> {
    let t0 = Instant::now();
    let skl: SklLabeling = SklLabeling::build(&ctx.spec, derivation).ok()?;
    let build_ns = t0.elapsed().as_nanos() as u64;
    let skl_bits = skl.total_label_bits() as u64;

    // Sample the first k labeled vertices, all pairs: enough signal for
    // a per-run latency delta without a measurable freeze cost.
    let sample: Vec<VertexId> = arena.iter().take(16).map(|(v, ..)| v).collect();
    let predicate = DrlPredicate::new(&ctx.skeleton);
    let t = Instant::now();
    for &u in &sample {
        let lu = arena.label(u)?;
        for &v in &sample {
            black_box(predicate.reaches_ref(lu, arena.label(v)?)?);
        }
    }
    let drl_query_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    for &u in &sample {
        for &v in &sample {
            black_box(skl.reaches_vertices(u, v));
        }
    }
    let skl_query_ns = t.elapsed().as_nanos() as u64;
    Some(SklReport {
        skl_bits,
        drl_bits,
        build_ns,
        drl_query_ns,
        skl_query_ns,
        pairs_sampled: (sample.len() * sample.len()) as u64,
    })
}
