//! The **frozen tier**: completed runs compacted into encoded label
//! arenas.
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
//! Freezing encodes the arena and nothing else. The paper's §7.4
//! comparison against the static SKL baseline lives beside the engine,
//! not in it: `experiments fig20 fig21 fig22` in `wf-bench`.

use crate::slot::RunSlot;
use crate::snapshot::{PersistedRun, SegmentHeader};
use crate::telemetry::Telemetry;
use crate::{RunId, SpecId};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use wf_drl::LabelArena;
use wf_graph::VertexId;
use wf_skeleton::SpecLabeling;

/// A completed run compacted into the frozen tier: the encoded label
/// arena and the metadata queries need (spec, source). Immutable once
/// built; shared by `Arc`.
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
    obs: &Telemetry,
) -> FrozenRun {
    let skl_bits = slot.skl_bits;
    let encode = obs.timer();
    let arena = LabelArena::build(skl_bits, slot.indexed.iter());
    obs.finish(
        encode,
        &obs.h_freeze_encode,
        Some(run.0),
        Some("frozen"),
        String::new,
    );
    FrozenRun {
        run,
        spec: slot.spec,
        source: slot.source.get().copied(),
        arena,
        drl_bits: slot.indexed.total_bits(),
        frozen_at: unix_now(),
        queries: AtomicU64::new(0),
        home: None,
    }
}
