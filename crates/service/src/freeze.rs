//! **Freezing**: a completed run sealed into its segment blob.
//!
//! A live run needs the paper's *dynamic* machinery — labels must be
//! assignable the moment a vertex arrives (Definition 8). Once the run
//! completes, that machinery is pure overhead: the labels are final, so
//! the run can be *sealed* into the compact at-rest form — the segment
//! blob of [`crate::snapshot`], header ‖ label arena ‖ checksum, in one
//! heap buffer — and its writer state dropped. The arena is a context
//! trie ([`wf_drl::LabelArena`]): each prefix entry the index's arrays
//! hold is one fixed-width trie record naming its parent, each context
//! one record naming its prefix, and each label one fixed-width cell
//! naming its context, its name spelled out only where it is not its
//! spec vertex's; encoding it is one pass over the index, then the
//! records at the widths the run needs. Queries keep working: a label
//! is found by a rank over the arena's presence words, its own entry
//! read from its cell and context, and the same constant-time predicate
//! climbs the trie ([`wf_drl::ArenaRef`]), materialising no label;
//! memory shrinks from decoded entry lists in a chunk table to one
//! contiguous buffer, which persisting later writes to disk unchanged.
//!
//! Freezing encodes the blob and nothing else. The paper's §7.4
//! comparison against the static SKL baseline lives beside the engine,
//! not in it: `experiments fig20 fig21 fig22` in `wf-bench`.

use crate::slot::RunSlot;
use crate::snapshot::{encode_segment, SealedRun, SegmentHeader};
use crate::store::{SegmentLru, Tier};
use crate::RunId;
use std::sync::Arc;
use wf_drl::LabelArena;

/// Unix seconds now (0 if the clock is before the epoch).
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Seal one completed run slot: encode its labels and write its blob onto
/// the heap. The caller has already observed `Completed` status, so the
/// slot's label index is final (completion and inserts serialize on the
/// writer lock).
pub(crate) fn freeze_slot(run: RunId, slot: &RunSlot, lru: &Arc<SegmentLru>) -> SealedRun {
    let obs = &lru.obs;
    let encode = obs.timer();
    let names = slot.ctx().tables().names();
    let arena = LabelArena::build(slot.skl_bits, names, slot.indexed.iter());
    let header = SegmentHeader {
        run,
        spec: slot.spec,
        skl_bits: arena.skl_bits() as u32,
        source: slot.source.get().copied(),
        count: arena.len() as u32,
        arena_len: arena.bytes().len() as u64,
        drl_bits: slot.indexed.total_bits(),
        frozen_at: unix_now(),
    };
    let blob = encode_segment(&header, &arena);
    obs.finish(
        encode,
        &obs.h_freeze_encode,
        Some(run.0),
        Some(Tier::Frozen.name()),
        String::new,
    );
    SealedRun::on_heap(header, blob, slot, Arc::clone(lru))
}
