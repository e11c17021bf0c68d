//! **Crash recovery** from the write-ahead log, in the two steps
//! `EngineBuilder::build` needs them: [`scan`] before the engine's
//! shared state exists, [`replay`] right after.
//!
//! This module owns the path from a WAL directory to a rebuilt hot
//! tier: the scan ([`wf_wal::recover`], torn tails truncated to their
//! valid prefix), the survivor filter (which runs are replayable), the
//! log rewrite ([`WalWriter::reset`] — the reopened log holds exactly
//! what the rebuilt engine holds hot, plus the runs of specs beyond its
//! catalog carried verbatim, re-homed if the worker count changed), the
//! replay itself, and the `RunOpen` payload codec both
//! sides of a lifetime boundary must agree on. Replay applies events
//! through [`crate::ingest::apply`] like every other write, with an
//! empty journal step: the records are already in the rewritten log.
//! The write path journals an op only once the run has admitted it, so
//! the log holds nothing a caller was told was rejected; a run's records
//! past its `Complete` — which only a log written by an earlier build
//! can hold — are dropped at the scan, traced, and not carried into the
//! rewritten log.
//!
//! Failures degrade — the engine comes up without a WAL rather than not
//! at all — and are traced; `health()` then names
//! [`crate::StallCause::WalUnavailable`] for as long as the engine lives.
//! A log this build cannot read (another format version, a stray file
//! under a shard's name) is such a failure, and is left on disk byte for
//! byte: the scan fails before the rewrite, and the rewrite checks every
//! file it would replace.

use crate::engine::{route_worker, EngineShared};
use crate::ingest::{apply, Entry, Op};
use crate::slot::RunSlot;
use crate::snapshot::SealedRun;
use crate::store::RunView;
use crate::telemetry::{Telemetry, WalTelemetry};
use crate::{RunId, RunStatus, SpecId};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use wf_drl::ResolutionMode;
use wf_run::ExecEvent;
use wf_wal::{Record, RecordKind, WalSync, WalWriter, CHECKPOINT_SEQ};

/// `RunOpen` payload: the spec id (u32 LE) plus the resolution mode tag —
/// everything recovery needs to rebuild the slot.
pub(crate) fn run_open_payload(out: &mut Vec<u8>, spec: SpecId, resolution: ResolutionMode) {
    out.extend_from_slice(&(spec.0 as u32).to_le_bytes());
    out.push(match resolution {
        ResolutionMode::NameBased => 0,
        ResolutionMode::LogBased => 1,
    });
}

/// Inverse of [`run_open_payload`]; `None` on malformed or unknown bytes
/// (the run is then skipped at recovery rather than misinterpreted).
fn parse_run_open(payload: &[u8]) -> Option<(SpecId, ResolutionMode)> {
    let (spec, tag) = payload.split_first_chunk::<4>()?;
    let resolution = match tag {
        [0] => ResolutionMode::NameBased,
        [1] => ResolutionMode::LogBased,
        _ => return None,
    };
    Some((SpecId(u32::from_le_bytes(*spec) as usize), resolution))
}

/// One run the WAL scan deemed replayable: decoded and validated before
/// the engine's shared state exists, applied right after it does.
pub(crate) struct ReplayRun {
    run: RunId,
    spec: SpecId,
    resolution: ResolutionMode,
    events: Vec<ExecEvent>,
    completed: bool,
    /// Highest WAL seq the run had; its slot resumes numbering above it.
    max_seq: u64,
}

/// What [`scan`] found.
#[derive(Default)]
pub(crate) struct Recovered {
    /// The reopened log; `None` when the scan or the rewrite failed (the
    /// engine then runs non-durable, says so in `health()`, and nothing
    /// is replayed).
    pub(crate) wal: Option<WalWriter>,
    /// The runs to [`replay`].
    pub(crate) replay: Vec<ReplayRun>,
    /// One past the highest run id the log has seen — never reused, even
    /// for runs the scan skipped. A run id of `u64::MAX` has no successor
    /// and moves nothing: `open_run` never issues it.
    pub(crate) next_run: u64,
}

/// A run's records up to and including its `Complete`. Records are
/// seq-sorted and a `Complete` is the last op a run admits, so whatever
/// follows it was journaled for an op the engine then rejected (builds
/// before "admission before journal" did that).
fn admitted(records: &[Record]) -> &[Record] {
    let complete = records.iter().position(|r| r.kind == RecordKind::Complete);
    &records[..complete.map_or(records.len(), |i| i + 1)]
}

/// Why a scanned run is not replayed.
enum Skip {
    /// An orphaned tail (e.g. its `RunOpen` sat in a torn region):
    /// dropped, not guessed at.
    Orphan,
    /// Its `RunOpen` names a spec beyond this catalog: carried into the
    /// rewritten log verbatim, for a build that has the spec.
    Foreign,
    /// Undecodable: dropped, and traced with the reason.
    Bad(&'static str),
}

/// Decode one scanned run's `records` into a [`ReplayRun`], or say why
/// not. A replayable run starts with a parseable `RunOpen` naming a spec
/// this catalog has.
fn decode_run(
    r: &wf_wal::RecoveredRun,
    records: &[Record],
    catalog_len: usize,
) -> Result<ReplayRun, Skip> {
    // The journal numbers a run's ops below `CHECKPOINT_SEQ`: a run at
    // that number holds an op no engine journaled, and has no successor
    // to resume from.
    if r.max_seq == CHECKPOINT_SEQ {
        return Err(Skip::Bad("sequence number out of range"));
    }
    let (first, rest) = records.split_first().ok_or(Skip::Orphan)?;
    if first.kind != RecordKind::RunOpen || first.seq != 0 {
        return Err(Skip::Orphan);
    }
    let (spec, resolution) = parse_run_open(&first.payload).ok_or(Skip::Orphan)?;
    if spec.0 >= catalog_len {
        return Err(Skip::Foreign);
    }
    let mut events = Vec::new();
    let mut completed = false;
    for rr in rest {
        match rr.kind {
            RecordKind::Event => events.push(
                wf_drl::encode::read_event(&rr.payload)
                    .ok_or(Skip::Bad("undecodable event payload"))?,
            ),
            RecordKind::Complete => completed = true,
            RecordKind::RunOpen | RecordKind::Checkpoint => {}
        }
    }
    Ok(ReplayRun {
        run: RunId(r.run),
        spec,
        resolution,
        events,
        completed,
        max_seq: r.max_seq,
    })
}

/// Scan the WAL directory: decode surviving runs for replay, then
/// rewrite the log so it holds exactly those runs plus, verbatim, the
/// runs of specs beyond this catalog (checkpointed history dropped,
/// records re-homed onto `workers` shards).
pub(crate) fn scan(
    dir: &Path,
    workers: usize,
    sync: WalSync,
    obs: &Arc<Telemetry>,
    persisted: &[Arc<SealedRun>],
    catalog_len: usize,
) -> Recovered {
    let rec = match wf_wal::recover(dir) {
        Ok(rec) => rec,
        Err(e) => {
            obs.event("wal_recover_failed", None, None, || e.to_string());
            return Recovered::default();
        }
    };
    for t in &rec.torn {
        obs.event("wal_torn_tail", None, None, || {
            format!("file={} valid_bytes={} {}", t.file, t.valid_bytes, t.detail)
        });
    }
    let mut out = Recovered {
        next_run: rec
            .runs
            .iter()
            .filter_map(|r| r.run.checked_add(1))
            .max()
            .unwrap_or(0),
        ..Recovered::default()
    };
    let persisted: HashSet<u64> = persisted.iter().map(|p| p.run().0).collect();
    let mut survivors: Vec<Record> = Vec::new();
    for r in &rec.runs {
        // Checkpointed runs are durable in their segment; runs in the
        // manifest likewise (belt and braces — a crash between segment
        // write and checkpoint stamp leaves the manifest authoritative).
        if r.checkpointed || persisted.contains(&r.run) {
            continue;
        }
        let records = admitted(&r.records);
        match decode_run(r, records, catalog_len) {
            Ok(run) => {
                if records.len() < r.records.len() {
                    obs.event("wal_skip_record", Some(r.run), None, || {
                        let dropped = r.records.len() - records.len();
                        format!("dropped={dropped} after_complete")
                    });
                }
                survivors.extend(records.iter().cloned());
                out.replay.push(run);
            }
            Err(Skip::Foreign) => survivors.extend(r.records.iter().cloned()),
            Err(Skip::Bad(why)) => obs.event("wal_skip_run", Some(r.run), None, || why.into()),
            Err(Skip::Orphan) => {}
        }
    }
    match WalWriter::reset(
        dir,
        workers,
        sync,
        Box::new(WalTelemetry(Arc::clone(obs))),
        &survivors,
        |run| route_worker(RunId(run), workers),
    ) {
        Ok(wal) => out.wal = Some(wal),
        Err(e) => {
            obs.event("wal_reset_failed", None, None, || e.to_string());
            out.replay.clear();
        }
    }
    obs.event("wal_recover", None, None, || {
        format!(
            "files={} bytes={} records={} runs_replayed={} torn={}",
            rec.files,
            rec.bytes,
            rec.records,
            out.replay.len(),
            rec.torn.len()
        )
    });
    out
}

/// Replay the scanned runs into the hot tier, before the ingest pool
/// opens.
pub(crate) fn replay(shared: &EngineShared, runs: Vec<ReplayRun>) {
    let obs = &shared.obs;
    for r in runs {
        let ctx = Arc::clone(&shared.catalog[r.spec.0]);
        let slot = match RunSlot::open(ctx, r.spec, r.resolution, r.max_seq + 1) {
            Ok(slot) => Arc::new(slot),
            Err(e) => {
                obs.event("wal_skip_run", Some(r.run.0), None, || e.to_string());
                continue;
            }
        };
        for ev in &r.events {
            if let Err(e) = apply(shared, r.run, &slot, Op::Insert(ev), Entry::Replay) {
                // The log held an event this lifetime cannot apply (the
                // one the run failed on, before the crash): keep what
                // did apply, mark the run failed, and say why.
                obs.event("wal_replay_error", Some(r.run.0), None, || e.to_string());
                slot.fail();
                break;
            }
        }
        if r.completed && slot.status() == RunStatus::Live {
            let _ = apply(shared, r.run, &slot, Op::Complete, Entry::Replay);
        }
        shared.store.insert(r.run, RunView::Hot(slot));
        obs.runs_opened.inc();
        obs.wal_recovered_runs.inc();
        obs.wal_recovered_records
            .add(1 + r.events.len() as u64 + u64::from(r.completed));
    }
}
