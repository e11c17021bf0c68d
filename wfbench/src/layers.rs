//! The ledger replay: per-layer probes that time calls into each
//! layer's public functions on the same inputs the workload used.
//!
//! Together with `engine_api.rs` this is the only file that names
//! engine-side crates (`wf-drl`, `wf-service::index`, `wf-wal`,
//! `wf-obs`). Probes run in the `--trace` run only, so they never
//! pollute end-to-end numbers. Layer = module name.

use crate::engine_api::{Catalog, WAL_SYNC};
use crate::inputs::{Fleet, ReachPair};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wf_drl::{
    decode_label, encode_label, DrlLabel, DrlPredicate, ExecutionLabeler, ResolutionMode,
};
use wf_graph::{NameId, VertexId};
use wf_obs::Histogram;
use wf_service::index::LabelIndex;
use wf_service::SpecContext;
use wf_wal::{WalObserver, WalWriter};

fn ns_per(total: std::time::Duration, n: usize) -> f64 {
    total.as_nanos() as f64 / n.max(1) as f64
}

/// One run labeled by the bare `ExecutionLabeler`: labels by event
/// position, exactly what the engine publishes for the same stream.
pub struct LabeledRun {
    pub run: usize,
    pub spec: usize,
    pub skl_bits: usize,
    pub vertices: Vec<(VertexId, NameId)>,
    pub labels: Vec<DrlLabel>,
}

/// `drl.insert_ns`: bare `ExecutionLabeler::insert` over the streams,
/// one thread, whole runs until `cap_events` is reached. Labeler
/// construction is outside the timed region, as `open_run` is outside
/// the workloads' ingest windows.
pub fn drl_insert(catalog: &Catalog, fleet: &Fleet, cap_events: usize) -> (f64, Vec<LabeledRun>) {
    let mut timed = std::time::Duration::ZERO;
    let mut events = 0usize;
    let mut out = Vec::new();
    for (i, run) in fleet.runs.iter().enumerate() {
        if events >= cap_events {
            break;
        }
        let ctx: &SpecContext = &catalog.contexts()[run.spec];
        let mut labeler = match ctx.default_resolution() {
            ResolutionMode::NameBased => ExecutionLabeler::new(&ctx.spec, &ctx.skeleton),
            ResolutionMode::LogBased => ExecutionLabeler::new_log_based(&ctx.spec, &ctx.skeleton),
        }
        .expect("catalog specs label");
        let t = Instant::now();
        for ev in run.events() {
            labeler.insert(ev).expect("generated streams are valid");
        }
        timed += t.elapsed();
        events += run.events().len();
        out.push(LabeledRun {
            run: i,
            spec: run.spec,
            skl_bits: labeler.skl_bits(),
            vertices: run.events().iter().map(|e| (e.vertex, e.name)).collect(),
            labels: run
                .events()
                .iter()
                .map(|e| labeler.label(e.vertex).expect("just inserted").clone())
                .collect(),
        });
    }
    (ns_per(timed, events), out)
}

/// `drl.reaches_ns`: bare `DrlPredicate::reaches` on decoded labels for
/// the drawn pairs that fall in labeled runs; returns (ns, pairs used).
pub fn drl_reaches(catalog: &Catalog, labeled: &[LabeledRun], pairs: &[ReachPair]) -> (f64, usize) {
    let by_run = |r: u32| labeled.iter().find(|l| l.run == r as usize);
    let resolved: Vec<(&SpecContext, &DrlLabel, &DrlLabel)> = pairs
        .iter()
        .filter_map(|p| {
            let l = by_run(p.run)?;
            let ctx: &SpecContext = &catalog.contexts()[l.spec];
            Some((ctx, &l.labels[p.iu as usize], &l.labels[p.iv as usize]))
        })
        .collect();
    let t = Instant::now();
    let mut hits = 0usize;
    for (ctx, a, b) in &resolved {
        hits += usize::from(DrlPredicate::new(&ctx.skeleton).reaches(a, b));
    }
    black_box(hits);
    (ns_per(t.elapsed(), resolved.len()), resolved.len())
}

pub struct CodecProbe {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub encoded_bytes_avg: f64,
    pub bits_avg: f64,
    pub bits_max: f64,
    pub entries_avg: f64,
}

/// `drl.encode_ns` / `drl.decode_ns` per label, plus the paper's Fig. 14
/// quantity (label bits) and entries per label over the same labels.
pub fn drl_codec(labeled: &[LabeledRun]) -> CodecProbe {
    let n: usize = labeled.iter().map(|l| l.labels.len()).sum();
    let t = Instant::now();
    let encoded: Vec<Vec<Vec<u8>>> = labeled
        .iter()
        .map(|l| {
            l.labels
                .iter()
                .map(|lab| encode_label(lab, l.skl_bits))
                .collect()
        })
        .collect();
    let encode = t.elapsed();
    let t = Instant::now();
    for (l, enc) in labeled.iter().zip(&encoded) {
        for bytes in enc {
            black_box(decode_label(bytes, l.skl_bits));
        }
    }
    let decode = t.elapsed();
    let (mut bits, mut bits_max, mut entries, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    for (l, enc) in labeled.iter().zip(&encoded) {
        for (lab, e) in l.labels.iter().zip(enc) {
            let b = lab.bit_len(l.skl_bits) as u64;
            bits += b;
            bits_max = bits_max.max(b);
            entries += lab.entries().len() as u64;
            bytes += e.len() as u64;
        }
    }
    let nf = n.max(1) as f64;
    CodecProbe {
        encode_ns: ns_per(encode, n),
        decode_ns: ns_per(decode, n),
        encoded_bytes_avg: bytes as f64 / nf,
        bits_avg: bits as f64 / nf,
        bits_max: bits_max as f64,
        entries_avg: entries as f64 / nf,
    }
}

/// `skeleton.build_ms`: `SpecContext::from_spec` per catalog entry,
/// summed (spec construction itself is outside the timed region).
pub fn skeleton_build_ms() -> f64 {
    let specs = [
        wf_spec::corpus::running_example(),
        wf_spec::corpus::bioaid(),
    ];
    let t = Instant::now();
    for s in specs {
        black_box(SpecContext::<wf_skeleton::TclSpecLabels>::from_spec(s));
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// `index.publish_ns` / `index.get_ns`: `LabelIndex::publish` (with the
/// label clone the engine's apply path pays) and `get`, one index per
/// labeled run as in the engine.
pub fn index_publish_get(labeled: &[LabeledRun]) -> (f64, f64) {
    let n: usize = labeled.iter().map(|l| l.labels.len()).sum();
    let mut publish = std::time::Duration::ZERO;
    let mut get = std::time::Duration::ZERO;
    for l in labeled {
        let index = LabelIndex::new();
        let t = Instant::now();
        for ((v, name), label) in l.vertices.iter().zip(&l.labels) {
            index.publish(*v, *name, label.clone(), l.skl_bits);
        }
        publish += t.elapsed();
        let t = Instant::now();
        for (v, _) in &l.vertices {
            black_box(index.get(*v));
        }
        get += t.elapsed();
    }
    (ns_per(publish, n), ns_per(get, n))
}

#[derive(Default)]
struct Counting {
    appends: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
}

struct CountingObserver(Arc<Counting>);

impl WalObserver for CountingObserver {
    fn append(&self, bytes: u64, _dur_ns: u64) {
        self.0.appends.fetch_add(1, Ordering::Relaxed);
        self.0.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn fsync(&self, _dur_ns: u64) {
        self.0.fsyncs.fetch_add(1, Ordering::Relaxed);
    }
}

pub struct WalProbe {
    pub append_ns: f64,
    pub barrier_us: f64,
    pub fsyncs: f64,
    pub bytes_per_event: f64,
}

/// `wal.*`: read the records a durable pass wrote (`wf_wal::recover`)
/// and replay them through a fresh `WalWriter` under the benchmark's
/// flush policy, with a counting observer; a barrier every tenth of the
/// records. `events` is the number of event records, for bytes/event.
pub fn wal_replay(src: &Path, dst: &Path, events: usize) -> Option<WalProbe> {
    let recovered = wf_wal::recover(src).ok()?;
    let counts = Arc::new(Counting::default());
    let writer = WalWriter::open(
        dst,
        2,
        WAL_SYNC,
        Box::new(CountingObserver(Arc::clone(&counts))),
    )
    .ok()?;
    let records: Vec<_> = recovered.runs.iter().flat_map(|r| &r.records).collect();
    let every = (records.len() / 10).max(1);
    let mut append = std::time::Duration::ZERO;
    let mut barriers = Vec::new();
    for chunk in records.chunks(every) {
        let t = Instant::now();
        for rec in chunk {
            writer.append((rec.run % 2) as usize, rec).ok()?;
        }
        append += t.elapsed();
        let t = Instant::now();
        writer.barrier().ok()?;
        barriers.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(writer);
    Some(WalProbe {
        append_ns: ns_per(append, records.len()),
        barrier_us: crate::stats::median(&barriers),
        fsyncs: counts.fsyncs.load(Ordering::Relaxed) as f64,
        bytes_per_event: counts.bytes.load(Ordering::Relaxed) as f64 / events.max(1) as f64,
    })
}

/// `wal.recover_ms`: `wf_wal::recover(dir)` alone (scan + checksum +
/// per-run reassembly); the rest of `recovery_ms` is replay.
pub fn wal_recover_ms(dir: &Path) -> f64 {
    let t = Instant::now();
    black_box(wf_wal::recover(dir).map(|r| r.records).unwrap_or(0));
    t.elapsed().as_secs_f64() * 1e3
}

/// `obs.hist_record_ns`: one `Histogram::record`.
pub fn hist_record_ns() -> f64 {
    const N: usize = 2_000_000;
    let h = Histogram::new();
    let t = Instant::now();
    for i in 0..N {
        h.record(black_box(i as u64));
    }
    black_box(h.count());
    ns_per(t.elapsed(), N)
}
