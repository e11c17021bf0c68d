//! Engine observability: the metrics export surface, the structured
//! trace ring, and `stats()` as the one pure reading both are held to.
//!
//! The acceptance bar: `render_prometheus()` must be valid text
//! exposition format (checked by a small parser here, not by grepping)
//! with at least 8 histogram families; a persisted segment's first
//! pin must provably land in `trace_dump()` when the slow-op threshold
//! is zero; stats stay correct with telemetry disabled.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Duration;
use wf_provenance::prelude::*;
use wf_run::Execution;

mod common;
use common::TempDir;

/// Build an engine, run one generated execution through it, and return
/// the pieces the assertions need. The run is large enough (300 events,
/// all pinned to one worker) that the 1-in-64 ingest-apply latency
/// sampler is guaranteed to fire on that worker's thread.
fn run_one(engine: &WfEngine, seed: u64) -> (RunId, Execution) {
    let spec = &engine.context(SpecId(0)).unwrap().spec;
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = RunGenerator::new(spec)
        .target_size(300)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();
    (run, exec)
}

/// Minimal Prometheus text-exposition parser: enough structure checking
/// to catch a malformed escape, a sample without a TYPE, a histogram
/// missing `+Inf`, or non-cumulative buckets.
struct Exposition {
    /// metric family name → declared type.
    types: HashMap<String, String>,
    /// full sample name (with suffix) → (labels, value) pairs.
    samples: HashMap<String, Vec<(String, f64)>>,
}

fn parse_exposition(text: &str) -> Exposition {
    let mut types = HashMap::new();
    let mut helped = HashMap::new();
    let mut samples: HashMap<String, Vec<(String, f64)>> = HashMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP has name and text");
            helped.insert(name.to_string(), help.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has name and kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind:?}"
            );
            assert!(
                helped.contains_key(name),
                "TYPE for {name} must follow its HELP"
            );
            types.insert(name.to_string(), kind.to_string());
        } else {
            assert!(!line.starts_with('#'), "unknown comment line {line:?}");
            let (name_labels, value) = line.rsplit_once(' ').expect("sample has a value");
            let value: f64 = value.parse().unwrap_or_else(|_| {
                panic!("sample value not a number: {line:?}");
            });
            let (name, labels) = match name_labels.split_once('{') {
                Some((n, l)) => {
                    let l = l.strip_suffix('}').expect("labels close with }");
                    (n, l.to_string())
                }
                None => (name_labels, String::new()),
            };
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "invalid metric name {name:?}"
            );
            samples
                .entry(name.to_string())
                .or_default()
                .push((labels, value));
        }
    }
    // Every sample must belong to a declared family (histograms declare
    // the base name; samples carry _bucket/_sum/_count suffixes).
    for name in samples.keys() {
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        assert!(types.contains_key(family), "sample {name} has no TYPE line");
    }
    Exposition { types, samples }
}

impl Exposition {
    fn histogram_families(&self) -> Vec<&str> {
        self.types
            .iter()
            .filter(|(_, kind)| kind.as_str() == "histogram")
            .map(|(name, _)| name.as_str())
            .collect()
    }

    fn single_value(&self, name: &str) -> Option<f64> {
        let v = self.samples.get(name)?;
        assert_eq!(v.len(), 1, "{name} should have exactly one sample");
        Some(v[0].1)
    }
}

#[test]
fn prometheus_exposition_is_valid_with_at_least_8_histograms() {
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .ingest_workers(2)
        .build();
    let (run, exec) = run_one(&engine, 11);
    engine.freeze_run(run).unwrap();
    // A second run that stays hot, so the hot-tier gauge has bytes to show.
    let _ = run_one(&engine, 12);
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    for _ in 0..256 {
        // Enough probes that the 1-in-64 latency sampler certainly fires.
        let _ = engine.reach(run, u, v).unwrap();
    }
    let name = exec.events()[1].name;
    let _ = engine
        .query()
        .completed()
        .runs_reaching_named_from_source(name);

    // One open subscription, so that gauge has something to show too.
    let _sub = engine.subscribe(SubPredicate::vertices_named(name));

    let text = engine.metrics().render_prometheus();
    let exp = parse_exposition(&text);
    let hists = exp.histogram_families();
    assert!(
        hists.len() >= 8,
        "need at least 8 histogram families, got {}: {hists:?}",
        hists.len()
    );

    // Histograms that saw traffic are structurally sound: cumulative
    // non-decreasing buckets, an +Inf bucket equal to _count, and a sum.
    for family in ["wf_ingest_apply_ns", "wf_freeze_ns", "wf_cross_run_scan_ns"] {
        assert_eq!(exp.types.get(family).map(String::as_str), Some("histogram"));
        let buckets = &exp.samples[&format!("{family}_bucket")];
        let mut last = 0.0;
        for (labels, count) in buckets {
            assert!(labels.starts_with("le=\""), "bucket label is le: {labels}");
            assert!(*count >= last, "{family} buckets must be cumulative");
            last = *count;
        }
        let (inf_label, inf_count) = buckets.last().unwrap();
        assert_eq!(inf_label, "le=\"+Inf\"", "last bucket is +Inf");
        let count = exp.single_value(&format!("{family}_count")).unwrap();
        assert_eq!(*inf_count, count, "{family}: +Inf bucket equals _count");
        assert!(count > 0.0, "{family} saw traffic in this test");
        assert!(exp.single_value(&format!("{family}_sum")).is_some());
    }

    // Counters agree with stats, and so does every gauge: the engine is
    // quiescent, so the snapshot the scrape took equals this one.
    let json: serde_json::Value = serde_json::from_str(&engine.metrics().render_json()).unwrap();
    let stats = engine.stats();
    assert_eq!(
        exp.single_value("wf_events_ingested_total").unwrap() as u64,
        stats.events_ingested
    );
    // The hot-tier gauge is real bytes, like its persisted neighbour —
    // not the Theorem-3 accounting size, an order of magnitude below.
    let gauge_fields = [
        ("wf_runs_hot", stats.runs_hot),
        ("wf_runs_frozen", stats.runs_frozen),
        ("wf_runs_persisted", stats.runs_persisted),
        ("wf_ingest_backlog", stats.ingest_backlog),
        ("wf_hot_bytes", stats.hot_resident_bytes),
        (
            "wf_persisted_resident_bytes",
            stats.persisted_resident_bytes,
        ),
        ("wf_segment_files", stats.segment_files),
        ("wf_pack_dead_bytes", stats.pack_dead_bytes),
        ("wf_subscriptions", stats.subscriptions),
    ];
    let table = stats.gauges();
    assert_eq!(
        table.map(|(name, _, value)| (name, value)),
        gauge_fields,
        "the gauge table names these families, each with its stats() field"
    );
    assert!(stats.hot_resident_bytes > 4 * stats.hot_bytes() && stats.hot_bytes() > 0);
    assert_eq!((stats.runs_frozen, stats.subscriptions), (1, 1));
    let json_gauges = json.get("gauges").unwrap().as_map().unwrap();
    assert_eq!(json_gauges.len(), table.len());
    for (family, help, value) in table {
        assert_eq!(exp.types.get(family).map(String::as_str), Some("gauge"));
        assert!(text.contains(&format!("# HELP {family} {help}\n")));
        assert_eq!(exp.single_value(family).unwrap() as u64, value, "{family}");
        assert_eq!(
            json.get("gauges").unwrap().get(family),
            Some(&serde_json::Value::U64(value)),
            "{family} in the JSON rendering"
        );
    }

    // The JSON rendering parses and mirrors the same families.
    let hist_map = json.get("histograms").unwrap().as_map().unwrap();
    assert!(hist_map.len() >= 8);
    let apply = json
        .get("histograms")
        .unwrap()
        .get("wf_ingest_apply_ns")
        .unwrap();
    assert!(apply.get("count").is_some() && apply.get("p99").is_some());
}

/// README and the registry name the same metrics: every `wf_…` name the
/// README mentions (Rust paths such as `wf_drl::…` aside) is a family the
/// engine registers, and every histogram family is in the README — a
/// documented metric cannot outlive its deletion, and a new histogram
/// cannot ship undocumented.
#[test]
fn readme_metric_names_and_the_registry_agree() {
    const README: &str = include_str!("../README.md");
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .build();
    let json: serde_json::Value = serde_json::from_str(&engine.metrics().render_json()).unwrap();
    let families = |kind: &str| -> Vec<&str> {
        let map = json.get(kind).unwrap().as_map().unwrap();
        map.iter().map(|(name, _)| name.as_str()).collect()
    };
    let histograms = families("histograms");
    let registered = [families("counters"), families("gauges"), histograms.clone()].concat();

    let is_name = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    let mut mentioned = Vec::new();
    for (at, _) in README.match_indices("wf_") {
        if README[..at].ends_with(is_name) {
            continue; // the middle of a longer identifier
        }
        let rest = &README[at..];
        let name = &rest[..rest.find(|c| !is_name(c)).unwrap_or(rest.len())];
        if name.len() > "wf_".len() && !rest[name.len()..].starts_with("::") {
            mentioned.push(name);
        }
    }
    for name in &mentioned {
        assert!(
            registered.contains(name),
            "README mentions `{name}`, which is not a registered metric family"
        );
    }
    for name in &histograms {
        assert!(
            mentioned.contains(name),
            "histogram family `{name}` is missing from README's table"
        );
    }
}

/// The trace-kind twin of the test above: the engine's own list of the
/// kinds it can record (each instrument's span kind, then the lifecycle
/// kinds — emitters are held to it by a debug assertion), README's
/// trace table and `scripts/obsdump`'s `KINDS` name exactly the same
/// kinds, and the two documents agree on each kind's layer.
#[test]
fn trace_kinds_in_readme_obsdump_and_the_engine_agree() {
    const README: &str = include_str!("../README.md");
    const OBSDUMP: &str = include_str!("../scripts/obsdump");
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .build();
    let kinds = engine.metrics().trace_kinds();
    let distinct: std::collections::HashSet<_> = kinds.iter().collect();
    assert_eq!(kinds.len(), distinct.len(), "a kind is declared twice");
    // Every instrument contributes its span kind, and the lifecycle
    // kinds the watchdog, the buffer manager and the log record follow.
    assert!(kinds.len() > engine.metrics().histogram_names().len());
    for kind in [
        "shed",
        "stall",
        "pack_pin_failed",
        "wal_truncate",
        "wal_recover_failed",
        "wal_append",
        "wal_fsync",
    ] {
        assert!(kinds.contains(&kind), "{kind} is not declared");
    }

    let between = |text: &'static str, from: &str, to: &str| -> &'static str {
        let rest = &text[text.find(from).unwrap_or_else(|| panic!("no {from:?}")) + from.len()..];
        &rest[..rest.find(to).unwrap_or_else(|| panic!("no {to:?}"))]
    };
    // README: `| `kind` | layer | recorded |` rows between the markers.
    let mut declared: Vec<(String, String)> = Vec::new();
    for row in between(
        README,
        "<!-- trace-kinds:begin -->",
        "<!-- trace-kinds:end -->",
    )
    .lines()
    {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        if let [_, kind, layer, ..] = cells[..] {
            if let Some(kind) = kind.strip_prefix('`').and_then(|k| k.strip_suffix('`')) {
                declared.push((kind.to_string(), layer.to_string()));
            }
        }
    }
    // obsdump: `    "kind": "layer",` lines of the KINDS dict.
    let mut handled: Vec<(String, String)> = Vec::new();
    for line in between(OBSDUMP, "\nKINDS = {\n", "\n}\n").lines() {
        let quoted: Vec<&str> = line.split('"').collect();
        if let [_, kind, _, layer, _] = quoted[..] {
            handled.push((kind.to_string(), layer.to_string()));
        }
    }
    assert_eq!(
        declared, handled,
        "README's trace table and obsdump's KINDS differ"
    );
    let documented: Vec<&str> = declared.iter().map(|(kind, _)| kind.as_str()).collect();
    assert_eq!(
        documented, kinds,
        "README / obsdump name other kinds than the engine declares"
    );
}

#[test]
fn slow_pack_pin_lands_in_the_trace_ring() {
    let dir = TempDir::new("pin");
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .spill_dir(&dir.0)
        // Zero threshold: every span is "slow", so the first pin is
        // promoted into the ring deterministically.
        .slow_op_threshold(Duration::ZERO)
        .build();
    let (run, exec) = run_one(&engine, 23);
    engine.persist_run(run).unwrap();
    assert_eq!(engine.run_tier(run).unwrap(), Tier::Persisted);

    // The persisted registration starts cold; this query pays the map +
    // verify pass the histogram and ring must witness.
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    assert!(engine.reach(run, u, v).unwrap().is_some());

    let trace = engine.trace_dump();
    let pin = trace
        .iter()
        .find(|e| e.kind == "pack_pin")
        .unwrap_or_else(|| panic!("no pack_pin event in {} traced events", trace.len()));
    assert_eq!(pin.run_id, Some(run.0));
    assert_eq!(pin.tier, Some("persisted"));
    assert!(pin.detail.contains("bytes="), "detail: {}", pin.detail);
    // The lifecycle events around it are traced too, in timestamp order.
    assert!(trace.iter().any(|e| e.kind == "freeze"));
    assert!(trace.iter().any(|e| e.kind == "spill"));
    assert!(trace.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    // And the first-pin histogram counted exactly one verification,
    // however many queries follow.
    assert!(engine.reach(run, v, u).unwrap().is_some());
    let h = engine.metrics().histogram("wf_pack_pin_ns").unwrap();
    assert_eq!(h.count(), 1);
}

#[test]
fn trace_ring_stays_bounded_at_the_configured_capacity() {
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .slow_op_threshold(Duration::ZERO)
        .trace_capacity(8)
        .build();
    let (run, exec) = run_one(&engine, 31);
    // With a zero threshold every *sampled* span is traced: 2048 probes
    // on this thread put 32 reach events through the 8-slot ring.
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    for _ in 0..2048 {
        let _ = engine.reach(run, u, v).unwrap();
    }
    let trace = engine.trace_dump();
    assert!(trace.len() <= 8, "ring kept {} events", trace.len());
    assert!(engine.trace_dropped() > 0, "overflow is accounted for");
}

#[test]
fn stats_is_a_pure_read_and_a_rate_is_two_snapshots() {
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .build();
    let (_, first) = run_one(&engine, 41);
    let s1 = engine.stats();
    assert_eq!(s1.events_ingested, first.len() as u64);

    // Reading changes nothing: a quiescent engine gives the same
    // snapshot twice, whatever scrapes in between — only time moves.
    let _ = engine.metrics().render_prometheus();
    let _ = engine.metrics().render_json();
    let s2 = engine.stats();
    assert!(s2.uptime >= s1.uptime);
    assert_eq!(
        s2,
        ServiceStats {
            uptime: s2.uptime,
            ..s1
        }
    );

    // What happened over an interval is the difference of the snapshots
    // at its two ends: the second run's events over the time it took,
    // and nothing over an idle one (where the lifetime average decays
    // but never reaches zero).
    let (_, second) = run_one(&engine, 42);
    let s3 = engine.stats();
    assert_eq!(s3.events_ingested - s2.events_ingested, second.len() as u64);
    assert!(s3.uptime > s2.uptime);
    let s4 = engine.stats();
    assert_eq!(s4.events_ingested - s3.events_ingested, 0);
    assert!(s4.events_per_sec() > 0.0);
}

#[test]
fn tier_footprint_line_is_parseable_json() {
    let dir = TempDir::new("footprint");
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .spill_dir(&dir.0)
        .build();
    let (a, _) = run_one(&engine, 51);
    let (_b, _) = run_one(&engine, 52);
    engine.freeze_run(a).unwrap();

    let stats = engine.stats();
    let line = stats.tier_footprint_json();
    let v: serde_json::Value = serde_json::from_str(&line).unwrap();
    assert_eq!(v.get("runs_frozen").unwrap(), &serde_json::Value::U64(1));
    assert_eq!(v.get("freezes").unwrap(), &serde_json::Value::U64(1));

    // The golden: CI greps the leading `"metric":"tier_footprint"` and
    // stamps the line with `jq`, dashboards read the keys — so the key
    // order and the value types are pinned, and each value is the
    // `stats()` field the key names.
    assert!(line.starts_with("{\"metric\":\"tier_footprint\",\"runs_hot\":"));
    let golden = [
        ("runs_hot", stats.runs_hot),
        ("runs_frozen", stats.runs_frozen),
        ("runs_persisted", stats.runs_persisted),
        ("hot_bytes", stats.hot_bytes()),
        ("hot_resident_bytes", stats.hot_resident_bytes),
        ("frozen_bytes", stats.frozen_bytes),
        ("persisted_bytes", stats.persisted_bytes),
        ("persisted_resident_bytes", stats.persisted_resident_bytes),
        ("segment_files", stats.segment_files),
        ("segment_loads", stats.segment_loads),
        ("segment_sheds", stats.segment_sheds),
        ("pack_pins", stats.pack_pins),
        ("pack_dead_bytes", stats.pack_dead_bytes),
        ("hot_label_bits", stats.label_bits_total),
        ("frozen_label_bits", stats.frozen_label_bits),
        ("freezes", stats.freezes),
        ("spills", stats.spills),
        ("reheats", stats.reheats),
        ("compactions", stats.compactions),
    ];
    let mut fields = v.as_map().unwrap().iter();
    let (key, metric) = fields.next().unwrap();
    assert_eq!(
        (key.as_str(), metric.as_str()),
        ("metric", Some("tier_footprint"))
    );
    for (key, value) in golden {
        let (got, got_value) = fields.next().unwrap_or_else(|| panic!("{key} is missing"));
        assert_eq!(got, key, "key order");
        assert_eq!(got_value, &serde_json::Value::U64(value), "{key}");
    }
    assert!(fields.next().is_none(), "no key beyond the golden");
}

#[test]
fn chrome_trace_export_is_loadable_trace_event_json() {
    let dir = TempDir::new("chrome");
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .spill_dir(&dir.0)
        .slow_op_threshold(Duration::ZERO)
        .build();
    let (run, exec) = run_one(&engine, 71);
    engine.persist_run(run).unwrap();
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    assert!(engine.reach(run, u, v).unwrap().is_some());

    let chrome = engine.trace_chrome();
    let v: serde_json::Value = serde_json::from_str(&chrome)
        .unwrap_or_else(|e| panic!("trace_chrome is not valid JSON: {e:?}"));
    let events = v
        .get("traceEvents")
        .expect("top-level traceEvents key")
        .as_seq()
        .expect("traceEvents is an array");
    assert!(!events.is_empty(), "traced work must export events");
    let mut complete = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(serde_json::Value::as_str).unwrap();
        assert!(matches!(ph, "X" | "i"), "unknown phase {ph:?}");
        assert!(ev.get("name").and_then(serde_json::Value::as_str).is_some());
        assert!(ev.get("ts").is_some() && ev.get("pid").is_some() && ev.get("tid").is_some());
        match ph {
            "X" => {
                complete += 1;
                let dur = match ev.get("dur").unwrap() {
                    serde_json::Value::U64(d) => *d,
                    other => panic!("dur is not an integer: {other:?}"),
                };
                assert!(dur >= 1, "complete events have a nonzero viewer width");
            }
            _ => {
                // Instant events carry thread scope so viewers draw them.
                assert_eq!(
                    ev.get("s").and_then(serde_json::Value::as_str),
                    Some("t"),
                    "instant events are thread-scoped"
                );
            }
        }
    }
    assert!(
        complete > 0,
        "the first-pin span exports as a complete event"
    );
}

#[test]
fn sampled_ingest_spans_stitch_across_worker_and_wal_threads() {
    let dir = TempDir::new("stitch");
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .wal_dir(&dir.0)
        .ingest_workers(1)
        .slow_op_threshold(Duration::ZERO)
        .trace_capacity(4096)
        .build();
    let spec = &engine.context(SpecId(0)).unwrap().spec;
    let mut rng = StdRng::seed_from_u64(73);
    let gen = RunGenerator::new(spec)
        .target_size(300)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let run = engine.open_run(SpecId(0)).unwrap();
    // The pipelined path: the producer-side sampler (1 in 64) opens the
    // root span here, and its context rides the envelope to the worker.
    for ev in exec.events() {
        engine
            .ingest(ServiceEvent {
                run,
                op: RunOp::Insert(ev.clone()),
            })
            .unwrap();
    }
    engine.flush();

    let trace = engine.trace_dump();
    let roots: Vec<_> = trace
        .iter()
        .filter(|e| e.kind == "ingest" && e.parent_id == 0)
        .collect();
    assert!(
        !roots.is_empty(),
        "300 events through one producer thread must sample at least one root"
    );
    let mut stitched = 0usize;
    for root in &roots {
        assert_ne!(root.span_id, 0, "traced roots carry a span id");
        assert_eq!(root.trace_id, root.span_id, "a root starts its own trace");
        let Some(apply) = trace
            .iter()
            .find(|e| e.kind == "ingest_apply" && e.parent_id == root.span_id)
        else {
            continue; // evicted by the ring before the dump
        };
        assert_eq!(
            apply.trace_id, root.trace_id,
            "the worker's apply span joins the producer's trace"
        );
        let wal = trace
            .iter()
            .find(|e| e.kind == "wal_append" && e.parent_id == apply.span_id)
            .expect("the WAL append inside a sampled apply traces as its child");
        assert_eq!(wal.trace_id, root.trace_id);
        stitched += 1;
    }
    assert!(
        stitched > 0,
        "at least one full ingest -> apply -> wal_append chain in {} events",
        trace.len()
    );
}

/// A panic unwinds past the span closer, so whoever catches it puts the
/// thread's span context back. A 1-worker WAL engine gets 64 panicking
/// applies from one producer — every run's second event names a graph
/// the specification lacks — so the producer's sampler (1 in 64) picks
/// panicking ones; then a 300-event run. A worker left under the dead
/// span would trace every later WAL append as its child; with the
/// context put back only the sampled applies' appends trace.
#[test]
fn a_caught_panic_leaves_no_dead_span_context() {
    let dir = TempDir::new("deadspan");
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .wal_dir(&dir.0)
        .ingest_workers(1)
        .trace_capacity(4096)
        .build();
    let spec = &engine.context(SpecId(0)).unwrap().spec;
    let short = {
        let gen = RunGenerator::new(spec)
            .target_size(20)
            .generate_run(&mut StdRng::seed_from_u64(5));
        Execution::deterministic(&gen.graph, &gen.origin)
    };
    let mut bad = short.events()[1].clone();
    bad.origin.0 = wf_spec::GraphId(u32::MAX);
    let ingest = |run: RunId, ev: &ExecEvent| {
        let op = RunOp::Insert(ev.clone());
        engine.ingest(ServiceEvent { run, op }).unwrap();
    };
    for _ in 0..64 {
        let run = engine
            .open_run_with(SpecId(0), ResolutionMode::LogBased)
            .unwrap();
        ingest(run, &short.events()[0]);
        ingest(run, &bad);
    }
    engine.flush();
    let errors = engine.take_ingest_errors();
    assert_eq!(errors.len(), 64);
    assert!(errors
        .iter()
        .all(|(run, e)| *e == ServiceError::WorkerPanicked(*run)));

    let gen = RunGenerator::new(spec)
        .target_size(300)
        .generate_run(&mut StdRng::seed_from_u64(73));
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        ingest(run, ev);
    }
    engine.flush();
    let appends = engine
        .trace_dump()
        .iter()
        .filter(|e| e.kind == "wal_append")
        .count();
    assert!(
        appends < 30,
        "{appends} WAL appends traced after a sampled apply panicked"
    );
}

#[test]
fn query_root_span_parents_bufmgr_pin_leaves() {
    let dir = TempDir::new("qspan");
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .spill_dir(&dir.0)
        .slow_op_threshold(Duration::ZERO)
        .trace_capacity(4096)
        .build();
    let (run, exec) = run_one(&engine, 79);
    engine.persist_run(run).unwrap();
    let name = exec.events()[1].name;
    let hits = engine
        .query()
        .completed()
        .runs_reaching_named_from_source(name);
    assert_eq!(hits, vec![run]);

    let trace = engine.trace_dump();
    let scan = trace
        .iter()
        .find(|e| e.kind == "cross_run_scan")
        .expect("the query root span is traced");
    assert_eq!(scan.parent_id, 0, "the query span is a root");
    let pin = trace
        .iter()
        .find(|e| e.kind == "pack_pin")
        .expect("the cold segment pins in under the scan");
    assert_eq!(
        pin.trace_id, scan.trace_id,
        "the bufmgr leaf joins the query's trace"
    );
    assert_eq!(
        pin.parent_id, scan.span_id,
        "the bufmgr leaf parents under the query root"
    );
}

#[test]
fn explain_profile_reports_cold_costs_then_a_warm_second_run() {
    let dir = TempDir::new("explain");
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .spill_dir(&dir.0)
        .build();
    let (run, exec) = run_one(&engine, 83);
    engine.persist_run(run).unwrap();
    let name = exec.events()[1].name;

    let cold = engine
        .query()
        .completed()
        .explain()
        .runs_reaching_named_from_source(name);
    assert_eq!(
        cold.value,
        vec![run],
        "EXPLAIN answers like the plain query"
    );
    assert_eq!(cold.profile.runs_persisted, 1);
    assert_eq!(cold.profile.runs_scanned(), 1);
    assert_eq!(cold.profile.pack_pins, 1, "a cold scan pays the pin");
    assert_eq!(cold.profile.verifies_skipped, 0);
    assert!(cold.profile.labels_scanned > 0);
    assert_ne!(cold.profile.trace_id, 0, "the profile names its trace");

    let warm = engine
        .query()
        .completed()
        .explain()
        .runs_reaching_named_from_source(name);
    assert_eq!(warm.value, cold.value, "EXPLAIN is deterministic");
    assert_eq!(warm.profile.pack_pins, 0, "second run is warm: no pins");
    assert!(
        warm.profile.verifies_skipped > 0,
        "warm pins skip the verify pass"
    );
    assert_eq!(warm.profile.labels_scanned, cold.profile.labels_scanned);

    // Both renderings hold together: JSON parses, the table mentions
    // every tier, and the two agree on the headline counts.
    let v: serde_json::Value = serde_json::from_str(&cold.profile.json()).unwrap();
    assert_eq!(
        v.get("runs").unwrap().get("persisted").unwrap(),
        &serde_json::Value::U64(1)
    );
    assert!(v.get("stages_ns").unwrap().get("scan_persisted").is_some());
    assert!(v.get("wall_ns").is_some() && v.get("pack_pins").is_some());
    let table = cold.profile.table();
    for needle in ["runs scanned", "pack_pins", "wall"] {
        assert!(table.contains(needle), "table misses {needle:?}:\n{table}");
    }
}

/// A committer window far longer than the watchdog interval, with no
/// `flush()` to cut it short, is a WAL that is not draining: the oldest
/// unsynced append ages past the watchdog's bound and the verdict
/// escalates to `Stalled` blaming `WalCommitLag`. A `flush()` is a
/// barrier — it runs the pass now — and the verdict heals.
#[test]
fn watchdog_escalates_a_lagging_wal_committer_to_stalled() {
    let dir = TempDir::new("stall");
    let interval = Duration::from_millis(20);
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .wal_dir(&dir.0)
        .wal_sync(WalSync::GroupCommit {
            window: Duration::from_secs(3600),
        })
        .watchdog(interval)
        .build();
    assert_eq!(engine.health(), Health::Healthy);

    let spec = &engine.context(SpecId(0)).unwrap().spec;
    let mut rng = StdRng::seed_from_u64(89);
    let gen = RunGenerator::new(spec)
        .target_size(100)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let run = engine.open_run(SpecId(0)).unwrap();

    // `submit` takes no barrier: the oldest unsynced record's age now
    // grows for the hour and the watchdog must notice.
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    assert!(engine.wal_sync_lag_ns() > 0, "unsynced appends are pending");

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut verdict = engine.health();
    loop {
        if let Health::Stalled { causes } = &verdict {
            assert!(
                causes.contains(&StallCause::WalCommitLag),
                "stall blames the committer: {causes:?}"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watchdog never escalated; last verdict {verdict:?}"
        );
        std::thread::sleep(interval / 4);
        verdict = engine.health();
    }
    // The violations were promoted into the trace ring as stall events.
    assert!(
        engine
            .trace_dump()
            .iter()
            .any(|e| e.kind == "stall" && e.detail.contains("cause=wal_commit_lag")),
        "stall events carry the diagnosed cause"
    );

    // A barrier drains the backlog and the verdict heals.
    engine.flush();
    assert_eq!(engine.wal_sync_lag_ns(), 0, "the flush drained the backlog");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while engine.health() != Health::Healthy {
        assert!(
            std::time::Instant::now() < deadline,
            "health never recovered after the flush"
        );
        std::thread::sleep(interval / 4);
    }
}

#[test]
fn disabling_telemetry_keeps_stats_but_stops_histograms_and_traces() {
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .telemetry(false)
        .slow_op_threshold(Duration::ZERO)
        .build();
    let (run, exec) = run_one(&engine, 61);
    engine.freeze_run(run).unwrap();
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    for _ in 0..128 {
        let _ = engine.reach(run, u, v).unwrap();
    }

    // Lifetime counters (and therefore stats) are unaffected…
    let stats = engine.stats();
    assert_eq!(stats.events_ingested, exec.len() as u64);
    assert_eq!(stats.freezes, 1);
    assert!(stats.queries_answered >= 128);

    // …but nothing was timed and nothing was traced.
    assert!(engine.trace_dump().is_empty());
    assert_eq!(engine.trace_dropped(), 0);
    for name in engine.metrics().histogram_names() {
        let h = engine.metrics().histogram(&name).unwrap();
        assert_eq!(h.count(), 0, "{name} recorded despite telemetry(false)");
    }
    // The export surface still renders (counters are live).
    let exp = parse_exposition(&engine.metrics().render_prometheus());
    assert_eq!(
        exp.single_value("wf_events_ingested_total").unwrap() as u64,
        exec.len() as u64
    );
}
