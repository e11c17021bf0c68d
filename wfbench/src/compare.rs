//! `wfbench compare <set-a> <set-b>`: do two sets of runs of the same
//! commit on the same box agree within the benchmark's own bounds?
//!
//! A set is a result file: one JSON object per line, several seeds per
//! workload. Per workload × end-to-end metric the tool prints both
//! medians, the interquartile spreads (Python's
//! `statistics.quantiles(n=4)` rule, as the acceptance driver uses), the
//! delta and the bound, and marks the pair `ok`, `worse` (either set is
//! worse than the other by more than the bound: the sets are of one
//! commit, so neither direction is a gain) or `unresolved` (a spread
//! wider than the bound). Exit status reflects `worse`. Per-layer
//! metrics that plain runs record (the demoted timing metrics) get the
//! same row, marked `not gated`: the evidence for demoting a metric or
//! promoting it back.

use crate::manifest::{self, Better};
use crate::stats::{median, quartiles_exclusive};
use serde_json::Value;
use std::collections::BTreeMap;

type Set = BTreeMap<(String, String), Vec<f64>>;

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

struct Loaded {
    values: Set,
    boxes: Vec<String>,
    failed: u64,
}

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Loaded {
        values: Set::new(),
        boxes: Vec::new(),
        failed: 0,
    };
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if matches!(v.get("trace"), Some(Value::Bool(true))) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?
            .to_string();
        out.failed += v.get("failed").and_then(as_f64).unwrap_or(0.0) as u64;
        if let Some(b) = v.get("box") {
            let desc = format!(
                "{} x {} ({}), rustc {}, commit {}",
                b.get("nproc").and_then(as_f64).unwrap_or(0.0),
                b.get("cpu").and_then(Value::as_str).unwrap_or("?"),
                b.get("governor").and_then(Value::as_str).unwrap_or("?"),
                b.get("rustc").and_then(Value::as_str).unwrap_or("?"),
                b.get("commit").and_then(Value::as_str).unwrap_or("?"),
            );
            if !out.boxes.contains(&desc) {
                out.boxes.push(desc);
            }
            if b.get("loadavg_1m").and_then(as_f64).unwrap_or(0.0) > 0.5 {
                eprintln!(
                    "warning: {path}:{}: loadavg > 0.5 when the run started",
                    n + 1
                );
            }
        }
        for (name, m) in v.get("metrics").and_then(Value::as_map).unwrap_or(&[]) {
            if let Some(x) = m.get("value").and_then(as_f64) {
                out.values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(out)
}

/// Returns the process exit code: 1 if any pair is `worse`, else 0.
pub fn compare(a_path: &str, b_path: &str) -> Result<i32, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (tag, set) in [("A", &a), ("B", &b)] {
        for desc in &set.boxes {
            println!("box {tag}: {desc}");
        }
        if set.failed > 0 {
            println!("set {tag}: {} failed operations", set.failed);
        }
    }
    println!(
        "{:<15} {:<24} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "delta", "bound"
    );
    let mut worse = 0;
    let mut unresolved = 0;
    let manifest = manifest::get();
    for w in &manifest.workloads {
        for m in manifest.end_to_end.iter().chain(&manifest.per_layer) {
            let key = (w.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let spread = |v: &[f64], med: f64| {
                let (q1, q3) = quartiles_exclusive(v);
                if med == 0.0 {
                    0.0
                } else {
                    (q3 - q1) / med
                }
            };
            let (sa, sb) = (spread(va, ma), spread(vb, mb));
            // How much worse `y` is than `x`, as a share of `x`.
            let worse_by = |x: f64, y: f64| match m.better {
                _ if x == 0.0 => 0.0,
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let delta = worse_by(ma, mb);
            let (bound, verdict) = match m.bound {
                None => ("-".to_string(), "not gated"),
                Some(bound) => (
                    format!("{:.0}%", bound * 100.0),
                    if delta > bound || worse_by(mb, ma) > bound {
                        worse += 1;
                        "worse"
                    } else if sa > bound || sb > bound {
                        unresolved += 1;
                        "unresolved"
                    } else {
                        "ok"
                    },
                ),
            };
            println!(
                "{:<15} {:<24} {:>14.4} {:>7.1}% {:>14.4} {:>7.1}% {:>+7.1}% {bound:>6}  {verdict}",
                w,
                m.name,
                ma,
                sa * 100.0,
                mb,
                sb * 100.0,
                delta * 100.0,
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(i32::from(worse > 0))
}
