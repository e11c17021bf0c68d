//! `BENCHMARK.json`, compiled in: the one list of workloads, metrics,
//! directions and bounds. The program prints exactly the names the
//! manifest lists, so the two cannot name different things.

use serde_json::Value;
use std::sync::OnceLock;

const TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn text(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` missing"))
        .to_string()
}

fn metrics(v: &Value, key: &str) -> Vec<Metric> {
    let list = v.get(key).and_then(Value::as_seq);
    list.unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` missing"))
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: match text(m, "better").as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => panic!("BENCHMARK.json: better = `{other}`"),
            },
            bound: match m.get("bound") {
                Some(Value::F64(b)) => Some(*b),
                _ => None,
            },
        })
        .collect()
}

/// The parsed manifest. A malformed `BENCHMARK.json` is a bug in this
/// directory's own commit, so it panics rather than returning an error.
pub fn get() -> &'static Manifest {
    static PARSED: OnceLock<Manifest> = OnceLock::new();
    PARSED.get_or_init(|| {
        let v: Value = serde_json::from_str(TEXT).expect("BENCHMARK.json parses");
        let workloads = v.get("workloads").and_then(Value::as_seq);
        Manifest {
            run_seconds: match v.get("run_seconds") {
                Some(Value::U64(n)) => *n,
                _ => panic!("BENCHMARK.json: `run_seconds` missing"),
            },
            workloads: workloads
                .expect("BENCHMARK.json: `workloads` missing")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics(&v, "end_to_end"),
            per_layer: metrics(&v, "per_layer"),
        }
    })
}

/// The metrics a mode must print: `--trace 0` every end-to-end metric,
/// `--trace 1` every per-layer metric.
pub fn metrics_for(trace: bool) -> &'static [Metric] {
    if trace {
        &get().per_layer
    } else {
        &get().end_to_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_respects_the_contract_limits() {
        let m = get();
        assert!(TEXT.len() < 64 * 1024);
        assert!((1..=60).contains(&m.run_seconds));
        assert!((2..=8).contains(&m.workloads.len()));
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));
        assert!(m
            .end_to_end
            .iter()
            .all(|e| e.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = m.end_to_end.iter().find(|e| e.name == "setup_s");
        assert!(setup.is_some_and(|s| s.unit == "s" && s.better == Better::Lower));
        let mut names: Vec<&String> = m.workloads.iter().collect();
        names.extend(m.end_to_end.iter().chain(&m.per_layer).map(|e| &e.name));
        assert!(names.iter().all(|n| n.len() <= 64));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
    }
}
