//! What one run reports: metric values, the operation ledger, the box
//! descriptor, and their JSON forms.

use crate::manifest::{self, metrics_for, Metric};
use crate::stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Operations attempted and failed. A wrong answer is a failed op, not
/// a panic; the process exits non-zero if any op failed.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    shown: u32,
}

impl Ops {
    pub fn add(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(1, what);
        }
        ok
    }

    /// Count `n` failures among operations already added.
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.shown < 8 {
            self.shown += 1;
            eprintln!("wfbench: FAILED op: {}", what());
        }
    }
}

#[derive(Debug, Clone)]
pub struct Value {
    /// The reported value: the median of the samples.
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// Every sample, in the order taken (empty for plain values).
    pub samples: Vec<f64>,
}

/// Metric values by name. Stations write what they measured; `main`
/// emits the manifest's names for the mode (`--trace 0`: every
/// end-to-end metric, `--trace 1`: every per-layer metric).
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, Value>,
}

impl Report {
    /// A metric with several samples (one per round for the timing
    /// metrics): the value is their median; quartiles, count and the
    /// samples themselves ride along in the result file.
    pub fn samples(&mut self, name: &'static str, s: &Samples) {
        self.values.insert(
            name,
            Value {
                value: s.median(),
                q1: s.q1(),
                q3: s.q3(),
                n: s.len(),
                samples: if s.len() > 1 { s.0.clone() } else { Vec::new() },
            },
        );
    }

    /// A metric measured once (counts, sizes, ratios).
    pub fn value(&mut self, name: &'static str, v: f64) {
        self.samples(name, &Samples(vec![v]));
    }

    /// Names the mode must print that nothing measured: the manifest
    /// and the program disagree.
    pub fn missing(&self, trace: bool) -> Vec<&'static str> {
        metrics_for(trace)
            .iter()
            .map(|m| m.name.as_str())
            .filter(|n| !self.values.contains_key(n))
            .collect()
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, values with all their digits.
pub fn contract_line(report: &Report, ops: &Ops, trace: bool) -> String {
    let mut o = String::new();
    let _ = write!(
        o,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failed == 0,
        ops.attempted.max(1),
        ops.failed
    );
    for (i, m) in metrics_for(trace).iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        let _ = write!(
            o,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(report.values[m.name.as_str()].value),
            m.unit
        );
    }
    o.push_str("}}");
    o
}

/// What the table and the result file carry: every metric of the mode
/// and, in a plain run, the per-layer metrics it measured anyway (the
/// demoted timing metrics, here without spans).
fn recorded<'a>(report: &'a Report, trace: bool) -> impl Iterator<Item = &'static Metric> + 'a {
    let extra = manifest::get().per_layer.iter();
    metrics_for(trace)
        .iter()
        .chain(extra.filter(move |m| !trace && report.values.contains_key(m.name.as_str())))
}

/// The table a person reads: every metric by name, with unit,
/// quartiles and sample count.
pub fn table(report: &Report, trace: bool) -> String {
    let mut o = String::new();
    for m in recorded(report, trace) {
        let v = &report.values[m.name.as_str()];
        let _ = writeln!(
            o,
            "  {:<32} {:>16.4} {:<10} q1 {:>14.4}  q3 {:>14.4}  n {}",
            m.name, v.value, m.unit, v.q1, v.q3, v.n
        );
    }
    o
}

/// Where the numbers were taken. Rides in every result file so two
/// sets can be told apart before they are compared.
#[derive(Debug, Clone)]
pub struct BoxInfo {
    pub nproc: usize,
    pub cpu: String,
    pub governor: String,
    pub loadavg_1m: f64,
    pub rustc: String,
    pub commit: String,
}

impl BoxInfo {
    pub fn read() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let governor =
            std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unreadable".into());
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|x| x.parse().ok()))
            .unwrap_or(0.0);
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            governor,
            loadavg_1m,
            rustc: env("WFBENCH_RUSTC"),
            commit: env("WFBENCH_COMMIT"),
        }
    }

    fn json(&self, seed: u64) -> String {
        let esc = |s: &str| s.replace(['"', '\\'], "'");
        format!(
            "{{\"nproc\": {}, \"cpu\": \"{}\", \"governor\": \"{}\", \"loadavg_1m\": {}, \
             \"rustc\": \"{}\", \"commit\": \"{}\", \"seed\": {seed}}}",
            self.nproc,
            esc(&self.cpu),
            esc(&self.governor),
            num(self.loadavg_1m),
            esc(&self.rustc),
            esc(&self.commit)
        )
    }
}

/// One line of the result file: the contract's fields plus workload,
/// mode, box descriptor, quartiles, sample counts and samples.
pub fn result_line(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    boxinfo: &BoxInfo,
    report: &Report,
    ops: &Ops,
) -> String {
    let mut o = String::new();
    let _ = write!(
        o,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {}, \"trace\": {trace}, \
         \"box\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        num(seconds),
        boxinfo.json(seed),
        ops.failed == 0,
        ops.attempted,
        ops.failed
    );
    for (i, m) in recorded(report, trace).enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        let v = &report.values[m.name.as_str()];
        let _ = write!(
            o,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]}}",
            m.name,
            num(v.value),
            m.unit,
            num(v.q1),
            num(v.q3),
            v.n,
            v.samples.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ")
        );
    }
    o.push_str("}}");
    o
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
