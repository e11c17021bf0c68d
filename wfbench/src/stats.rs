//! Sample summaries and the time-bounded loop every station's slice uses.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for even counts).
/// Empty input yields 0 so a station that measured nothing still reports.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them — the rule the acceptance driver
/// applies, so `compare` must apply the same one.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        // statistics.quantiles, method='exclusive', n=4, cut point i.
        let j = i * (n + 1) / 4;
        let j = j.clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// One metric's samples from one process: the value reported is the
/// median; quartiles and count ride along in the result file.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    pub fn q1(&self) -> f64 {
        quantile(&self.0, 0.25)
    }

    pub fn q3(&self) -> f64 {
        quantile(&self.0, 0.75)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// A timing metric's samples, one per round: a station adds `(amount,
/// per)` for every window or pass it times (operations over seconds for
/// a rate, milliseconds over calls for a latency), and a round's sample
/// is the ratio of the sums — the work the round did over the time it
/// took, wherever in the round the station's slices fell.
#[derive(Debug, Clone, Default)]
pub struct PerRound {
    amount: f64,
    per: f64,
    pub rounds: Samples,
}

impl PerRound {
    pub fn add(&mut self, amount: f64, per: f64) {
        self.amount += amount;
        self.per += per;
    }

    /// Close the round: keep its sample (if anything was measured) and
    /// start the next one.
    pub fn end_round(&mut self) {
        if self.per > 0.0 {
            self.rounds.push(self.amount / self.per);
        }
        (self.amount, self.per) = (0.0, 0.0);
    }
}

/// Run `lap` at least once, and again while at least half of another
/// lap (judged by the last one) still fits into `budget`: one station's
/// slice of one turn. Overruns and underruns then roughly cancel, so a
/// run measures for about `--seconds` whatever a lap costs.
pub fn laps_within(budget: Duration, mut lap: impl FnMut()) {
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        lap();
        if start.elapsed() + t0.elapsed() / 2 >= budget {
            return;
        }
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn a_round_sample_is_work_over_time() {
        let mut m = PerRound::default();
        m.add(100.0, 0.5);
        m.add(500.0, 1.5);
        m.end_round();
        m.end_round(); // nothing measured: no sample
        m.add(50.0, 1.0);
        m.end_round();
        assert_eq!(m.rounds.0, vec![300.0, 50.0]);
    }
}
