//! # wf-bench
//!
//! The benchmark harness reproducing **every table and figure** of the
//! paper's evaluation (Section 7). Each experiment has a module under
//! [`experiments`] and is runnable via the `experiments` binary:
//!
//! ```text
//! cargo run -p wf-bench --release --bin experiments -- all
//! cargo run -p wf-bench --release --bin experiments -- fig14 --samples 20
//! ```
//!
//! Absolute numbers differ from the paper's 2011 Java/Pentium testbed;
//! the reproduction targets are the *shapes*: logarithmic label growth
//! with slope ≈ 1 for DRL vs ≈ 3 for SKL, linear construction time,
//! constant query time, and the crossovers reported in §7.4 (see
//! EXPERIMENTS.md for paper-vs-measured values).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod metrics;
pub mod workloads;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Run sizes to sweep (the paper uses 1K→32K by factors of 2).
    pub sizes: Vec<usize>,
    /// Sample runs per data point (the paper uses 10³; default is
    /// smaller so the suite completes in minutes — fully seeded either
    /// way).
    pub samples: usize,
    /// Query pairs per data point (the paper uses 10⁵).
    pub queries: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            sizes: vec![1000, 2000, 4000, 8000, 16000, 32000],
            samples: 10,
            queries: 100_000,
            seed: 0xC0FFEE,
        }
    }
}

impl Config {
    /// A reduced configuration for smoke tests.
    pub fn smoke() -> Self {
        Self {
            sizes: vec![300, 600],
            samples: 2,
            queries: 2000,
            seed: 7,
        }
    }
}
