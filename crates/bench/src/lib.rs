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
//! constant query time, and the crossovers reported in §7.4
//! (`experiments list` names every artifact).

#![forbid(unsafe_code)]

use std::str::FromStr;

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

/// Parse the `experiments` binary's arguments (the program name left out)
/// into the configuration and the ids to run. A flag without a value, a
/// value that is not a number, a `--samples` or `--queries` of 0 (an
/// empty mean) or no id at all is an error, named in the `Err`.
pub fn parse_args(args: &[String]) -> Result<(Config, Vec<String>), String> {
    let mut cfg = Config::default();
    let mut ids = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        if !matches!(flag, "--samples" | "--queries" | "--seed" | "--sizes") {
            ids.push(arg.clone());
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag {
            "--samples" => cfg.samples = number(flag, value)?,
            "--queries" => cfg.queries = number(flag, value)?,
            "--seed" => cfg.seed = number(flag, value)?,
            _ => {
                cfg.sizes = value
                    .split(',')
                    .map(|size| number(flag, size))
                    .collect::<Result<_, _>>()?
            }
        }
    }
    if cfg.samples == 0 || cfg.queries == 0 {
        return Err("--samples and --queries must be at least 1".into());
    }
    if ids.is_empty() {
        return Err("no experiment id given".into());
    }
    Ok((cfg, ids))
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a number, not {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(Config, Vec<String>), String> {
        parse_args(&line.split(' ').map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn flags_set_the_config_and_the_rest_are_ids() {
        let (cfg, ids) =
            parse("fig1 --samples 3 --queries 9 --seed 4 --sizes 200,400 thm1").unwrap();
        assert_eq!(ids, ["fig1", "thm1"]);
        assert_eq!((cfg.samples, cfg.queries, cfg.seed), (3, 9, 4));
        assert_eq!(cfg.sizes, [200, 400]);
    }

    #[test]
    fn bad_arguments_are_errors() {
        for (line, error) in [
            ("fig1 --samples", "--samples takes a value"),
            ("fig1 --sizes", "--sizes takes a value"),
            ("fig1 --seed x", "--seed takes a number, not \"x\""),
            ("fig1 --queries -1", "--queries takes a number, not \"-1\""),
            ("fig1 --sizes 200,,400", "--sizes takes a number, not \"\""),
            ("fig1 --sizes ", "--sizes takes a number, not \"\""),
            (
                "fig1 --samples 0",
                "--samples and --queries must be at least 1",
            ),
            (
                "fig1 --queries 0",
                "--samples and --queries must be at least 1",
            ),
            ("--samples 2", "no experiment id given"),
        ] {
            assert_eq!(parse(line).unwrap_err(), error, "{line}");
        }
    }
}
