//! Reproduce the paper's evaluation (Section 7) from the command line.
//!
//! ```text
//! experiments all                  # every table and figure
//! experiments fig14 fig20         # selected artifacts
//! experiments list                 # available ids
//! experiments all --samples 50     # closer to the paper's 10³ samples
//! experiments all --queries 100000 --sizes 1000,2000,4000
//! ```

use wf_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    let (cfg, ids) = match wf_bench::parse_args(&args) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("experiments: {error}");
            print_help();
            std::process::exit(2);
        }
    };
    if ids.iter().any(|id| id == "list") {
        for (id, desc) in experiments::EXPERIMENTS {
            println!("{id:8} {desc}");
        }
        return;
    }
    eprintln!(
        "# config: sizes={:?} samples={} queries={} seed={}",
        cfg.sizes, cfg.samples, cfg.queries, cfg.seed
    );
    if ids.iter().any(|id| id == "all") {
        println!("{}", experiments::run_all(&cfg));
        return;
    }
    for id in &ids {
        match experiments::run(id, &cfg) {
            Some(out) => println!("{out}"),
            None => {
                eprintln!("unknown experiment {id:?}; try `experiments list`");
                std::process::exit(2);
            }
        }
    }
}

fn print_help() {
    eprintln!(
        "usage: experiments <id>... | all | list \
         [--samples N] [--queries N] [--seed N] [--sizes a,b,c]"
    );
    eprintln!("reproduces the tables and figures of Section 7; `experiments list` names them");
}
