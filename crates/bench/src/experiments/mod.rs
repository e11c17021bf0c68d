//! One module per evaluation artifact. The registry maps experiment ids
//! (as used by the `experiments` binary; `experiments list` prints them) to
//! runners.

pub mod ablation;
pub mod bioaid;
pub mod bounds;
pub mod comparison;
pub mod synthetic;

use crate::Config;

/// All experiment ids with their descriptions, in paper order.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "fig1",
        "Figure 1: max label length per graph class, static vs dynamic",
    ),
    ("fig14", "Figure 14: BioAID label length vs run size"),
    (
        "fig15",
        "Figure 15: BioAID construction time (derivation vs execution)",
    ),
    (
        "fig16",
        "Figure 16: BioAID query time, DRL(TCL) vs DRL(BFS)",
    ),
    (
        "tab2",
        "Table 2: specification-labeling overhead, DRL vs SKL",
    ),
    ("fig17", "Figure 17: max label length vs sub-workflow size"),
    ("fig18", "Figure 18: max label length vs nesting depth"),
    ("fig19", "Figure 19: linear vs nonlinear recursion"),
    ("fig20", "Figure 20: DRL vs SKL label length"),
    ("fig21", "Figure 21: DRL vs SKL construction time"),
    (
        "fig22",
        "Figure 22: query time, all four scheme combinations",
    ),
    (
        "thm1",
        "Theorem 1: Ω(n) labels under nonlinear recursion (Figure 6 grammar)",
    ),
    (
        "abl_rnodes",
        "Ablation: R-node compression on/off for linear recursion",
    ),
    (
        "abl_prefix",
        "Ablation: entry counts vs run size (Lemma 4.1 bound)",
    ),
    (
        "fig12x",
        "Example 15: compact execution-based labels for Figure 12's grammar",
    ),
];

/// Run one experiment by id; `None` for unknown ids.
pub fn run(id: &str, cfg: &Config) -> Option<String> {
    let out = match id {
        "fig1" => bounds::fig1(cfg),
        "fig14" => bioaid::fig14(cfg),
        "fig15" => bioaid::fig15(cfg),
        "fig16" => bioaid::fig16(cfg),
        "tab2" => bioaid::tab2(cfg),
        "fig17" => synthetic::fig17(cfg),
        "fig18" => synthetic::fig18(cfg),
        "fig19" => synthetic::fig19(cfg),
        "fig20" => comparison::fig20(cfg),
        "fig21" => comparison::fig21(cfg),
        "fig22" => comparison::fig22(cfg),
        "thm1" => bounds::thm1(cfg),
        "abl_rnodes" => ablation::abl_rnodes(cfg),
        "abl_prefix" => ablation::abl_prefix(cfg),
        "fig12x" => bounds::fig12x(cfg),
        _ => return None,
    };
    Some(out)
}

/// Run every experiment, concatenating the reports.
pub fn run_all(cfg: &Config) -> String {
    EXPERIMENTS
        .iter()
        .map(|(id, _)| run(id, cfg).expect("registered experiment"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_id() {
        let cfg = Config::smoke();
        for (id, _) in EXPERIMENTS {
            assert!(run(id, &cfg).is_some(), "experiment {id} must run");
        }
        assert!(run("nope", &cfg).is_none());
    }
}
