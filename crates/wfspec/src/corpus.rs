//! The paper's concrete specifications.
//!
//! * [`running_example`] — Figure 2 (grammar in Figure 4): loop `L`, fork
//!   `F`, and a linear recursion between `A` and `C`.
//! * [`theorem1`] — Figure 6: the nonlinear grammar used to prove the
//!   Ω(n) lower bound for dynamic labeling (Theorem 1).
//! * [`fig12`] — Figure 12: a nonlinear (series) recursive grammar whose
//!   runs are simple paths, admitting a compact *execution-based* scheme
//!   (Example 15).
//! * [`bioaid`] — a stand-in for the BioAID workflow of §7.2 with exactly
//!   the statistics the paper reports: 11
//!   sub-workflows, average size ≈ 10.5, nesting depth 2, 2 loop modules,
//!   4 fork modules, one linear recursion of length 2.
//! * [`bioaid_nonrecursive`] — the same workflow with its recursion
//!   converted to a loop (the paper's footnote 6), used for the DRL vs
//!   SKL comparison of §7.4.

use crate::builder::{GraphBuilder, SpecBuilder};
use crate::spec::Specification;

/// The running example of Figures 2–4.
///
/// * `g0`: `s0 → L → t0`
/// * `L := h1`: `s1 → F → t1` (loop body)
/// * `F := h2`: `s2 → A → t2` (fork body)
/// * `A := h3`: `s3 → B → C → t3`  |  `h4`: `s4 → t4`
/// * `B := h5`: `s5 → t5`
/// * `C := h6`: `s6 → A → t6`
///
/// `A` and `C` form a linear recursion (Example 7).
pub fn running_example() -> Specification {
    let mut b = SpecBuilder::new();
    b.loop_module("L");
    b.fork_module("F");
    b.composite("A");
    b.composite("B");
    b.composite("C");
    b.start(|g| {
        let s = g.vertex("s0");
        let l = g.vertex("L");
        let t = g.vertex("t0");
        g.chain(&[s, l, t]);
    });
    b.implementation("L", |g| {
        let s = g.vertex("s1");
        let f = g.vertex("F");
        let t = g.vertex("t1");
        g.chain(&[s, f, t]);
    });
    b.implementation("F", |g| {
        let s = g.vertex("s2");
        let a = g.vertex("A");
        let t = g.vertex("t2");
        g.chain(&[s, a, t]);
    });
    b.implementation("A", |g| {
        let s = g.vertex("s3");
        let bb = g.vertex("B");
        let c = g.vertex("C");
        let t = g.vertex("t3");
        g.chain(&[s, bb, c, t]);
    });
    b.implementation("A", |g| {
        let s = g.vertex("s4");
        let t = g.vertex("t4");
        g.edge(s, t);
    });
    b.implementation("B", |g| {
        let s = g.vertex("s5");
        let t = g.vertex("t5");
        g.edge(s, t);
    });
    b.implementation("C", |g| {
        let s = g.vertex("s6");
        let a = g.vertex("A");
        let t = g.vertex("t6");
        g.chain(&[s, a, t]);
    });
    b.build().expect("running example is a valid specification")
}

/// The lower-bound grammar of Figure 6 (proof of Theorem 1).
///
/// * `g0`: `s0 → A → t0`
/// * `A := h1`: `s1 → a → A₁ → t1` and `s1 → A₂ → t1` — the vertex named
///   `a` reaches exactly one of the two recursive `A` vertices, which is
///   what forces label domains to split and labels to grow to Ω(n) bits.
/// * `A := h2`: `s2 → t2` (base case)
///
/// Note `h1` has two vertices named `A`, so this grammar deliberately
/// violates execution Condition 1 (§5.3); it is exercised through the
/// derivation-based machinery and the log-based execution labeler.
pub fn theorem1() -> Specification {
    let mut b = SpecBuilder::new();
    b.composite("A");
    b.start(|g| {
        let s = g.vertex("s0");
        let a = g.vertex("A");
        let t = g.vertex("t0");
        g.chain(&[s, a, t]);
    });
    b.implementation("A", |g| {
        let s = g.vertex("s1");
        let a = g.vertex("a");
        let a1 = g.vertex("A");
        let a2 = g.vertex("A");
        let t = g.vertex("t1");
        g.chain(&[s, a, a1, t]);
        g.chain(&[s, a2, t]);
    });
    b.implementation("A", |g| {
        let s = g.vertex("s2");
        let t = g.vertex("t2");
        g.edge(s, t);
    });
    b.build()
        .expect("theorem-1 grammar is a valid specification")
}

/// The Figure-12 grammar: nonlinear (two *series* recursive vertices) yet
/// every run is a simple path, so a trivial index labeling is compact for
/// the execution-based problem (Example 15).
///
/// * `g0`: `s0 → A → t0`
/// * `A := h1`: `s1 → A → A → t1` (two recursive vertices in series)
/// * `A := h2`: `s2 → t2`
pub fn fig12() -> Specification {
    let mut b = SpecBuilder::new();
    b.composite("A");
    b.start(|g| {
        let s = g.vertex("s0");
        let a = g.vertex("A");
        let t = g.vertex("t0");
        g.chain(&[s, a, t]);
    });
    b.implementation("A", |g| {
        let s = g.vertex("s1");
        let a1 = g.vertex("A");
        let a2 = g.vertex("A");
        let t = g.vertex("t1");
        g.chain(&[s, a1, a2, t]);
    });
    b.implementation("A", |g| {
        let s = g.vertex("s2");
        let t = g.vertex("t2");
        g.edge(s, t);
    });
    b.build()
        .expect("figure-12 grammar is a valid specification")
}

/// Build one BioAID-like sub-workflow body: a chain of internal vertices
/// with a couple of parallel shortcuts (the typical shape of Taverna
/// sub-workflows), embedding the given composite modules.
///
/// The body has `2 + composites.len() + atoms` vertices, all uniquely
/// named with the `prefix`, so execution Conditions 1–2 hold.
fn pipeline_body(g: &mut GraphBuilder<'_>, prefix: &str, composites: &[&str], atoms: usize) {
    let s = g.vertex(&format!("{prefix}_s"));
    let t = g.vertex(&format!("{prefix}_t"));
    let mut mids = Vec::new();
    for (i, name) in composites.iter().enumerate() {
        let _ = i;
        mids.push(g.vertex(name));
    }
    for i in 0..atoms {
        mids.push(g.vertex(&format!("{prefix}_m{i}")));
    }
    // Interleave: composite, atom, composite, atom… keeps data deps
    // realistic without changing any measured quantity.
    let mut chain = vec![s];
    let (comps, ats) = mids.split_at(composites.len());
    let mut ci = comps.iter();
    let mut ai = ats.iter();
    loop {
        match (ai.next(), ci.next()) {
            (Some(&a), Some(&c)) => {
                chain.push(a);
                chain.push(c);
            }
            (Some(&a), None) => chain.push(a),
            (None, Some(&c)) => chain.push(c),
            (None, None) => break,
        }
    }
    chain.push(t);
    g.chain(&chain);
    // Two shortcuts give the body a DAG (not path) shape when big enough.
    if chain.len() >= 5 {
        g.edge(chain[0], chain[2]);
        g.edge(chain[chain.len() - 3], chain[chain.len() - 1]);
    }
}

/// The BioAID stand-in (§7.2 statistics).
///
/// 11 sub-workflows (implementation graphs), average size 10.5, nesting
/// depth 2, loop modules `L1, L2`, fork modules `F1..F4`, and a linear
/// recursion `A → C → A` of length 2 (with a base case for `A`).
pub fn bioaid() -> Specification {
    let mut b = SpecBuilder::new();
    b.loop_module("L1");
    b.loop_module("L2");
    for f in ["F1", "F2", "F3", "F4"] {
        b.fork_module(f);
    }
    for c in ["A", "C", "M1", "M2"] {
        b.composite(c);
    }
    // Start graph: the top-level pipeline. Chains through the first-level
    // modules; nesting depth from here is 2.
    b.start(|g| pipeline_body(g, "g0", &["L1", "F1", "A", "M1", "F2"], 4));
    // 1: L1's loop body, hosting the second loop L2 (11 vertices).
    b.implementation("L1", |g| pipeline_body(g, "h1", &["L2"], 8));
    // 2: L2's body, all atomic (10 vertices).
    b.implementation("L2", |g| pipeline_body(g, "h2", &[], 8));
    // 3: F1's fork body, hosting F3 (11 vertices).
    b.implementation("F1", |g| pipeline_body(g, "h3", &["F3"], 8));
    // 4: F3's body, atomic (10 vertices).
    b.implementation("F3", |g| pipeline_body(g, "h4", &[], 8));
    // 5: F2's fork body, hosting F4 (11 vertices).
    b.implementation("F2", |g| pipeline_body(g, "h5", &["F4"], 8));
    // 6: F4's body, atomic (10 vertices).
    b.implementation("F4", |g| pipeline_body(g, "h6", &[], 8));
    // 7: A's recursive body: contains C, recursion of length 2 (11 vertices).
    b.implementation("A", |g| pipeline_body(g, "h7", &["C"], 8));
    // 8: A's base case, atomic (10 vertices).
    b.implementation("A", |g| pipeline_body(g, "h8", &[], 8));
    // 9: C's body: contains A, closing the recursion (11 vertices).
    b.implementation("C", |g| pipeline_body(g, "h9", &["A"], 8));
    // 10: M1's body, hosting M2 (10 vertices).
    b.implementation("M1", |g| pipeline_body(g, "h10", &["M2"], 7));
    // 11: M2's body, atomic (11 vertices).
    b.implementation("M2", |g| pipeline_body(g, "h11", &[], 9));
    b.build().expect("bioaid stand-in is a valid specification")
}

/// The BioAID stand-in with the `A ↔ C` recursion converted to a loop
/// (the paper's footnote 6), so the workflow is non-recursive and SKL is
/// applicable (§7.4).
///
/// `A` becomes a loop module whose single body merges the computation of
/// the old recursive pair; everything else is unchanged.
pub fn bioaid_nonrecursive() -> Specification {
    let mut b = SpecBuilder::new();
    b.loop_module("L1");
    b.loop_module("L2");
    b.loop_module("A"); // the converted recursion
    for f in ["F1", "F2", "F3", "F4"] {
        b.fork_module(f);
    }
    for c in ["C", "M1", "M2"] {
        b.composite(c);
    }
    b.start(|g| pipeline_body(g, "g0", &["L1", "F1", "A", "M1", "F2"], 4));
    b.implementation("L1", |g| pipeline_body(g, "h1", &["L2"], 8));
    b.implementation("L2", |g| pipeline_body(g, "h2", &[], 8));
    b.implementation("F1", |g| pipeline_body(g, "h3", &["F3"], 8));
    b.implementation("F3", |g| pipeline_body(g, "h4", &[], 8));
    b.implementation("F2", |g| pipeline_body(g, "h5", &["F4"], 8));
    b.implementation("F4", |g| pipeline_body(g, "h6", &[], 8));
    // A's loop body performs the A-step and the C-step in series.
    b.implementation("A", |g| pipeline_body(g, "h7", &["C"], 8));
    b.implementation("C", |g| pipeline_body(g, "h9", &[], 8));
    b.implementation("M1", |g| pipeline_body(g, "h10", &["M2"], 7));
    b.implementation("M2", |g| pipeline_body(g, "h11", &[], 9));
    b.build()
        .expect("non-recursive bioaid stand-in is a valid specification")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::RecursionClass;
    use crate::spec::GraphId;

    #[test]
    fn running_example_matches_paper() {
        let spec = running_example();
        assert_eq!(spec.graph_count(), 7); // g0 + h1..h6
        let grammar = spec.grammar();
        assert_eq!(grammar.classify(), RecursionClass::LinearRecursive);
        // A induces B and C (Example 6); C induces A.
        let a = spec.name_id("A").unwrap();
        let c = spec.name_id("C").unwrap();
        let bb = spec.name_id("B").unwrap();
        assert!(grammar.induces(a, bb));
        assert!(grammar.induces(a, c));
        assert!(grammar.induces(c, a));
        assert!(!grammar.induces(bb, a));
        // h3 (graph 3) has exactly one recursive vertex: the C vertex.
        let h3 = spec.implementations(a)[0];
        let recs = grammar.recursive_vertices(h3);
        assert_eq!(recs.len(), 1);
        assert_eq!(spec.graph(h3).name(recs[0]), c);
        // h6 has one recursive vertex (the A vertex).
        let h6 = spec.implementations(c)[0];
        assert_eq!(grammar.recursive_vertices(h6).len(), 1);
        // h4, h5 have none.
        let h4 = spec.implementations(a)[1];
        assert!(grammar.recursive_vertices(h4).is_empty());
        spec.check_execution_conditions().unwrap();
    }

    #[test]
    fn theorem1_is_nonlinear_and_breaks_condition1() {
        let spec = theorem1();
        assert!(!spec.grammar().is_linear_recursive());
        // Two parallel recursive vertices: the two A's are unordered.
        assert_eq!(spec.grammar().classify(), RecursionClass::ParallelRecursive);
        assert!(spec.check_execution_conditions().is_err());
    }

    #[test]
    fn fig12_is_series_nonlinear() {
        let spec = fig12();
        assert_eq!(spec.grammar().classify(), RecursionClass::SeriesRecursive);
        // Both A vertices of h1 are recursive.
        let a = spec.name_id("A").unwrap();
        let h1 = spec.implementations(a)[0];
        assert_eq!(spec.grammar().recursive_vertices(h1).len(), 2);
    }

    #[test]
    fn bioaid_statistics_match_section_7_2() {
        let spec = bioaid();
        // 11 sub-workflows…
        assert_eq!(spec.graph_count() - 1, 11);
        // …of average size 10.5…
        let total: usize = spec
            .graph_ids()
            .skip(1)
            .map(|g| spec.graph(g).vertex_count())
            .sum();
        let avg = total as f64 / 11.0;
        assert!((avg - 10.5).abs() < 0.1, "avg sub-workflow size {avg}");
        // …nesting depth 2…
        let grammar = spec.grammar();
        assert_eq!(grammar.nesting_depth(), 2);
        // …2 loops, 4 forks, linear recursion of length 2.
        assert_eq!(grammar.classify(), RecursionClass::LinearRecursive);
        let loops = ["L1", "L2"];
        let forks = ["F1", "F2", "F3", "F4"];
        for l in loops {
            assert_eq!(
                spec.class(spec.name_id(l).unwrap()),
                crate::spec::NameClass::Loop
            );
        }
        for f in forks {
            assert_eq!(
                spec.class(spec.name_id(f).unwrap()),
                crate::spec::NameClass::Fork
            );
        }
        let a = spec.name_id("A").unwrap();
        let c = spec.name_id("C").unwrap();
        assert!(grammar.induces(a, c) && grammar.induces(c, a));
        spec.check_execution_conditions().unwrap();
        spec.graph_ids().for_each(|g| {
            assert!(spec.graph(g).is_two_terminal());
        });
        let _ = GraphId::START;
    }

    #[test]
    fn bioaid_nonrecursive_is_nonrecursive() {
        let spec = bioaid_nonrecursive();
        assert_eq!(spec.grammar().classify(), RecursionClass::NonRecursive);
        spec.check_execution_conditions().unwrap();
    }
}
