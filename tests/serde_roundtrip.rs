//! Persistence: specifications, derivations, executions and labels all
//! round-trip through serde (the paper stores its workloads as files;
//! §7.1).

use rand::rngs::StdRng;
use rand::SeedableRng;
use wf_provenance::prelude::*;
use wf_run::Derivation;
use wf_spec::Specification;

#[test]
fn specification_roundtrip() {
    for spec in [
        wf_spec::corpus::running_example(),
        wf_spec::corpus::bioaid(),
        wf_spec::corpus::theorem1(),
    ] {
        let json = spec.to_json();
        let back = Specification::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json, "canonical JSON is stable");
        assert_eq!(back.grammar().classify(), spec.grammar().classify());
    }
}

#[test]
fn derivation_roundtrip_replays_identically() {
    let spec = wf_spec::corpus::bioaid();
    let mut rng = StdRng::seed_from_u64(1);
    let run = wf_run::RunGenerator::new(&spec)
        .target_size(150)
        .generate_run(&mut rng);
    let json = serde_json::to_string(&run.derivation).unwrap();
    let back: Derivation = serde_json::from_str(&json).unwrap();
    let replayed = back.replay(&spec).unwrap();
    assert_eq!(
        replayed.graph().edges().collect::<Vec<_>>(),
        run.graph.edges().collect::<Vec<_>>()
    );
}

#[test]
fn execution_roundtrip_replays_identically() {
    let spec = wf_spec::corpus::bioaid();
    let mut rng = StdRng::seed_from_u64(2);
    let run = wf_run::RunGenerator::new(&spec)
        .target_size(100)
        .generate_run(&mut rng);
    let exec = Execution::random(&run.graph, &run.origin, &mut rng);
    let json = serde_json::to_string(&exec).unwrap();
    let back: Execution = serde_json::from_str(&json).unwrap();
    assert_eq!(back.events(), exec.events());
    let g = back.replay_graph();
    assert_eq!(g.vertex_count(), run.graph.vertex_count());
    assert_eq!(g.edge_count(), run.graph.edge_count());
}

#[test]
fn labels_roundtrip_and_still_answer_queries() {
    let spec = wf_spec::corpus::running_example();
    let skeleton = TclSpecLabels::build(&spec);
    let mut rng = StdRng::seed_from_u64(3);
    let run = wf_run::RunGenerator::new(&spec)
        .target_size(80)
        .generate_run(&mut rng);
    let mut labeler = DerivationLabeler::new(&spec, &skeleton);
    for step in run.derivation.steps() {
        labeler.apply(step).unwrap();
    }
    // Serialize every label, deserialize, and re-answer all queries
    // through a fresh predicate — labels are self-contained.
    let stored: Vec<(wf_graph::VertexId, String)> = run
        .graph
        .vertices()
        .map(|v| (v, serde_json::to_string(labeler.label(v).unwrap()).unwrap()))
        .collect();
    let restored: Vec<(wf_graph::VertexId, DrlLabel)> = stored
        .iter()
        .map(|(v, s)| (*v, serde_json::from_str(s).unwrap()))
        .collect();
    let predicate = labeler.predicate();
    for (a, la) in &restored {
        for (b, lb) in &restored {
            assert_eq!(
                predicate.reaches(la, lb),
                wf_graph::reach::reaches(&run.graph, *a, *b)
            );
        }
    }
}

/// The serialised form of a label is its flat entry list, whatever the
/// label looks like in memory: a fixture written by the build before
/// labels shared their context's prefix array still reads, re-serialises
/// byte for byte, and equals the labels the labeler issues today.
#[test]
fn labels_written_before_the_shared_prefix_still_read() {
    let fixture = include_str!("fixtures/labels_pr19.json").trim_end();
    let stored: Vec<(u32, DrlLabel)> = serde_json::from_str(fixture).unwrap();
    assert!(stored.len() >= 8);
    assert_eq!(serde_json::to_string(&stored).unwrap(), fixture);

    let spec = wf_spec::corpus::running_example();
    let skeleton = TclSpecLabels::build(&spec);
    let run = wf_run::RunGenerator::new(&spec)
        .target_size(80)
        .generate_run(&mut StdRng::seed_from_u64(2));
    let mut labeler = DerivationLabeler::new(&spec, &skeleton);
    for step in run.derivation.steps() {
        labeler.apply(step).unwrap();
    }
    for (v, label) in &stored {
        assert_eq!(labeler.label(wf_graph::VertexId(*v)), Some(label));
    }
}
