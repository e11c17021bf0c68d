//! The labeler's state is independent of how its context is held: an
//! [`ExecutionState`] fed from an `Arc`-owned `(Specification, skeleton,
//! tables)` — the shape `wf-service` keeps per spec and shares among its
//! runs, moved across a thread here to
//! show nothing in it borrows — returns from each `insert` exactly the
//! label the borrowed [`ExecutionLabeler`] retains for that vertex.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use wf_drl::{
    encode_label, DrlLabel, ExecutionLabeler, ExecutionState, ResolutionMode, SpecTables,
};
use wf_run::{Execution, RunGenerator};
use wf_skeleton::{SpecLabeling, TclSpecLabels};
use wf_spec::Specification;

#[test]
fn arc_owned_and_borrowed_contexts_emit_identical_labels() {
    let corpus: [(&str, Specification); 2] = [
        ("running_example", wf_spec::corpus::running_example()),
        ("bioaid", wf_spec::corpus::bioaid()),
    ];
    for (name, spec) in corpus {
        let skeleton = TclSpecLabels::build(&spec);
        let tables = SpecTables::auto(&spec);
        let ctx = Arc::new((spec, skeleton, tables));
        let (spec, skeleton) = (&ctx.0, &ctx.1);
        let mut rng = StdRng::seed_from_u64(2011);
        let run = RunGenerator::new(spec)
            .target_size(400)
            .generate_run(&mut rng);
        let exec = Execution::random(&run.graph, &run.origin, &mut rng);
        for resolution in [ResolutionMode::NameBased, ResolutionMode::LogBased] {
            let mut borrowed = match resolution {
                ResolutionMode::NameBased => ExecutionLabeler::new(spec, skeleton),
                ResolutionMode::LogBased => ExecutionLabeler::new_log_based(spec, skeleton),
            }
            .unwrap();
            for ev in exec.events() {
                borrowed.insert(ev).unwrap();
            }

            let owner = Arc::clone(&ctx);
            let events = exec.events().to_vec();
            let (owned, returned): (ExecutionState, Vec<DrlLabel>) =
                std::thread::spawn(move || {
                    let (spec, skeleton, tables) = &*owner;
                    let mut state = ExecutionState::new(tables, resolution).unwrap();
                    let labels = events
                        .iter()
                        .map(|ev| state.insert(spec, skeleton, tables, ev).unwrap())
                        .collect();
                    (state, labels)
                })
                .join()
                .unwrap();

            assert_eq!(owned.len(), borrowed.len());
            assert_eq!(ctx.2.skl_bits(), borrowed.skl_bits());
            assert_eq!(returned.len(), exec.events().len());
            for (ev, a) in exec.events().iter().zip(&returned) {
                let b = borrowed.label(ev.vertex).unwrap();
                assert_eq!(a, b, "{name} {resolution:?} {:?}", ev.vertex);
                let bits = ctx.2.skl_bits();
                assert_eq!(
                    encode_label(a, bits),
                    encode_label(b, bits),
                    "{name} {resolution:?} {:?}: encoded bits differ",
                    ev.vertex
                );
            }
        }
    }
}
