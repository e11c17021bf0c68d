//! Streaming provenance: answer reachability queries **while the
//! workflow is still running** — the paper's motivating scenario
//! (Section 1: "scientific workflows can take a long time to execute and
//! users may want to ask provenance queries over partial executions").
//!
//! A BioAID-like pipeline executes module by module. A producer thread
//! hands each execution event to the engine the moment it "happens"
//! ([`WfEngine::ingest`] labels it on the producer's thread and returns
//! with the label published), every executed module is labeled on
//! arrival (execution-based scheme, §5.3), and the scientist's
//! monitoring loop — holding nothing but a cloned [`RunHandle`] —
//! interleaves provenance queries such as "was this intermediate result
//! derived from that input?" long before the run completes.
//!
//! ```text
//! cargo run --example streaming_provenance
//! ```

use rand::rngs::StdRng;
use wf_provenance::prelude::*;

fn main() {
    // Engine over one specification; builder-only configuration.
    let engine: WfEngine = WfEngine::builder().spec(wf_spec::corpus::bioaid()).build();
    let spec = SpecId(0);

    // Simulate one execution of the pipeline (≈1500 module invocations),
    // streamed in a random topological order — as a workflow engine
    // would report them.
    let mut rng = StdRng::seed_from_u64(2011);
    let run_gen = RunGenerator::new(&engine.context(spec).unwrap().spec)
        .target_size(1500)
        .generate_run(&mut rng);
    let execution = Execution::random(&run_gen.graph, &run_gen.origin, &mut rng);
    println!(
        "executing BioAID-like pipeline: {} module invocations",
        execution.len()
    );

    let run = engine.open_run(spec).expect("spec in catalog");
    // The monitor's view of the run: a cloneable, lock-free handle.
    let monitor = engine.handle(run).expect("run registered");

    let mut monitored: Vec<VertexId> = Vec::new();
    let mut queries_answered = 0usize;
    let mut positive = 0usize;
    std::thread::scope(|scope| {
        // Producer: the "workflow engine" reporting events as they
        // happen; each `ingest` labels its event before it returns.
        let engine = &engine;
        let producer_events = execution.events();
        scope.spawn(move || {
            for ev in producer_events {
                engine
                    .ingest(ServiceEvent {
                        run,
                        op: RunOp::Insert(ev.clone()),
                    })
                    .expect("valid execution");
            }
            engine.complete_run(run).expect("was live");
        });

        // The scientist, on the main thread: watch labels appear and ask
        // lineage questions mid-run, entirely from published labels.
        let events = execution.events();
        let mut asked_at = 0usize;
        while monitor.status() == RunStatus::Live || asked_at < events.len() {
            let published = monitor.published();
            // Keep a sample of "interesting data products" to monitor.
            while asked_at < published.min(events.len()) {
                if asked_at.is_multiple_of(97) {
                    monitored.push(events[asked_at].vertex);
                }
                // Every 200 applied events: which monitored products fed
                // into the most recent one?
                if asked_at % 200 == 199 {
                    let newest = events[asked_at].vertex;
                    let deps = monitored
                        .iter()
                        .filter(|&&m| monitor.reach(m, newest) == Some(true))
                        .count();
                    queries_answered += monitored.len();
                    positive += deps;
                    println!(
                        "  after {:4} events: {:2}/{} monitored products are ancestors of the newest output",
                        asked_at + 1,
                        deps,
                        monitored.len()
                    );
                }
                asked_at += 1;
            }
            std::thread::yield_now();
        }
    });

    // Cross-check every mid-run answer class once more at the end
    // against ground truth on the final graph (labels never changed, so
    // any mid-run answer equals the final answer for the same pair —
    // Remark 1).
    let oracle = wf_graph::reach::ReachOracle::new(&run_gen.graph);
    for &a in &monitored {
        for &b in &monitored {
            assert_eq!(monitor.reach(a, b), Some(oracle.reaches(a, b)));
        }
    }
    println!(
        "run complete: {queries_answered} live queries answered \
         ({positive} positive), all verified against ground truth"
    );

    // Label economics: the whole run was labeled with short labels.
    let max_bits = run_gen
        .graph
        .vertices()
        .map(|v| monitor.label_bits(v).unwrap())
        .max()
        .unwrap();
    let n = run_gen.graph.vertex_count();
    println!(
        "max label: {max_bits} bits for n = {n} (log2(n) = {:.1}; naive dynamic TCL would need {} bits)",
        (n as f64).log2(),
        n - 1
    );
    println!("engine: {}", engine.stats());
}
