//! Property-based tests (proptest) on the core invariants the paper's
//! correctness arguments rest on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wf_graph::reach::{reaches, ReachOracle};
use wf_graph::{ops, Graph, NameId, VertexId};
use wf_provenance::prelude::*;
use wf_skeleton::TclLabels;

fn random_tt(seed: u64, n: usize, density: f64) -> Graph {
    let names: Vec<NameId> = (0..n as u32).map(NameId).collect();
    wf_graph::random::random_two_terminal(&mut StdRng::seed_from_u64(seed), &names, density)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two-terminal graphs are closed under series composition and every
    /// vertex lies on a source→sink path (the fact behind Lemma 4.3).
    #[test]
    fn series_composition_is_two_terminal(seed in 0u64..5000, n1 in 2usize..12, n2 in 2usize..12, d in 0.0f64..0.5) {
        let g1 = random_tt(seed, n1, d);
        let g2 = random_tt(seed.wrapping_add(1), n2, d);
        let (s, maps) = ops::series(&[&g1, &g2]).unwrap();
        prop_assert!(s.is_two_terminal());
        prop_assert!(s.is_acyclic());
        let src = s.source().unwrap();
        let snk = s.sink().unwrap();
        for v in s.vertices() {
            prop_assert!(reaches(&s, src, v));
            prop_assert!(reaches(&s, v, snk));
        }
        // Everything in g1 reaches everything in g2.
        for a in g1.vertices() {
            for b in g2.vertices() {
                let (ra, rb) = (maps[0][a.idx()].unwrap(), maps[1][b.idx()].unwrap());
                prop_assert!(reaches(&s, ra, rb));
                prop_assert!(!reaches(&s, rb, ra));
            }
        }
    }

    /// Parallel composition keeps the operands mutually unreachable
    /// (the F-node case of Lemma 4.2).
    #[test]
    fn parallel_composition_separates(seed in 0u64..5000, n1 in 2usize..10, n2 in 2usize..10) {
        let g1 = random_tt(seed, n1, 0.2);
        let g2 = random_tt(seed.wrapping_add(9), n2, 0.2);
        let (p, maps) = ops::parallel(&[&g1, &g2]).unwrap();
        for a in g1.vertices() {
            for b in g2.vertices() {
                let (ra, rb) = (maps[0][a.idx()].unwrap(), maps[1][b.idx()].unwrap());
                prop_assert!(!reaches(&p, ra, rb));
                prop_assert!(!reaches(&p, rb, ra));
            }
        }
    }

    /// Vertex replacement preserves reachability among surviving
    /// vertices (Remark 1 / Lemma 4.3) — for random hosts, targets and
    /// bodies.
    #[test]
    fn replacement_preserves_survivor_reachability(
        seed in 0u64..5000,
        host_n in 3usize..14,
        body_n in 2usize..8,
        target_sel in 0usize..100,
    ) {
        let mut host = random_tt(seed, host_n, 0.25);
        let body = random_tt(seed.wrapping_add(2), body_n, 0.25);
        let vs: Vec<VertexId> = host.vertices().collect();
        let target = vs[target_sel % vs.len()];
        let before = ReachOracle::new(&host);
        ops::replace_vertex(&mut host, target, &body).unwrap();
        prop_assert!(host.is_acyclic());
        for &a in vs.iter().filter(|&&v| v != target) {
            for &b in vs.iter().filter(|&&v| v != target) {
                prop_assert_eq!(reaches(&host, a, b), before.reaches(a, b));
            }
        }
    }

    /// Static TCL labels answer exactly like BFS on arbitrary random
    /// two-terminal DAGs (§3.2's scheme).
    #[test]
    fn tcl_equals_bfs(seed in 0u64..5000, n in 2usize..40, d in 0.0f64..0.4) {
        let g = random_tt(seed, n, d);
        let tcl = TclLabels::build(&g);
        for a in g.vertices() {
            for b in g.vertices() {
                prop_assert_eq!(tcl.reaches(a, b), reaches(&g, a, b));
            }
        }
    }

    /// End-to-end DRL correctness over randomized generator parameters —
    /// the predicate is exact for every pair, whatever the run shape.
    #[test]
    fn drl_exact_on_random_runs(seed in 0u64..2000, target in 20usize..160, cap in 2u32..12) {
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(seed);
        let run = wf_run::RunGenerator::new(&spec)
            .target_size(target)
            .max_copies(cap)
            .generate_run(&mut rng);
        let mut labeler = DerivationLabeler::new(&spec, &skeleton);
        for step in run.derivation.steps() {
            labeler.apply(step).unwrap();
        }
        let oracle = ReachOracle::new(&run.graph);
        for a in run.graph.vertices() {
            for b in run.graph.vertices() {
                prop_assert_eq!(labeler.reaches(a, b), Some(oracle.reaches(a, b)));
            }
        }
    }

    /// End-to-end correctness over *random grammars* — specifications
    /// drawn outside the fixed corpus, covering every recursion class.
    /// Both labelers must agree with the oracle, and derivation /
    /// deterministic-execution labels must be identical (§5.3).
    #[test]
    fn random_grammars_label_exactly(
        seed in 0u64..800,
        modules in 1usize..5,
        recursive_impls in 0usize..3,
        target in 20usize..120,
    ) {
        let loops = (seed % 2) as usize;
        let forks = ((seed / 2) % 2) as usize;
        prop_assume!(loops + forks <= modules);
        let spec = wf_spec::randspec::random_spec(&wf_spec::randspec::RandomSpecParams {
            modules,
            loops,
            forks,
            body_size: 5,
            recursive_impls,
            density: 0.2,
            seed,
        });
        let skeleton = TclSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let run = wf_run::RunGenerator::new(&spec)
            .target_size(target)
            .max_copies(6)
            .generate_run(&mut rng);
        let oracle = ReachOracle::new(&run.graph);
        let mut dl = DerivationLabeler::new(&spec, &skeleton);
        for step in run.derivation.steps() {
            dl.apply(step).unwrap();
        }
        let exec = Execution::deterministic(&run.graph, &run.origin);
        let mut el = ExecutionLabeler::new(&spec, &skeleton).unwrap();
        for ev in exec.events() {
            el.insert(ev).unwrap();
        }
        for a in run.graph.vertices() {
            for b in run.graph.vertices() {
                let truth = oracle.reaches(a, b);
                prop_assert_eq!(dl.reaches(a, b), Some(truth));
                prop_assert_eq!(el.reaches(a, b), Some(truth));
            }
            prop_assert_eq!(dl.label(a), el.label(a));
        }
    }

    /// Encoded labels round-trip and keep answering queries (the wire
    /// format of `wf_drl::encode`).
    #[test]
    fn encoded_labels_roundtrip(seed in 0u64..300, target in 20usize..100) {
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(seed);
        let run = wf_run::RunGenerator::new(&spec)
            .target_size(target)
            .generate_run(&mut rng);
        let mut labeler = DerivationLabeler::new(&spec, &skeleton);
        for step in run.derivation.steps() {
            labeler.apply(step).unwrap();
        }
        let bits = labeler.skl_bits();
        for v in run.graph.vertices() {
            let label = labeler.label(v).unwrap();
            let bytes = wf_drl::encode_label(label, bits);
            let back = wf_drl::decode_label(&bytes, bits).unwrap();
            prop_assert_eq!(&back, label);
        }
    }

    /// The journaled form of an event (`wf_drl::encode::write_event`)
    /// reads back as that event and as nothing else: ids of every varint
    /// width up to `u32::MAX`, predecessors on either side of the vertex
    /// (the differences span ±`u32::MAX`), 0–64 of them; every strict
    /// prefix and every one-byte extension of an encoding is refused.
    #[test]
    fn event_wire_form_roundtrips_and_refuses_its_neighbours(seed in 0u64..1_000_000, preds in 0usize..65) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut id = || match rng.gen_range(0u32..34) {
            33 => u32::MAX,
            bits => (rng.gen_range(0u64..1 << 32) >> (32 - bits)) as u32,
        };
        let ev = ExecEvent {
            vertex: VertexId(id()),
            name: NameId(id()),
            origin: (wf_spec::GraphId(id()), VertexId(id())),
            preds: (0..preds).map(|_| VertexId(id())).collect(),
        };
        let mut bytes = Vec::new();
        wf_drl::encode::write_event(&mut bytes, &ev);
        prop_assert_eq!(wf_drl::encode::read_event(&bytes), Some(ev));
        for cut in 0..bytes.len() {
            prop_assert_eq!(wf_drl::encode::read_event(&bytes[..cut]), None);
        }
        bytes.push(0);
        for extra in 0..=u8::MAX {
            *bytes.last_mut().unwrap() = extra;
            prop_assert_eq!(wf_drl::encode::read_event(&bytes), None);
        }
    }

    /// One predicate under every label representation: `reaches` over the
    /// decoded labels — as the labeler issued them, sharing prefix arrays,
    /// and rebuilt from their flat entry lists, sharing nothing — the
    /// engine's hot index, which keeps each array once in its prefix table
    /// and lends a cell plus its table slot (or decides two cells of one
    /// context from the cells alone), two label arenas — one sealed from
    /// the hot index, each array one prefix record, and one from the
    /// rebuilt labels, a record per label — read through their cells and
    /// prefix cursors, and the naive Ω(n)-bit scheme agree on every pair,
    /// arena × arena, arena × hot, arena × decoded and arena × rebuilt,
    /// both corpus grammars, both resolution modes; every form of a label
    /// has one name, one bit length and one encoding, and reads back as
    /// exactly what `decode_label` returns.
    #[test]
    fn streaming_predicate_matches_decoded_and_naive(
        seed in 0u64..400,
        target in 20usize..120,
        bioaid in 0u8..2,
        log_based in 0u8..2,
    ) {
        use wf_drl::LabelArena;
        use wf_provenance::service::index::LabelIndex;
        let spec = if bioaid == 1 {
            wf_spec::corpus::bioaid()
        } else {
            wf_spec::corpus::running_example()
        };
        let skeleton = TclSpecLabels::build(&spec);
        let run = wf_run::RunGenerator::new(&spec)
            .target_size(target)
            .generate_run(&mut StdRng::seed_from_u64(seed));
        let exec = Execution::deterministic(&run.graph, &run.origin);
        let mut labeler = if log_based == 1 {
            ExecutionLabeler::new_log_based(&spec, &skeleton)
        } else {
            ExecutionLabeler::new(&spec, &skeleton)
        }
        .unwrap();
        let mut naive = NaiveDynamicDag::new();
        for ev in exec.events() {
            labeler.insert(ev).unwrap();
            naive.insert(ev.vertex, &ev.preds);
        }
        let bits = labeler.skl_bits();
        let predicate = DrlPredicate::new(&skeleton);
        let index = LabelIndex::new();
        for ev in exec.events() {
            index.publish(ev.vertex, ev.name, labeler.label(ev.vertex).unwrap().clone(), bits);
        }
        let mut labeled: Vec<(VertexId, NameId, &DrlLabel, DrlLabel, Vec<u8>)> = exec
            .events()
            .iter()
            .map(|ev| {
                let label = labeler.label(ev.vertex).unwrap();
                let rebuilt = DrlLabel::new(label.entries().copied().collect());
                (ev.vertex, ev.name, label, rebuilt, wf_drl::encode_label(label, bits))
            })
            .collect();
        labeled.sort_by_key(|(v, ..)| *v);
        let sealed = LabelArena::build(bits, index.iter());
        let private = LabelArena::build(
            bits,
            labeled.iter().map(|(v, name, _, rebuilt, _)| (*v, *name, rebuilt.view())),
        );
        let (sealed, private) = (sealed.view(), private.view());
        prop_assert_eq!((sealed.len(), private.len()), (labeled.len(), labeled.len()));
        prop_assert!(sealed.iter().map(|(v, n, _)| (v, n)).eq(private.names()));
        for (v, name, label, rebuilt, bytes) in &labeled {
            prop_assert_eq!(wf_drl::decode_label(bytes, bits).as_ref(), Some(*label));
            prop_assert_eq!(rebuilt, *label);
            prop_assert_eq!(rebuilt.bit_len(bits), label.bit_len(bits));
            prop_assert_eq!(rebuilt.view().bit_len(bits), Some(label.bit_len(bits)));
            prop_assert_eq!(&wf_drl::encode_label(rebuilt, bits), bytes);
            let held = index.get(*v).unwrap();
            prop_assert_eq!(held.to_label().as_ref(), Some(*label));
            prop_assert_eq!(held.bit_len(bits), Some(label.bit_len(bits)));
            prop_assert_eq!(index.name(*v), Some(*name));
            for arena in [sealed, private] {
                let cell = arena.label(*v).unwrap();
                prop_assert_eq!(cell.to_label().as_ref(), Some(*label));
                prop_assert_eq!(cell.bit_len(bits), Some(label.bit_len(bits)));
                prop_assert_eq!(arena.name(*v), Some(*name));
            }
        }
        for (u, _, lu, ru, _) in &labeled {
            let (hu, su, pu) = (index.get(*u).unwrap(), sealed.label(*u).unwrap(), private.label(*u).unwrap());
            for (v, _, lv, rv, _) in &labeled {
                let (hv, sv, pv) = (index.get(*v).unwrap(), sealed.label(*v).unwrap(), private.label(*v).unwrap());
                let truth = naive.reaches(*u, *v);
                prop_assert_eq!(predicate.reaches(lu, lv), truth);
                prop_assert_eq!(predicate.reaches(ru, rv), truth);
                prop_assert_eq!(predicate.reaches(lu, rv), truth);
                prop_assert_eq!(predicate.reaches_ref(lu.view(), lv.view()), Some(truth));
                prop_assert_eq!(predicate.reaches_ref(hu, hv), Some(truth));
                prop_assert_eq!(index.reach(&predicate, *u, *v), Some(truth));
                prop_assert_eq!(predicate.reaches_ref(hu, rv.view()), Some(truth));
                prop_assert_eq!(predicate.reaches_ref(ru.view(), hv), Some(truth));
                // Arena × arena, the cells' own shortcut included.
                prop_assert_eq!(sealed.reach(&predicate, *u, *v), Some(truth));
                prop_assert_eq!(private.reach(&predicate, *u, *v), Some(truth));
                prop_assert_eq!(predicate.reaches_ref(su, sv), Some(truth));
                prop_assert_eq!(predicate.reaches_ref(pu, pv), Some(truth));
                prop_assert_eq!(predicate.reaches_ref(su, pv), Some(truth));
                // Arena × hot, × decoded, × rebuilt.
                for (arena_u, arena_v) in [(su, sv), (pu, pv)] {
                    prop_assert_eq!(predicate.reaches_ref(arena_u, hv), Some(truth));
                    prop_assert_eq!(predicate.reaches_ref(hu, arena_v), Some(truth));
                    prop_assert_eq!(predicate.reaches_ref(arena_u, lv.view()), Some(truth));
                    prop_assert_eq!(predicate.reaches_ref(lu.view(), arena_v), Some(truth));
                    prop_assert_eq!(predicate.reaches_ref(arena_u, rv.view()), Some(truth));
                    prop_assert_eq!(predicate.reaches_ref(ru.view(), arena_v), Some(truth));
                }
            }
        }
    }

    /// The naive dynamic-DAG scheme is exact for arbitrary insertion
    /// orders of arbitrary DAGs, with labels of exactly i−1 bits.
    #[test]
    fn naive_scheme_exact(seed in 0u64..5000, n in 2usize..35, d in 0.0f64..0.35) {
        let g = random_tt(seed, n, d);
        let order =
            wf_graph::topo::random_topological_order(&g, &mut StdRng::seed_from_u64(seed ^ 1))
                .unwrap();
        let mut naive = NaiveDynamicDag::new();
        for (i, &v) in order.iter().enumerate() {
            naive.insert(v, g.in_neighbors(v));
            prop_assert_eq!(naive.label_bits(v), i);
        }
        for &a in &order {
            for &b in &order {
                prop_assert_eq!(naive.reaches(a, b), reaches(&g, a, b));
            }
        }
    }
}
