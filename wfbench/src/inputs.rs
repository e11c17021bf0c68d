//! Seeded load generation and the oracles' expected answers.
//!
//! Everything here is a pure function of `--seed`: the engine only ever
//! receives generated events. Expected answers come from `wf-graph`
//! traversals over `Execution::replay_graph()`, never from labels.

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;
use wf_graph::{reach, BitSet, Graph, NameId, VertexId};
use wf_run::{ExecEvent, Execution, RunGenerator};
use wf_spec::Specification;

/// One generated run: which catalog entry it instantiates and its
/// insertion events in a seeded-random topological order.
pub struct RunInput {
    pub spec: usize,
    pub exec: Execution,
}

impl RunInput {
    pub fn events(&self) -> &[ExecEvent] {
        self.exec.events()
    }
}

pub struct Fleet {
    pub runs: Vec<RunInput>,
}

impl Fleet {
    pub fn total_events(&self) -> usize {
        self.runs.iter().map(|r| r.events().len()).sum()
    }
}

fn generate(specs: &[&Specification], i: usize, target: usize, rng: &mut StdRng) -> RunInput {
    let spec = i % specs.len();
    let gen = RunGenerator::new(specs[spec])
        .target_size(target)
        .generate_run(rng);
    RunInput {
        spec,
        exec: Execution::random(&gen.graph, &gen.origin, rng),
    }
}

/// `runs` runs of ~`size` vertices each, alternating over the catalog.
pub fn uniform_fleet(
    specs: &[&Specification],
    rng: &mut StdRng,
    runs: usize,
    size: usize,
) -> Fleet {
    Fleet {
        runs: (0..runs).map(|i| generate(specs, i, size, rng)).collect(),
    }
}

/// Zipf-sized fleet: the rank-r run gets ∝ 1/r of ~`total` events, with
/// a floor of 12 so tail runs still exercise real labeling — the shape
/// of workflow fleets where a few pipelines dominate.
pub fn zipf_fleet(specs: &[&Specification], rng: &mut StdRng, runs: usize, total: usize) -> Fleet {
    let h: f64 = (1..=runs).map(|r| 1.0 / r as f64).sum();
    Fleet {
        runs: (0..runs)
            .map(|i| {
                let size = ((total as f64 / h) / (i + 1) as f64).round().max(12.0) as usize;
                generate(specs, i, size, rng)
            })
            .collect(),
    }
}

/// A pre-drawn reachability question. `iu`/`iv` are event positions
/// (the vertex ids of `replay_graph()`), `u`/`v` the ids the engine
/// knows the vertices by.
#[derive(Debug, Clone, Copy)]
pub struct ReachPair {
    pub run: u32,
    pub iu: u32,
    pub iv: u32,
    pub u: VertexId,
    pub v: VertexId,
}

/// Draw one pair inside `run`, among its first `sent` events.
pub fn draw_pair(fleet: &Fleet, rng: &mut StdRng, run: usize, sent: usize) -> ReachPair {
    let ev = fleet.runs[run].events();
    let (iu, iv) = (rng.gen_range(0..sent), rng.gen_range(0..sent));
    ReachPair {
        run: run as u32,
        iu: iu as u32,
        iv: iv as u32,
        u: ev[iu].vertex,
        v: ev[iv].vertex,
    }
}

/// `n` pairs over random runs of `among` (fleet run indices).
pub fn draw_pairs(fleet: &Fleet, rng: &mut StdRng, among: &[usize], n: usize) -> Vec<ReachPair> {
    (0..n)
        .map(|_| {
            let run = among[rng.gen_range(0..among.len())];
            draw_pair(fleet, rng, run, fleet.runs[run].events().len())
        })
        .collect()
}

/// Expected answers for a seeded share of `pairs`: `(pair index, u ; v)`
/// by BFS over the replayed run graph. One graph replay per run touched.
pub fn oracle_sample(
    fleet: &Fleet,
    pairs: &[ReachPair],
    rng: &mut StdRng,
    one_in: usize,
) -> Vec<(u32, bool)> {
    let mut picked: Vec<u32> = (0..pairs.len() as u32)
        .filter(|_| rng.gen_range(0..one_in) == 0)
        .collect();
    picked.sort_by_key(|&i| pairs[i as usize].run);
    let mut graph: Option<(u32, Graph)> = None;
    picked
        .into_iter()
        .map(|i| {
            let p = pairs[i as usize];
            if graph.as_ref().map(|(r, _)| *r) != Some(p.run) {
                graph = Some((p.run, fleet.runs[p.run as usize].exec.replay_graph()));
            }
            let g = &graph.as_ref().expect("just set").1;
            (i, reach::reaches(g, VertexId(p.iu), VertexId(p.iv)))
        })
        .collect()
}

fn reachable_from_all(g: &Graph, sources: impl Iterator<Item = VertexId>) -> BitSet {
    let mut seen = BitSet::zeros(g.slot_count());
    let mut queue = VecDeque::new();
    for s in sources {
        if !seen.get(s.idx()) {
            seen.set(s.idx());
            queue.push_back(s);
        }
    }
    while let Some(x) = queue.pop_front() {
        for &y in g.out_neighbors(x) {
            if !seen.get(y.idx()) {
                seen.set(y.idx());
                queue.push_back(y);
            }
        }
    }
    seen
}

/// The three cross-run questions a scan phase asks, with the run sets
/// (fleet indices, ascending) a correct engine must return.
pub struct ScanPlan {
    pub reaching: NameId,
    pub link_from: NameId,
    pub link_to: NameId,
    pub named: NameId,
    pub expect_reaching: Vec<u32>,
    pub expect_linking: Vec<u32>,
    /// Per matching run: the vertices carrying `named`, ascending.
    pub expect_named: Vec<(u32, Vec<VertexId>)>,
    /// Labels in scope of one scan (for `query.labels_per_hit`).
    pub labels_in_scope: u64,
}

/// Draw the scan names from the streams and compute expected answers
/// over `among` (the runs that will be completed when the scan runs).
pub fn scan_plan(fleet: &Fleet, rng: &mut StdRng, among: &[usize]) -> ScanPlan {
    let name_of = |rng: &mut StdRng| {
        let ev = fleet.runs[among[rng.gen_range(0..among.len())]].events();
        ev[rng.gen_range(0..ev.len())].name
    };
    let reaching = name_of(rng);
    let named = name_of(rng);
    // Two distinct names of one run, earlier → later, so linking is
    // neither trivially empty nor reflexive.
    let ev = fleet.runs[among[rng.gen_range(0..among.len())]].events();
    let a = rng.gen_range(0..ev.len());
    let link_from = ev[a].name;
    let link_to = ev[a..]
        .iter()
        .map(|e| e.name)
        .find(|n| *n != link_from)
        .unwrap_or(NameId(link_from.0 + 1));

    let mut plan = ScanPlan {
        reaching,
        link_from,
        link_to,
        named,
        expect_reaching: Vec::new(),
        expect_linking: Vec::new(),
        expect_named: Vec::new(),
        labels_in_scope: 0,
    };
    for &r in among {
        let ev = fleet.runs[r].events();
        plan.labels_in_scope += ev.len() as u64;
        let positions = |n: NameId| {
            ev.iter()
                .enumerate()
                .filter(move |(_, e)| e.name == n)
                .map(|(i, _)| i)
        };
        let mut vs: Vec<VertexId> = positions(named).map(|i| ev[i].vertex).collect();
        if !vs.is_empty() {
            vs.sort();
            plan.expect_named.push((r as u32, vs));
        }
        let has = |n: NameId| positions(n).next().is_some();
        let need_reaching = has(reaching);
        let need_linking = has(link_from) && has(link_to);
        if !need_reaching && !need_linking {
            continue;
        }
        let g = fleet.runs[r].exec.replay_graph();
        // The source is the first event; reachability is reflexive.
        if need_reaching {
            let seen = reach::reachable_set(&g, VertexId(0));
            if positions(reaching).any(|i| seen.get(i)) {
                plan.expect_reaching.push(r as u32);
            }
        }
        if need_linking {
            let seen = reachable_from_all(&g, positions(link_from).map(|i| VertexId(i as u32)));
            if positions(link_to).any(|i| seen.get(i)) {
                plan.expect_linking.push(r as u32);
            }
        }
    }
    plan
}

/// FNV-1a accumulator for pinning generated inputs.
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn fleet(&mut self, fleet: &Fleet) {
        self.word(fleet.runs.len() as u64);
        for r in &fleet.runs {
            self.word(r.spec as u64);
            self.word(r.events().len() as u64);
            for e in r.events() {
                self.word(u64::from(e.vertex.0) << 32 | u64::from(e.name.0));
                self.word(u64::from(e.origin.0 .0) << 32 | u64::from(e.origin.1 .0));
                self.word(e.preds.len() as u64);
                for p in &e.preds {
                    self.word(u64::from(p.0));
                }
            }
        }
    }

    pub fn pairs(&mut self, pairs: &[ReachPair]) {
        self.word(pairs.len() as u64);
        for p in pairs {
            self.word(u64::from(p.run));
            self.word(u64::from(p.u.0) << 32 | u64::from(p.v.0));
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}
