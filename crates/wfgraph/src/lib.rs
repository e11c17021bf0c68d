//! # wf-graph
//!
//! Graph substrate for the `wf-provenance` workspace: directed acyclic
//! graphs whose vertices carry *names*, the two-terminal discipline used by
//! workflow specifications, and the four graph operations of the paper
//! (Bao, Davidson, Milo, *Labeling Recursive Workflow Executions
//! On-the-Fly*, SIGMOD 2011, Section 2.1):
//!
//! * **series composition** `S(g1, …, gn)` ([`ops::series`]),
//! * **parallel composition** `P(g1, …, gn)` ([`ops::parallel`]),
//! * **vertex insertion** `g + (v, C)` ([`Graph::insert_vertex`]),
//! * **vertex replacement** `g[u/h]` ([`ops::replace_vertex`]).
//!
//! The crate also provides the reachability machinery every labeling scheme
//! is checked against: BFS reachability, transitive-closure bitsets,
//! topological orders, and seeded random two-terminal DAG generation.
//!
//! Everything here is deliberately self-contained — no external graph
//! library — so that the reproduction's data structures are fully auditable.
//!
//! ## Quick tour
//!
//! ```
//! use wf_graph::{Graph, NameId, ops};
//!
//! // Build the two-terminal graph  s -> m -> t.
//! let mut g = Graph::new();
//! let s = g.add_vertex(NameId(0));
//! let m = g.add_vertex(NameId(1));
//! let t = g.add_vertex(NameId(2));
//! g.add_edge(s, m).unwrap();
//! g.add_edge(m, t).unwrap();
//! assert!(g.is_two_terminal());
//! assert!(wf_graph::reach::reaches(&g, s, t));
//! ```

#![forbid(unsafe_code)]

pub mod bitset;
pub mod error;
pub mod graph;
pub mod ops;
pub mod random;
pub mod reach;
pub mod topo;

pub use bitset::BitSet;
pub use error::GraphError;
pub use graph::{Graph, NameId, VertexId};
