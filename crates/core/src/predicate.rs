//! The reachability predicate `πg` (Algorithm 4): constant-time decoding
//! of two DRL labels.
//!
//! The predicate decides at the first entry where the two labels differ,
//! so it has two ways of *finding* that entry — an indexed walk over two
//! labels' entry words (their prefix arrays compared by the masked index
//! bits of each pair of words, or not at all when both labels lend the
//! *same* array), and a streaming walk over two
//! entry streams (an [`EntryCursor`] over an encoded prefix record, then
//! the own entry) that holds only the previous and current entries (what
//! lets a completed run answer straight off its label arena; two labels
//! lending the *same* record read it once) — and **one** case analysis,
//! `DrlPredicate::decide`, that both reach. The case analysis reads the
//! few fields it needs of the lowest common ancestor's entries and the
//! entries after it in whichever form the walk holds them — entry words
//! off the indexed walk, unpacked by none, decoded entries off the
//! streaming one. [`DrlPredicate::reaches_ref`] picks the walk;
//! [`DrlPredicate::reaches`] is it over two owned labels.

use crate::encode::{EntryCursor, LabelRef};
use crate::entry::{Entry, EntryWord, NodeKind, SklPtr};
use crate::label::DrlLabel;
use std::sync::Arc;
use wf_skeleton::SpecLabeling;

/// What the case analysis reads of an entry: the same four fields of a
/// decoded [`Entry`] or of an [`EntryWord`], neither converted to the
/// other.
pub(crate) trait Fields: Copy {
    fn kind(self) -> NodeKind;
    fn index(self) -> u32;
    fn skl(self) -> Option<SklPtr>;
    fn rec(self) -> Option<(bool, bool)>;
}

impl Fields for Entry {
    fn kind(self) -> NodeKind {
        self.kind
    }
    fn index(self) -> u32 {
        self.index
    }
    fn skl(self) -> Option<SklPtr> {
        self.skl
    }
    fn rec(self) -> Option<(bool, bool)> {
        self.rec
    }
}

impl Fields for EntryWord {
    fn kind(self) -> NodeKind {
        EntryWord::kind(self)
    }
    fn index(self) -> u32 {
        EntryWord::index(self)
    }
    fn skl(self) -> Option<SklPtr> {
        EntryWord::skl(self)
    }
    fn rec(self) -> Option<(bool, bool)> {
        EntryWord::rec(self)
    }
}

/// The binary predicate over DRL labels. Holds only a reference to the
/// shared skeleton labels — queries use nothing but the two labels and
/// `πG` (Definition 8/9's "using only the labels" requirement; skeleton
/// labels are shared pre-processing, as in the paper).
pub struct DrlPredicate<'a, S: SpecLabeling> {
    skeleton: &'a S,
}

impl<'a, S: SpecLabeling> DrlPredicate<'a, S> {
    /// Wrap the skeleton labels.
    pub fn new(skeleton: &'a S) -> Self {
        Self { skeleton }
    }

    /// `πg(φg(v), φg(v')) = true` iff `v ;g v'` — for the final run *and*
    /// every intermediate graph both vertices belong to (Remark 1).
    ///
    /// Runs in O(dt) index comparisons plus at most one skeleton query —
    /// constant time for a fixed grammar (Theorem 3.3).
    ///
    /// # Panics
    /// On two labels no one labeler issued together.
    pub fn reaches(&self, a: &DrlLabel, b: &DrlLabel) -> bool {
        let ((pa, la), (pb, lb)) = (a.parts(), b.parts());
        self.indexed(pa, la, pb, lb)
            .expect("labels assigned by a labeler are well-formed")
    }

    /// [`Self::reaches`] over borrowed labels, whichever form each is
    /// in. Two decoded labels take the indexed walk; otherwise the two
    /// streams advance in lock step and only the previous and current
    /// entries are held — no label is materialised. `None` when a label
    /// stops decoding before the answer is known, or the two are not
    /// labels of the same run: encoded bytes are outside input, so a
    /// malformed label is an absent answer, never a wrong one.
    #[inline(always)]
    pub fn reaches_ref(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<bool> {
        match (a, b) {
            (
                LabelRef::Entries {
                    prefix: pa,
                    last: la,
                },
                LabelRef::Entries {
                    prefix: pb,
                    last: lb,
                },
            ) => self.indexed(pa, la, pb, lb),
            _ => self.streamed(a, b),
        }
    }

    /// [`Self::reaches`] for two labels of one context, from their own
    /// entries alone: a holder that knows the two share their prefix
    /// array and their own index (the same tree node) needs no look at
    /// the array — the skeleton decides.
    #[inline]
    pub fn reaches_in_context(&self, a: EntryWord, b: EntryWord) -> Option<bool> {
        debug_assert!(a.same_index(b), "one context node");
        self.decide(a, b, None, None)
    }

    /// The streaming walk's entry: at least one label is encoded, so both
    /// are read as entry streams — a prefix, then the own entry. Two
    /// labels lending one record share all of it, so it is read once.
    fn streamed(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<bool> {
        use LabelRef::{Encoded, Entries};
        fn decoded(
            prefix: &Arc<[EntryWord]>,
            last: EntryWord,
        ) -> impl Iterator<Item = Option<Entry>> + '_ {
            prefix
                .iter()
                .copied()
                .chain([last])
                .map(|w| Some(w.unpack()))
        }
        /// An encoded label's stream; `None` for a decoded one, or a
        /// prefix record whose entry count does not decode.
        fn encoded(label: LabelRef<'_>) -> Option<impl Iterator<Item = Option<Entry>> + '_> {
            let Encoded {
                prefix,
                last,
                skl_bits,
            } = label
            else {
                return None;
            };
            Some(EntryCursor::new(prefix, skl_bits)?.chain([Some(last)]))
        }
        match (a, b) {
            (Entries { .. }, Entries { .. }) => self.reaches_ref(a, b),
            (Entries { prefix, last }, _) => self.walk(decoded(prefix, last), encoded(b)?),
            (_, Entries { prefix, last }) => self.walk(encoded(a)?, decoded(prefix, last)),
            (
                Encoded {
                    prefix,
                    last: la,
                    skl_bits,
                },
                Encoded {
                    prefix: pb,
                    last: lb,
                    ..
                },
            ) if std::ptr::eq(prefix, pb) => {
                if la.index == lb.index {
                    return self.decide(la, lb, None, None);
                }
                // The record's last entry is the LCA; a label of the root
                // context has none, and then the two are of two runs.
                let lca = EntryCursor::new(prefix, skl_bits)?.last()??;
                self.decide(lca, lca, Some(la), Some(lb))
            }
            _ => self.walk(encoded(a)?, encoded(b)?),
        }
    }

    /// The indexed walk: the longest common prefix of the two context
    /// paths. The index sequences are Dewey labels, so equal prefixes =
    /// same tree nodes (Line 1), and a pair of words agrees on its index
    /// by its masked bits. Two labels lending the same array — same
    /// context, or copies under one loop/fork/chain node: the common case
    /// inside a sub-workflow — agree on all of it without a look.
    #[inline(always)]
    fn indexed(
        &self,
        pa: &[EntryWord],
        la: EntryWord,
        pb: &[EntryWord],
        lb: EntryWord,
    ) -> Option<bool> {
        /// Position `i` of a label: a prefix word, or its own word one
        /// past the prefix (the walk never goes further).
        fn at(prefix: &[EntryWord], last: EntryWord, i: usize) -> EntryWord {
            prefix.get(i).copied().unwrap_or(last)
        }
        /// The word after position `i - 1`, if the label goes on.
        fn next(prefix: &[EntryWord], last: EntryWord, i: usize) -> Option<EntryWord> {
            prefix
                .get(i)
                .copied()
                .or((i == prefix.len()).then_some(last))
        }
        let shared = pa.len().min(pb.len());
        let mut j = if std::ptr::eq(pa, pb) {
            shared
        } else {
            pa.iter()
                .zip(pb)
                .take_while(|(x, y)| x.same_index(**y))
                .count()
        };
        // Past the shorter prefix the shorter label has one position
        // left: its own entry.
        if j == shared && at(pa, la, j).same_index(at(pb, lb, j)) {
            j += 1;
        }
        // j - 1 is the position of LCA(x, x'); roots always share index
        // 0, so only labels of two runs have none.
        let lca = j.checked_sub(1)?;
        self.decide(
            at(pa, la, lca),
            at(pb, lb, lca),
            next(pa, la, j),
            next(pb, lb, j),
        )
    }

    /// The streaming walk: advance both entry streams while the indexes
    /// agree, remembering only the last agreeing pair (the LCA's
    /// entries). A decode failure ends the walk without an answer.
    fn walk(
        &self,
        mut ca: impl Iterator<Item = Option<Entry>>,
        mut cb: impl Iterator<Item = Option<Entry>>,
    ) -> Option<bool> {
        /// The stream's next entry (`Some(None)` at its end); `None`
        /// when the entry fails to decode.
        fn step(it: &mut impl Iterator<Item = Option<Entry>>) -> Option<Option<Entry>> {
            it.next().map_or(Some(None), |entry| entry.map(Some))
        }
        let mut lca: Option<(Entry, Entry)> = None;
        loop {
            let (next_a, next_b) = (step(&mut ca)?, step(&mut cb)?);
            match (next_a, next_b) {
                (Some(x), Some(y)) if x.index == y.index => lca = Some((x, y)),
                _ => {
                    let (x, y) = lca?;
                    return self.decide(x, y, next_a, next_b);
                }
            }
        }
    }

    /// Lemma 4.2's case analysis at the lowest common ancestor: `lca_a`
    /// and `lca_b` are the two labels' entries for that tree node (same
    /// index, so same node), `next_a` / `next_b` the entries right after
    /// it, where the labels part ways (`None` where a label ends at the
    /// LCA). `None` for shapes no labeler produces — an N entry without
    /// its skeleton pointer, a special LCA one label ends at.
    #[inline]
    pub(crate) fn decide<E: Fields>(
        &self,
        lca_a: E,
        lca_b: E,
        next_a: Option<E>,
        next_b: Option<E>,
    ) -> Option<bool> {
        match lca_a.kind() {
            NodeKind::N => {
                // Last case: compare the origins' skeleton labels within
                // Annt(LCA). Also covers the ancestor-context and
                // same-context cases, where the walk exhausted the
                // shorter label.
                let (g1, u) = lca_a.skl()?;
                let (g2, v) = lca_b.skl()?;
                // Same tree node ⇒ same annotation, in labels of one run;
                // a pointer that names no spec vertex has no answer.
                if g1 != g2 {
                    return None;
                }
                self.skeleton.reaches(g1, u, v)
            }
            // Distinct copies of a loop body, combined in series:
            // earlier copy reaches later copy (L case).
            NodeKind::L => Some(next_a?.index() < next_b?.index()),
            // Parallel fork branches never reach each other.
            NodeKind::F => Some(false),
            NodeKind::R => {
                // Distinct members of a recursion chain: the left member
                // wholly contains the right one's derivation, so the
                // answer is the precomputed flag against the recursive
                // vertex (R case).
                let (na, nb) = (next_a?, next_b?);
                Some(if na.index() < nb.index() {
                    na.rec().is_some_and(|r| r.0)
                } else {
                    nb.rec().is_some_and(|r| r.1)
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Entry, NodeKind};
    use crate::label::DrlLabel;
    use wf_graph::VertexId;
    use wf_skeleton::{SpecLabeling, TclSpecLabels};
    use wf_spec::GraphId;

    /// Hand-built labels against the running example's skeleton, hitting
    /// every branch of Algorithm 4 in isolation (the integration tests
    /// cover the same branches through full runs; these document the
    /// decoding rules directly).
    fn setup() -> (wf_spec::Specification, TclSpecLabels) {
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        (spec, skeleton)
    }

    fn n_entry(index: u32, g: GraphId, v: u32) -> Entry {
        Entry {
            index,
            kind: NodeKind::N,
            skl: Some((g, VertexId(v))),
            rec: None,
        }
    }

    #[test]
    fn same_context_uses_skeleton() {
        let (spec, skeleton) = setup();
        let p = DrlPredicate::new(&skeleton);
        // Two vertices of the same g0 instance: s0 (slot 0) and t0
        // (slot 2); s0 ; t0 but not back.
        let g0 = GraphId::START;
        let root = |v| DrlLabel::new(vec![n_entry(0, g0, v)]);
        assert!(p.reaches(&root(0), &root(2)));
        assert!(!p.reaches(&root(2), &root(0)));
        // Reflexive.
        assert!(p.reaches(&root(1), &root(1)));
        let _ = spec;
    }

    #[test]
    fn ancestor_context_uses_edge_origin() {
        let (spec, skeleton) = setup();
        let p = DrlPredicate::new(&skeleton);
        let g0 = GraphId::START;
        let l = spec.name_id("L").unwrap();
        let h1 = spec.implementations(l)[0];
        // v in g0 (s0 = slot 0); v' deeper, inside the L-expansion whose
        // edge annotation is g0's L vertex (slot 1).
        let shallow = DrlLabel::new(vec![n_entry(0, g0, 0)]);
        let deep = DrlLabel::new(vec![
            n_entry(0, g0, 1),              // edge to the L node, origin = L vertex
            Entry::special(1, NodeKind::L), // the L node
            n_entry(1, h1, 0),              // first copy, vertex s1
        ]);
        // s0 reaches the L vertex ⇒ s0 reaches everything derived from it.
        assert!(p.reaches(&shallow, &deep));
        // And nothing inside the expansion reaches back to s0.
        assert!(!p.reaches(&deep, &shallow));
        // But t0 (slot 2) is NOT reached-from by... t0 follows L: deep ; t0.
        let t0 = DrlLabel::new(vec![n_entry(0, g0, 2)]);
        assert!(p.reaches(&deep, &t0));
        assert!(!p.reaches(&t0, &deep));
    }

    #[test]
    fn l_node_orders_loop_copies() {
        let (spec, skeleton) = setup();
        let p = DrlPredicate::new(&skeleton);
        let g0 = GraphId::START;
        let l = spec.name_id("L").unwrap();
        let h1 = spec.implementations(l)[0];
        let copy = |i: u32| {
            DrlLabel::new(vec![
                n_entry(0, g0, 1),
                Entry::special(1, NodeKind::L),
                n_entry(i, h1, 0),
            ])
        };
        assert!(p.reaches(&copy(1), &copy(2)), "earlier copy reaches later");
        assert!(p.reaches(&copy(1), &copy(7)));
        assert!(!p.reaches(&copy(2), &copy(1)), "series order is strict");
    }

    #[test]
    fn f_node_separates_fork_branches() {
        let (spec, skeleton) = setup();
        let p = DrlPredicate::new(&skeleton);
        let g0 = GraphId::START;
        let f = spec.name_id("F").unwrap();
        let h2 = spec.implementations(f)[0];
        let branch = |i: u32| {
            DrlLabel::new(vec![
                n_entry(0, g0, 1),
                Entry::special(1, NodeKind::F),
                n_entry(i, h2, 0),
            ])
        };
        assert!(!p.reaches(&branch(1), &branch(2)));
        assert!(!p.reaches(&branch(2), &branch(1)));
    }

    #[test]
    fn r_node_uses_recursion_flags() {
        let (spec, skeleton) = setup();
        let p = DrlPredicate::new(&skeleton);
        let g0 = GraphId::START;
        let a = spec.name_id("A").unwrap();
        let h3 = spec.implementations(a)[0]; // s3 → B → C → t3, C recursive
        let h3g = spec.graph(h3);
        let b_v = h3g.find_by_name(spec.name_id("B").unwrap()).unwrap();
        let c_v = h3g.find_by_name(spec.name_id("C").unwrap()).unwrap();
        let s3 = h3g.source().unwrap();
        let t3 = h3g.sink().unwrap();
        // Chain member entry for origin u within h3, with flags vs C.
        let member = |i: u32, u: VertexId| {
            DrlLabel::new(vec![
                n_entry(0, g0, 1),
                Entry::special(1, NodeKind::R),
                Entry {
                    index: i,
                    kind: NodeKind::N,
                    skl: Some((h3, u)),
                    rec: Some((
                        skeleton.reaches(h3, u, c_v).unwrap(),
                        skeleton.reaches(h3, c_v, u).unwrap(),
                    )),
                },
            ])
        };
        // B (in member 1) reaches the recursive vertex C, so it reaches
        // everything in later chain members (rec1 = true).
        assert!(p.reaches(&member(1, b_v), &member(2, s3)));
        // t3 of member 1 does NOT reach C (rec1 = false): later members
        // are unreachable from it.
        assert!(!p.reaches(&member(1, t3), &member(2, s3)));
        // Right-to-left: member 2's vertices reach member 1's t3 iff C
        // reaches it (rec2 of the *left* member's entry).
        assert!(p.reaches(&member(2, s3), &member(1, t3)));
        // …but never member 1's s3 (C does not reach s3).
        assert!(!p.reaches(&member(2, s3), &member(1, s3)));
    }

    /// The streaming walk reaches the same case analysis: every pair of
    /// the hand-built labels above, in every mix of decoded and encoded
    /// operands, answers like `reaches`; a label whose prefix is cut
    /// mid-entry answers `None`, never a wrong `Some`.
    #[test]
    fn streaming_walk_agrees_and_refuses_truncated_labels() {
        use crate::encode::{encode_label, LabelRef};
        let (spec, skeleton) = setup();
        let p = DrlPredicate::new(&skeleton);
        let g0 = GraphId::START;
        let h1 = spec.implementations(spec.name_id("L").unwrap())[0];
        let h3 = spec.implementations(spec.name_id("A").unwrap())[0];
        let under = |kind, i, g, v, rec| {
            DrlLabel::new(vec![
                n_entry(0, g0, 1),
                Entry::special(1, kind),
                Entry {
                    rec,
                    ..n_entry(i, g, v)
                },
            ])
        };
        let labels = [
            DrlLabel::new(vec![n_entry(0, g0, 0)]),
            DrlLabel::new(vec![n_entry(0, g0, 2)]),
            under(NodeKind::L, 1, h1, 0, None),
            under(NodeKind::L, 2, h1, 1, None),
            under(NodeKind::F, 1, h1, 0, None),
            under(NodeKind::F, 2, h1, 0, None),
            under(NodeKind::R, 1, h3, 1, Some((true, false))),
            under(NodeKind::R, 2, h3, 0, Some((false, true))),
        ];
        let skl_bits = 4;
        // A standalone label starts with its prefix record.
        let bytes: Vec<Vec<u8>> = labels.iter().map(|l| encode_label(l, skl_bits)).collect();
        let encoded = |bytes, label: &DrlLabel| LabelRef::Encoded {
            prefix: bytes,
            last: label.view().last(),
            skl_bits,
        };
        for (a, ab) in labels.iter().zip(&bytes) {
            for (b, bb) in labels.iter().zip(&bytes) {
                // Labels under different special nodes at the same
                // position never co-occur in one run.
                if a.depth() == 3
                    && b.depth() == 3
                    && a.entry(1).unwrap().kind != b.entry(1).unwrap().kind
                {
                    continue;
                }
                let want = Some(p.reaches(a, b));
                let (ea, eb) = (encoded(ab, a), encoded(bb, b));
                assert_eq!(p.reaches_ref(a.view(), b.view()), want);
                assert_eq!(p.reaches_ref(ea, eb), want);
                assert_eq!(p.reaches_ref(a.view(), eb), want);
                assert_eq!(p.reaches_ref(ea, b.view()), want);
            }
        }
        // A label sharing the loop's path, its prefix record cut inside
        // a third entry (whose 39-bit index alone spans the cut).
        let deep = DrlLabel::new(vec![
            n_entry(0, g0, 1),
            Entry::special(1, NodeKind::L),
            n_entry(900_000, h1, 1),
            n_entry(1, h1, 0),
        ]);
        let deep_bytes = encode_label(&deep, skl_bits);
        let cut = encoded(&deep_bytes[..4], &deep);
        assert!(cut.to_label().is_none());
        let full = encoded(&bytes[2], &labels[2]);
        assert_eq!(p.reaches_ref(full, cut), None);
        assert_eq!(p.reaches_ref(cut, full), None);
        assert_eq!(p.reaches_ref(labels[2].view(), cut), None);
        // …while a difference *before* the cut still decides.
        assert_eq!(p.reaches_ref(labels[0].view(), cut), Some(true));
    }

    /// Labels as a labeler issues them — prefix arrays shared by the
    /// labels of a context, and by the copies under one loop node —
    /// answer like private rebuilds of the same entries, whether the pair
    /// shares an array (same context: the skeleton decides; sibling
    /// copies: their own entries' indexes do — no walk either way),
    /// carries equal arrays in two allocations (issued against rebuilt:
    /// the walk runs their whole length), or differs earlier — and so do
    /// their cells in a label arena, where labels that shared an array
    /// share one prefix record. Two issued labels carry one array exactly
    /// when they carry one number.
    #[test]
    fn shared_prefix_arrays_answer_like_private_copies() {
        use crate::machinery::{RecursionMode, SpecTables};
        use wf_spec::NameClass;
        let (spec, skeleton) = setup();
        let p = DrlPredicate::new(&skeleton);
        let g0 = spec.start_graph();
        let l = spec.name_id("L").unwrap();
        let h1 = spec.implementations(l)[0];
        let l_vertex = g0.find_by_name(l).unwrap();
        let tables = SpecTables::new(&spec, RecursionMode::Linear).unwrap();
        let mut tree = crate::tree::ExplicitTree::new();
        let root = tree.create_root(wf_spec::GraphId::START);
        let copies = tree
            .expand(&tables, &skeleton, root, l_vertex, NameClass::Loop, h1, 3)
            .unwrap()
            .members();
        let mut issued = Vec::new();
        for x in std::iter::once(root).chain(copies) {
            let gid = tree.node(x).ann().unwrap();
            for sv in spec.graph(gid).vertices() {
                issued.push(tree.label_for(&tables, &skeleton, x, sv));
            }
        }
        let rebuilt: Vec<DrlLabel> = issued
            .iter()
            .map(|l| DrlLabel::new(l.entries().collect()))
            .collect();
        let vertex = |i: usize| wf_graph::VertexId(i as u32);
        let labeled = issued.iter().enumerate();
        let arena = crate::LabelArena::build(
            tables.skl_bits(),
            labeled.map(|(i, l)| (vertex(i), wf_graph::NameId(0), l.view())),
        );
        let sealed = arena.view();
        let record = |i| match sealed.label(vertex(i)) {
            Some(crate::LabelRef::Encoded { prefix, .. }) => prefix.as_ptr(),
            other => panic!("{other:?}"),
        };
        let mut same_array = 0;
        for (i, (a, ra)) in issued.iter().zip(&rebuilt).enumerate() {
            for (j, (b, rb)) in issued.iter().zip(&rebuilt).enumerate() {
                assert!(!std::ptr::eq(ra.prefix(), rb.prefix()) || std::ptr::eq(ra, rb));
                assert!(!std::ptr::eq(a.prefix(), rb.prefix()));
                assert_eq!(
                    std::ptr::eq(a.prefix(), b.prefix()),
                    a.prefix() == b.prefix()
                );
                assert_eq!(
                    std::ptr::eq(a.prefix(), b.prefix()),
                    a.prefix_id() == b.prefix_id()
                );
                assert_eq!(rb.prefix_id(), None);
                same_array += usize::from(std::ptr::eq(a.prefix(), b.prefix()));
                let want = p.reaches(ra, rb);
                assert_eq!(p.reaches(a, b), want, "{a:?} ; {b:?}");
                assert_eq!(p.reaches(a, rb), want);
                assert_eq!(p.reaches(ra, b), want);
                assert_eq!(p.reaches_ref(a.view(), b.view()), Some(want));
                assert_eq!(record(i) == record(j), std::ptr::eq(a.prefix(), b.prefix()));
                let (si, sj) = (sealed.label(vertex(i)), sealed.label(vertex(j)));
                assert_eq!(sealed.reach(&p, vertex(i), vertex(j)), Some(want));
                assert_eq!(p.reaches_ref(si.unwrap(), sj.unwrap()), Some(want));
                assert_eq!(p.reaches_ref(a.view(), sj.unwrap()), Some(want));
                assert_eq!(p.reaches_ref(si.unwrap(), rb.view()), Some(want));
            }
        }
        let (n0, n1) = (g0.vertex_count(), spec.graph(h1).vertex_count());
        // The root's array, and one for the three loop copies together.
        assert_eq!(same_array, n0 * n0 + (3 * n1) * (3 * n1));
        assert_eq!(tree.prefix_ids(), 2);
        assert_eq!(
            (issued[0].prefix_id(), issued[n0].prefix_id()),
            (Some(0), Some(1))
        );
        // Loop copies in series: copy 1's source reaches copy 3's, not back.
        assert!(p.reaches(&issued[n0], &issued[n0 + 2 * n1]));
        assert!(!p.reaches(&issued[n0 + 2 * n1], &issued[n0]));
    }
}
