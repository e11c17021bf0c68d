//! The reachability predicate `πg` (Algorithm 4): constant-time decoding
//! of two DRL labels.
//!
//! The predicate decides at the lowest common ancestor (LCA) of the two
//! labels' contexts — the last position of their longest common index
//! prefix — so it has two ways of *finding* that position, and **one**
//! case analysis, `DrlPredicate::decide`, that both reach with the entry
//! words at the LCA and right after it:
//!
//! - the **indexed walk**, over two labels' prefix arrays from the root
//!   down, comparing each pair of words by its masked index bits — or not
//!   at all when both labels lend the *same* array;
//! - the **climb**, over any pair with a completed run's label in it
//!   ([`crate::arena`]): both paths are read from their depths up, one
//!   fixed-width trie record (or array word) per step, and the climb
//!   stops at the first prefix the two share — two labels of one trie
//!   prefix read none of it.
//!
//! [`DrlPredicate::reaches_ref`] picks the walk; [`DrlPredicate::reaches`]
//! is it over two owned labels.

use crate::arena::Climb;
use crate::entry::{EntryWord, NodeKind};
use crate::label::{DrlLabel, LabelRef};
use wf_skeleton::SpecLabeling;

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
    /// in. Two labels of arrays take the indexed walk; a pair with a
    /// sealed label in it climbs. No label is materialised. `None` when a
    /// label stops reading before the answer is known, or the two are not
    /// labels of the same run: a sealed run's bytes are outside input, so
    /// a malformed label is an absent answer, never a wrong one.
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
            _ => self.climbed(a, b),
        }
    }

    /// [`Self::reaches`] for two labels of one context, from their own
    /// entries alone: a holder that knows the two share their prefix
    /// and their own index (the same tree node) needs no look at the
    /// prefix — the skeleton decides.
    #[inline]
    pub fn reaches_in_context(&self, a: EntryWord, b: EntryWord) -> Option<bool> {
        debug_assert!(a.same_index(b), "one context node");
        self.decide(a, b, None, None)
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

    /// The climb: both labels' paths read from the bottom up. Position
    /// `k`, one past the shorter prefix, is the deepest the two can
    /// share; from there the climb goes up a level at a time, comparing
    /// indexes only and keeping where the deepest position whose index
    /// and every index above it agree lies — a disagreement drops what it
    /// kept. It stops at the first prefix both paths reach, whose entries
    /// above agree by construction, or at the root; only then are the
    /// LCA's entries and the ones after it read.
    fn climbed(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<bool> {
        let (mut pa, la) = Path::of(&a)?;
        let (mut pb, lb) = Path::of(&b)?;
        // Labels of one prefix share all of it: their own entries agree
        // (one context), or the prefix's last entry is the LCA; a label
        // of the root context has none, and then the two are of two runs.
        if pa.same(&pb) {
            if la.same_index(lb) {
                return self.decide(la, lb, None, None);
            }
            let lca = pa.word(Rung::At(pa.mark()), la)?;
            return self.decide(lca, lca, Some(la), Some(lb));
        }
        let k = pa.depth().min(pb.depth()) + 1;
        let (ia, xa, na) = pa.settle(k, la)?;
        let (ib, xb, nb) = pb.settle(k, lb)?;
        let mut lca = (ia == ib).then_some((xa, xb, na, nb));
        let (mut below_a, mut below_b) = (xa, xb);
        while pa.depth() > 0 {
            let (ma, mb) = (Rung::At(pa.mark()), Rung::At(pb.mark()));
            if pa.same(&pb) {
                lca = lca.or(Some((ma, mb, Some(below_a), Some(below_b))));
                break;
            }
            lca = if pa.index()? == pb.index()? {
                lca.or(Some((ma, mb, Some(below_a), Some(below_b))))
            } else {
                None
            };
            (below_a, below_b) = (ma, mb);
            pa.up()?;
            pb.up()?;
        }
        let (x, y, next_x, next_y) = lca?;
        let (x, y) = (pa.word(x, la)?, pb.word(y, lb)?);
        // Only a special LCA reads the entries after it.
        if x.kind() == NodeKind::N {
            return self.decide(x, y, None, None);
        }
        let next = |path: &Path<'_>, own, next: Option<Rung>| match next {
            Some(rung) => path.word(rung, own).map(Some),
            None => Some(None),
        };
        self.decide(x, y, next(&pa, la, next_x)?, next(&pb, lb, next_y)?)
    }

    /// Lemma 4.2's case analysis at the lowest common ancestor: `lca_a`
    /// and `lca_b` are the two labels' entries for that tree node (same
    /// index, so same node), `next_a` / `next_b` the entries right after
    /// it, where the labels part ways (`None` where a label ends at the
    /// LCA). `None` for shapes no labeler produces — an N entry without
    /// its skeleton pointer, a special LCA one label ends at.
    #[inline]
    pub(crate) fn decide(
        &self,
        lca_a: EntryWord,
        lca_b: EntryWord,
        next_a: Option<EntryWord>,
        next_b: Option<EntryWord>,
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

/// A position on a label's path the climb has passed: the label's own
/// entry, or the prefix it stood at (its [`Path::mark`]).
#[derive(Clone, Copy)]
enum Rung {
    Own,
    At(u32),
}

/// One label's prefix, read from the bottom up: where a climb stands.
#[derive(Clone, Copy)]
enum Path<'a> {
    /// A prefix array; the climb stands at its first `depth` words.
    Array(&'a [EntryWord], u32),
    /// A trie prefix.
    Trie(Climb<'a>),
}

impl<'a> Path<'a> {
    /// A label's whole prefix, and its own entry; `None` for a trie
    /// prefix that does not read.
    #[inline]
    fn of(label: &'a LabelRef<'a>) -> Option<(Self, EntryWord)> {
        Some(match label {
            LabelRef::Entries { prefix, last } => (Path::Array(prefix, prefix.len() as u32), *last),
            LabelRef::Sealed { trie, prefix, last } => (Path::Trie(trie.at(*prefix)?), *last),
        })
    }

    /// How many entries the prefix the climb stands at has.
    #[inline]
    fn depth(&self) -> u32 {
        match self {
            Path::Array(_, depth) => *depth,
            Path::Trie(climb) => climb.depth(),
        }
    }

    /// Where the climb stands, for [`Self::word`] to read back.
    #[inline]
    fn mark(&self) -> u32 {
        match self {
            Path::Array(_, depth) => *depth,
            Path::Trie(climb) => climb.prefix(),
        }
    }

    /// The index of the last entry of the prefix the climb stands at, as
    /// stored; `None` above the root.
    #[inline]
    fn index(&self) -> Option<u64> {
        match self {
            Path::Array(words, depth) => {
                Some(words.get(depth.checked_sub(1)? as usize)?.index().into())
            }
            Path::Trie(climb) => climb.index(),
        }
    }

    /// The entry at a passed position; `None` above the root, or for a
    /// record that does not decode.
    #[inline]
    fn word(&self, rung: Rung, own: EntryWord) -> Option<EntryWord> {
        match (self, rung) {
            (_, Rung::Own) => Some(own),
            (Path::Array(words, _), Rung::At(depth)) => {
                words.get(depth.checked_sub(1)? as usize).copied()
            }
            (Path::Trie(climb), Rung::At(prefix)) => climb.word_at(prefix),
        }
    }

    /// Step to the prefix one entry shorter; `None` above the root or
    /// where a trie link does not read.
    #[inline]
    fn up(&mut self) -> Option<()> {
        match self {
            Path::Array(_, depth) => *depth = depth.checked_sub(1)?,
            Path::Trie(climb) => climb.up()?,
        }
        Some(())
    }

    /// Whether two climbs stand at one prefix: then every entry above
    /// agrees.
    #[inline]
    fn same(&self, other: &Self) -> bool {
        match (self, other) {
            (Path::Array(a, da), Path::Array(b, db)) => std::ptr::eq(*a, *b) && da == db,
            (Path::Trie(a), Path::Trie(b)) => a.same(b),
            _ => false,
        }
    }

    /// Climb from the whole prefix to depth `k - 1`, where `k` is at most
    /// one past the prefix, and return the label's index at position `k`
    /// and where positions `k` and `k + 1` (`None` past the label's end)
    /// lie: its own entry, or prefixes the climb passed.
    fn settle(&mut self, k: u32, own: EntryWord) -> Option<(u64, Rung, Option<Rung>)> {
        let depth = self.depth();
        if depth + 1 == k {
            return Some((own.index().into(), Rung::Own, None));
        }
        while self.depth() > k + 1 {
            self.up()?;
        }
        let below = if depth == k {
            Rung::Own
        } else {
            let below = Rung::At(self.mark());
            self.up()?;
            below
        };
        let (here, index) = (Rung::At(self.mark()), self.index()?);
        self.up()?;
        Some((index, here, Some(below)))
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

    /// The climb reaches the same case analysis: every pair of the
    /// hand-built labels above, sealed into one arena, answers like
    /// `reaches` — sealed × sealed, sealed × array and array × sealed —
    /// and a label whose trie path is broken answers `None`, never a
    /// wrong `Some`, unless the pair parts below the break.
    #[test]
    fn the_climb_agrees_and_refuses_broken_paths() {
        use crate::arena::{LabelArena, NameTable};
        use wf_graph::NameId;
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
            DrlLabel::new(vec![
                n_entry(0, g0, 1),
                Entry::special(1, NodeKind::L),
                n_entry(2, h1, 1),
                n_entry(1, h1, 0),
            ]),
        ];
        let names = NameTable::default();
        let arena = LabelArena::build(
            4,
            &names,
            labels
                .iter()
                .enumerate()
                .map(|(i, l)| (VertexId(i as u32), NameId(0), l.view())),
        );
        let sealed = arena.view(&names);
        let at = |i: usize| sealed.label(VertexId(i as u32)).unwrap();
        for (i, a) in labels.iter().enumerate() {
            for (j, b) in labels.iter().enumerate() {
                // Labels under different special nodes at the same
                // position never co-occur in one run.
                let special = |l: &DrlLabel| l.entry(1).map(|e| e.kind);
                if a.depth() >= 3 && b.depth() >= 3 && special(a) != special(b) {
                    continue;
                }
                let want = Some(p.reaches(a, b));
                assert_eq!(p.reaches_ref(a.view(), b.view()), want);
                assert_eq!(p.reaches_ref(at(i), at(j)), want, "{i} ; {j}");
                assert_eq!(
                    sealed.reach(&p, VertexId(i as u32), VertexId(j as u32)),
                    want
                );
                assert_eq!(p.reaches_ref(a.view(), at(j)), want);
                assert_eq!(p.reaches_ref(at(i), b.view()), want);
            }
        }
        // Break the deep label's link from its third entry to its second:
        // the last trie record (written after its parents) is that entry.
        // The trie record written last is the deep label's third entry:
        // the last bit whose flip leaves its cell readable but its path
        // not lies in it.
        let mut bytes = arena.bytes().to_vec();
        let deep = labels.len() - 1;
        let trie_bits = (0..bytes.len() * 8)
            .rev()
            .find(|&bit| {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                crate::ArenaRef::new(&flipped, 4, &names)
                    .ok()
                    .and_then(|v| v.label(VertexId(deep as u32)))
                    .is_some_and(|l| l.to_label().is_none())
            })
            .expect("a bit whose flip breaks the deep label");
        bytes[trie_bits / 8] ^= 1 << (trie_bits % 8);
        let broken = crate::ArenaRef::new(&bytes, 4, &names).unwrap();
        let cut = broken.label(VertexId(deep as u32)).unwrap();
        assert_eq!(cut.bit_len(4), None);
        assert_eq!(p.reaches_ref(at(2), cut), None);
        assert_eq!(p.reaches_ref(cut, labels[2].view()), None);
        assert!(crate::ArenaRef::new(&bytes, 4, &names)
            .unwrap()
            .to_arena()
            .is_err());
    }

    /// Labels as a labeler issues them — prefix arrays shared by the
    /// labels of a context, and by the copies under one loop node —
    /// answer like private rebuilds of the same entries, whether the pair
    /// shares an array (same context: the skeleton decides; sibling
    /// copies: their own entries' indexes do — no walk either way),
    /// carries equal arrays in two allocations (issued against rebuilt:
    /// the walk runs their whole length), or differs earlier — and so do
    /// their cells in a label arena, where labels that shared an array
    /// share one trie prefix. Two issued labels carry one array exactly
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
            tables.names(),
            labeled.map(|(i, l)| (vertex(i), wf_graph::NameId(0), l.view())),
        );
        let sealed = arena.view(tables.names());
        let record = |i| match sealed.label(vertex(i)) {
            Some(LabelRef::Sealed { prefix, .. }) => prefix,
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
