//! **The label arena**: every label of one completed run, as a context
//! trie — the body of a segment blob (format v6), and the one reader of
//! it.
//!
//! A DRL label is its context's prefix plus one own entry (Algorithm 3),
//! and footnote 4 keeps shared parts as pointers, not copies. The arena
//! takes that literally. Each distinct prefix entry — a prefix's last
//! entry under the prefix before it — is one fixed-width **trie record**
//! naming its parent; each distinct context (a prefix, the own entry's
//! index, kind and graph) is one fixed-width **context record**; and a
//! label is one fixed-width **cell** naming its context. Nothing is
//! γ-coded: every read is a field load at a known bit. All integers are
//! little-endian:
//!
//! ```text
//! layout    span u32 (max vertex id + 1) · contexts u32 · trie u32
//!           (record counts) · 15 × u8: the width in bits (≤ 33) of each
//!           field below, cells', contexts', then the trie's
//! presence  ⌈span / 64⌉ × (word u64: bit v % 64 set iff vertex v is
//!           labeled · u32: the labeled vertices before the word)
//! records   one bit stream, every record of a region at that region's
//!           width, each field as wide as its largest value in the run:
//!   cells     one per labeled vertex, in vertex order: context ·
//!             skeleton vertex · rec (0 = none, 1–4) · name code (0 =
//!             the spec vertex's own name, else name + 1)
//!   contexts  prefix (trie record + 1; 0 = the empty prefix) · own index
//!             · own kind · own graph
//!   trie      parent (trie record + 1; 0 = a root entry) · depth ·
//!             index · kind · graph · skeleton vertex · rec
//!           then zero bits to the next byte
//! ```
//!
//! The builder meets labels in vertex order and numbers records as it
//! first meets them: a prefix is inserted root first, one record per
//! entry whose (parent, entry) pair is new, so a record always follows
//! its parent; a context is numbered when its (prefix, index, kind,
//! graph) is new. A field that is 0 throughout — an own entry's kind is
//! `N`; a name is its spec vertex's — costs no bits. The name code reads
//! through a [`NameTable`], the per-spec table of every spec vertex's
//! name ([`crate::SpecTables::names`]), so an engine's runs spend nothing
//! on names while any name a caller sent reads back exactly.
//!
//! **Reads never decode.** Finding a label is a presence test and a rank
//! (the count before the word plus a popcount); its own entry is its
//! cell's two fields and its context's three. Two labels of one context
//! decide from their cells. Any other pair climbs the two trie paths
//! from their depths, one fixed-width load per step, to the entries the
//! predicate's case analysis needs ([`crate::DrlPredicate::reaches_ref`]).
//!
//! **Trust.** [`ArenaRef::new`] checks the framing in constant time, so a
//! reader can be made per read; past that it trusts nothing. Every step
//! up the trie checks that the parent is numbered below its child and
//! is one shallower, so no walk loops and a depth bounds every walk and
//! every allocation; a record number out of range, a code no record is
//! written with, or an entry no [`EntryWord`] holds surfaces as an
//! absent answer — never a panic. [`ArenaRef::to_arena`] is the
//! validating copy, which checks every rank, record and cell once.

use crate::encode::{kind_code, load_le, BitWriter};
use crate::entry::{EntryWord, NodeKind};
use crate::label::LabelRef;
use crate::predicate::DrlPredicate;
use std::collections::HashMap;
use std::fmt;
use wf_graph::{NameId, VertexId};
use wf_skeleton::SpecLabeling;
use wf_spec::{GraphId, Specification};

/// The name of every spec vertex, by `(graph, vertex slot)`: what an
/// arena cell's name code 0 stands for. Built once per specification
/// ([`crate::SpecTables::names`]); an empty table names nothing, so every
/// name is then spelled out in its cell.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    /// Where each graph's slots start in `names`, then the end.
    starts: Box<[u32]>,
    /// The slots' names, graph after graph; [`NO_NAME`] for a slot that
    /// holds no vertex.
    names: Box<[NameId]>,
}

/// A slot with no vertex.
const NO_NAME: NameId = NameId(u32::MAX);

impl NameTable {
    /// The table of `spec`'s vertices.
    pub fn new(spec: &Specification) -> Self {
        let mut starts = vec![0];
        let mut names = Vec::new();
        for gid in spec.graph_ids() {
            let g = spec.graph(gid);
            let at = names.len();
            names.resize(at + g.slot_count(), NO_NAME);
            for v in g.vertices() {
                names[at + v.idx()] = g.name(v);
            }
            starts.push(u32::try_from(names.len()).expect("a spec of under 2^32 slots"));
        }
        Self {
            starts: starts.into(),
            names: names.into(),
        }
    }

    /// The name of vertex `v` of spec graph `g`, if it has one.
    #[inline]
    pub fn get(&self, g: GraphId, v: VertexId) -> Option<NameId> {
        let name = *self.graph(g)?.get(v.idx())?;
        (name != NO_NAME).then_some(name)
    }

    /// The names of spec graph `g`'s slots ([`NO_NAME`] for a slot that
    /// holds no vertex).
    #[inline]
    fn graph(&self, g: GraphId) -> Option<&[NameId]> {
        let (start, end) = (*self.starts.get(g.idx())?, *self.starts.get(g.idx() + 1)?);
        self.names.get(start as usize..end as usize)
    }
}

/// Cell fields.
const CONTEXT: usize = 0;
const VERTEX: usize = 1;
const REC: usize = 2;
const NAME: usize = 3;
const CELL_FIELDS: usize = 4;
/// Context record fields: prefix, own index, own kind, own graph.
const CONTEXT_FIELDS: usize = 4;
/// Trie record fields: the parent and depth, then one entry.
const PARENT: usize = 0;
const DEPTH: usize = 1;
const ENTRY: usize = 2;
const TRIE_FIELDS: usize = ENTRY + 5;
/// The widest field: a name code is a `u32` name plus one.
const MAX_WIDTH: u8 = 33;
/// The layout header: the id span, two record counts, a width per field.
const LAYOUT_LEN: usize = 4 + 4 + 4 + CELL_FIELDS + CONTEXT_FIELDS + TRIE_FIELDS;
/// One presence word and the count of labeled vertices before it.
const GROUP_LEN: usize = 8 + 4;

/// One region of the record stream: `count` records of `bits` bits from
/// bit `start`, field `k` at bit `at[k]` of a record, `width[k]` wide.
#[derive(Debug, Clone, Copy)]
struct Region<const N: usize> {
    start: usize,
    count: usize,
    bits: u8,
    at: [u8; N],
    width: [u8; N],
}

impl<const N: usize> Region<N> {
    /// `count` records of the field `widths` a layout header gives.
    fn framed(widths: &[u8], start: usize, count: usize) -> Self {
        let width: [u8; N] = widths.try_into().expect("one width per field");
        let (mut at, mut bits) = ([0; N], 0u8);
        for (at, &w) in at.iter_mut().zip(&width) {
            *at = bits;
            bits += w;
        }
        Self {
            start,
            count,
            bits,
            at,
            width,
        }
    }

    /// The bit after the region's last record.
    fn end(&self) -> usize {
        self.start + self.count * usize::from(self.bits)
    }

    /// The mask of field `k`'s width.
    #[inline]
    fn mask(&self, k: usize) -> u64 {
        (1 << self.width[k]) - 1
    }

    /// Field `k` of record `r` (below `count`): one unaligned
    /// little-endian load, a shift and a mask.
    #[inline]
    fn field(&self, stream: &[u8], r: usize, k: usize) -> u64 {
        let bit = self.start + r * usize::from(self.bits) + usize::from(self.at[k]);
        let word = load_le(stream, bit / 8) >> (bit % 8);
        word & self.mask(k)
    }

    /// Every field of record `r` (below `count`): one load for a record
    /// that fits the 57 bits a shifted word keeps, a load per field for a
    /// wider one.
    #[inline]
    fn record(&self, stream: &[u8], r: usize) -> [u64; N] {
        let mut fields = [0; N];
        if self.bits > 57 {
            for (k, field) in fields.iter_mut().enumerate() {
                *field = self.field(stream, r, k);
            }
            return fields;
        }
        let bit = self.start + r * usize::from(self.bits);
        let word = load_le(stream, bit / 8) >> (bit % 8);
        for (k, field) in fields.iter_mut().enumerate() {
            *field = (word >> self.at[k]) & self.mask(k);
        }
        fields
    }
}

/// A run's **prefix trie**, borrowed from its arena: what a sealed
/// [`LabelRef`] names its prefix in. A prefix is numbered by its last
/// entry's record plus one, 0 being the empty prefix; the reads below
/// check every number they are handed and every parent link they follow.
#[derive(Clone, Copy)]
pub struct PrefixTrie<'a> {
    stream: &'a [u8],
    region: Region<TRIE_FIELDS>,
}

/// A trie shows as its record count, not the run's bytes.
impl fmt::Debug for PrefixTrie<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrefixTrie")
            .field("records", &self.region.count)
            .finish_non_exhaustive()
    }
}

impl<'a> PrefixTrie<'a> {
    /// Where the trie lies: two tries are one iff their addresses are
    /// equal, and prefixes of one trie with one number are one prefix.
    #[inline]
    pub(crate) fn address(&self) -> usize {
        self.stream.as_ptr() as usize
    }

    /// Field `k` of prefix `n` (≥ 1), which names a record.
    #[inline]
    fn field(&self, n: u32, k: usize) -> u64 {
        self.region.field(self.stream, n as usize - 1, k)
    }

    /// A climb standing at prefix `n`; `None` for a number past the
    /// records, or a depth its number cannot have (a chain of `d` records
    /// numbered below one another needs `d` numbers).
    #[inline]
    pub(crate) fn at(&self, n: u32) -> Option<Climb<'_>> {
        let depth = if n == 0 {
            0
        } else if n as usize > self.region.count {
            return None;
        } else {
            let depth = self.field(n, DEPTH);
            if !(1..=u64::from(n)).contains(&depth) {
                return None;
            }
            depth as u32
        };
        Some(Climb {
            trie: self,
            n,
            depth,
        })
    }

    /// Every entry of prefix `n`, root first; `None` when a link or an
    /// entry does not read. The path is climbed once before anything is
    /// sized from its depth, so a broken one allocates nothing.
    pub(crate) fn entries(&self, n: u32) -> Option<Vec<EntryWord>> {
        self.bit_len(n, 0)?;
        let mut climb = self.at(n)?;
        let mut words = vec![EntryWord::from_bits(0); climb.depth() as usize];
        while climb.depth() > 0 {
            words[climb.depth() as usize - 1] = climb.word()?;
            climb.up()?;
        }
        Some(words)
    }

    /// The Theorem-3 bits of prefix `n`'s entries; `None` when a link or
    /// an entry does not read.
    pub(crate) fn bit_len(&self, n: u32, skl_bits: usize) -> Option<usize> {
        let (mut climb, mut bits) = (self.at(n)?, 0);
        while climb.depth() > 0 {
            bits += climb.word()?.bit_len(skl_bits);
            climb.up()?;
        }
        Some(bits)
    }
}

/// Where a climb up a [`PrefixTrie`] stands: a prefix and its depth.
/// Every step is checked — the parent numbered below, one shallower —
/// so a climb ends within its depth whatever the bytes say.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Climb<'t> {
    trie: &'t PrefixTrie<'t>,
    /// The prefix: its record plus one, 0 above the root.
    n: u32,
    depth: u32,
}

impl Climb<'_> {
    /// The prefix's entry count.
    #[inline]
    pub(crate) fn depth(&self) -> u32 {
        self.depth
    }

    /// The prefix the climb stands at: its record plus one.
    #[inline]
    pub(crate) fn prefix(&self) -> u32 {
        self.n
    }

    /// The index field of the prefix's last entry, as stored; `None`
    /// above the root.
    #[inline]
    pub(crate) fn index(&self) -> Option<u64> {
        (self.n > 0).then(|| self.trie.field(self.n, ENTRY))
    }

    /// The prefix's last entry; `None` above the root, or for an entry
    /// that does not decode.
    #[inline]
    pub(crate) fn word(&self) -> Option<EntryWord> {
        let r = (self.n as usize).checked_sub(1)?;
        let record = self.trie.region.record(self.trie.stream, r);
        let [.., index, kind, graph, vertex, rec] = record;
        EntryWord::from_codes(index, kind, graph, vertex, rec)
    }

    /// The last entry of prefix `n` of the same trie — one the climb has
    /// passed; `None` as for [`Self::word`].
    #[inline]
    pub(crate) fn word_at(&self, n: u32) -> Option<EntryWord> {
        if n == self.n {
            return self.word();
        }
        self.trie.at(n)?.word()
    }

    /// Step to the prefix one entry shorter: `None` above the root, or
    /// unless it is numbered below this one and is one shallower.
    #[inline]
    pub(crate) fn up(&mut self) -> Option<()> {
        if self.n == 0 {
            return None;
        }
        let parent = self.trie.field(self.n, PARENT);
        if parent >= u64::from(self.n) {
            return None;
        }
        let up = self.trie.at(parent as u32)?;
        (up.depth + 1 == self.depth).then(|| *self = up)
    }

    /// Whether two climbs stand at one prefix of one trie: then every
    /// entry above agrees.
    #[inline]
    pub(crate) fn same(&self, other: &Self) -> bool {
        self.trie.address() == other.trie.address() && self.n == other.n
    }
}

/// Why bytes are not a label arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArenaError {
    /// The bytes end before, or run past, the regions their layout
    /// header sizes.
    Length {
        /// The length the layout calls for.
        expected: usize,
        /// The length found.
        found: usize,
    },
    /// A field wider than the 33 bits any field needs.
    Width(u8),
    /// A presence word whose count of the labels before it is wrong.
    Rank(usize),
    /// A trie record that does not read: a parent not numbered below it,
    /// a depth other than its parent's plus one, or an entry that does
    /// not decode.
    Trie(usize),
    /// A context record whose prefix or own entry does not read.
    Context(usize),
    /// A vertex whose cell, own entry or name does not read.
    Label(VertexId),
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::Length { expected, found } => write!(
                f,
                "arena length {found} does not match its layout (expected {expected})"
            ),
            ArenaError::Width(bits) => write!(f, "field width {bits} exceeds {MAX_WIDTH} bits"),
            ArenaError::Rank(word) => write!(f, "presence word {word} has a wrong rank"),
            ArenaError::Trie(r) => write!(f, "trie record {r} does not read"),
            ArenaError::Context(r) => write!(f, "context record {r} does not read"),
            ArenaError::Label(v) => write!(f, "the label of {v:?} does not read"),
        }
    }
}

impl std::error::Error for ArenaError {}

/// One cell's fields: context, own vertex, own rec, name code.
type Cell = [u64; CELL_FIELDS];

/// **The arena reader**: every label read of a completed run goes
/// through this one type, whether the bytes are owned by a
/// [`LabelArena`] or sit in a segment's heap frame; it never allocates
/// (but in [`LabelRef::to_label`]). It reads names through the
/// [`NameTable`] of the run's specification.
///
/// [`Self::new`] checks the framing — the layout header, the widths, and
/// that the regions it sizes fill the bytes exactly — in constant time,
/// so a reader can be made per read. Past that it trusts nothing (see
/// the module docs); [`Self::to_arena`] is the validating copy.
#[derive(Debug, Clone, Copy)]
pub struct ArenaRef<'a> {
    bytes: &'a [u8],
    /// The presence words, each followed by its rank.
    groups: &'a [u8],
    /// The record stream.
    stream: &'a [u8],
    cells: Region<CELL_FIELDS>,
    contexts: Region<CONTEXT_FIELDS>,
    trie: PrefixTrie<'a>,
    names: &'a NameTable,
    skl_bits: usize,
}

impl<'a> ArenaRef<'a> {
    /// Frame the label arena `bytes`, whose labels are accounted with
    /// skeleton pointers `skl_bits` wide ([`LabelRef::bit_len`]) and
    /// whose name codes read through `names`.
    pub fn new(bytes: &'a [u8], skl_bits: usize, names: &'a NameTable) -> Result<Self, ArenaError> {
        let length = |expected| ArenaError::Length {
            expected,
            found: bytes.len(),
        };
        let layout = bytes.get(..LAYOUT_LEN).ok_or(length(LAYOUT_LEN))?;
        let word = |i: usize| u32::from_le_bytes(layout[i..i + 4].try_into().expect("4 bytes"));
        let widths = &layout[12..];
        if let Some(&bits) = widths.iter().find(|&&bits| bits > MAX_WIDTH) {
            return Err(ArenaError::Width(bits));
        }
        let framed = LAYOUT_LEN + (word(0) as usize).div_ceil(64) * GROUP_LEN;
        let groups = bytes.get(LAYOUT_LEN..framed).ok_or(length(framed))?;
        let stream = &bytes[framed..];
        let (cell_w, rest) = widths.split_at(CELL_FIELDS);
        let (context_w, trie_w) = rest.split_at(CONTEXT_FIELDS);
        let cells = Region::framed(cell_w, 0, labeled_count(groups));
        let contexts = Region::framed(context_w, cells.end(), word(4) as usize);
        let trie = Region::framed(trie_w, contexts.end(), word(8) as usize);
        let expected = framed + trie.end().div_ceil(8);
        if bytes.len() != expected {
            return Err(length(expected));
        }
        Ok(Self {
            bytes,
            groups,
            stream,
            cells,
            contexts,
            trie: PrefixTrie {
                stream,
                region: trie,
            },
            names,
            skl_bits,
        })
    }

    /// Number of labeled vertices.
    pub fn len(&self) -> usize {
        self.cells.count
    }

    /// True for the empty run.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The skeleton-pointer width the labels are accounted with.
    pub fn skl_bits(&self) -> usize {
        self.skl_bits
    }

    /// The cell of `v`: how many labeled vertices come before it.
    #[inline]
    fn rank(&self, v: VertexId) -> Option<usize> {
        let (word, before) = group(self.groups, v.0 as usize / 64)?;
        let bit = v.0 % 64;
        let below = (word & ((1 << bit) - 1)).count_ones() as usize;
        ((word >> bit) & 1 == 1).then_some(before + below)
    }

    /// Cell `r`, if there is one (a wrong rank can point past the last).
    #[inline]
    fn cell(&self, r: usize) -> Option<Cell> {
        (r < self.cells.count).then(|| self.cells.record(self.stream, r))
    }

    /// Context record `c`, if there is one.
    #[inline]
    fn context(&self, c: u64) -> Option<[u64; CONTEXT_FIELDS]> {
        let c = usize::try_from(c).ok()?;
        (c < self.contexts.count).then(|| self.contexts.record(self.stream, c))
    }

    /// A cell as the borrowed label it stands for: its context's prefix
    /// and its own entry. `None` for a context number or a prefix out of
    /// range, or an own entry that does not decode.
    #[inline]
    fn labeled(&self, cell: &Cell) -> Option<LabelRef<'a>> {
        let [prefix, index, kind, graph] = self.context(cell[CONTEXT])?;
        if prefix > self.trie.region.count as u64 {
            return None;
        }
        let last = EntryWord::from_codes(index, kind, graph, cell[VERTEX], cell[REC])?;
        Some(LabelRef::Sealed {
            trie: self.trie,
            prefix: prefix as u32,
            last,
        })
    }

    /// The name `cell` spells, or — for code 0 — the one the name table
    /// gives its own entry's spec vertex.
    #[inline]
    fn cell_name(&self, cell: &Cell) -> Option<NameId> {
        name_of(cell[NAME], cell[VERTEX], || self.graph_names(cell[CONTEXT]))
    }

    /// The names of the spec graph of context `c`'s own entry: `None`
    /// unless it reads as an `N` entry's of a graph the table has.
    #[inline(never)]
    fn graph_names(&self, c: u64) -> Option<&'a [NameId]> {
        let [_, _, kind, graph] = self.context(c)?;
        if kind != kind_code(NodeKind::N) {
            return None;
        }
        self.names.graph(GraphId(u32::try_from(graph).ok()?))
    }

    /// The module name `v` was published under.
    pub fn name(&self, v: VertexId) -> Option<NameId> {
        self.cell_name(&self.cell(self.rank(v)?)?)
    }

    /// The label of `v`, if the run labeled it.
    pub fn label(&self, v: VertexId) -> Option<LabelRef<'a>> {
        self.labeled(&self.cell(self.rank(v)?)?)
    }

    /// `u ; v`, or `None` unless both are labeled and read. Two cells of
    /// one context decide from their own entries, without a look at the
    /// trie, as two hot cells of one prefix slot do; any other pair
    /// climbs it ([`DrlPredicate::reaches_ref`]).
    #[inline]
    pub fn reach<S: SpecLabeling>(
        &self,
        predicate: &DrlPredicate<'_, S>,
        u: VertexId,
        v: VertexId,
    ) -> Option<bool> {
        let (a, b) = (self.cell(self.rank(u)?)?, self.cell(self.rank(v)?)?);
        let (la, lb) = (self.labeled(&a)?, self.labeled(&b)?);
        if a[CONTEXT] == b[CONTEXT] {
            return predicate.decide(la.last(), lb.last(), None, None);
        }
        predicate.reaches_ref(la, lb)
    }

    /// Every labeled vertex and its cell, in vertex order.
    fn cells(self) -> impl Iterator<Item = (VertexId, usize)> + Clone + 'a {
        (0..self.groups.len() / GROUP_LEN)
            .flat_map(move |g| {
                let (word, _) = group(self.groups, g).unwrap_or_default();
                (0..word.count_ones()).scan(word, move |word, _| {
                    let bit = word.trailing_zeros();
                    *word &= *word - 1;
                    Some(VertexId(g as u32 * 64 + bit))
                })
            })
            .enumerate()
            .map(|(r, v)| (v, r))
    }

    /// Every `(vertex, name)` whose name reads, in vertex order; no label
    /// is read but where a name is its spec vertex's.
    pub fn names(self) -> impl Iterator<Item = (VertexId, NameId)> + 'a {
        // Cells in vertex order meet one context many times in a row: its
        // graph's names are looked up once per run of it.
        // Only the fields a name needs are read.
        let mut last: (u64, Option<&'a [NameId]>) = (u64::MAX, None);
        self.cells().filter_map(move |(v, r)| {
            let field = |k| self.cells.field(self.stream, r, k);
            let name = name_of(field(NAME), field(VERTEX), || {
                let context = field(CONTEXT);
                if last.0 != context {
                    last = (context, self.graph_names(context));
                }
                last.1
            })?;
            Some((v, name))
        })
    }

    /// Every `(vertex, name, label)` that reads, in vertex order. No
    /// prefix is read until a label's trie path is climbed.
    pub fn iter(self) -> impl Iterator<Item = (VertexId, NameId, LabelRef<'a>)> + Clone + 'a {
        self.cells().filter_map(move |(v, r)| {
            let cell = self.cell(r)?;
            Some((v, self.cell_name(&cell)?, self.labeled(&cell)?))
        })
    }

    /// A validated owned copy (what decoding a segment does): beyond the
    /// framing, every rank counts the labels before its word, every trie
    /// record follows its parent one level below it and decodes, every
    /// context record names a prefix and decodes, and every cell names a
    /// context and its entry and name read — a corrupted arena is
    /// rejected here, not at query time.
    pub fn to_arena(&self) -> Result<LabelArena, ArenaError> {
        let mut before = 0;
        for g in 0..self.groups.len() / GROUP_LEN {
            let (word, rank) = group(self.groups, g).ok_or(ArenaError::Rank(g))?;
            if rank != before {
                return Err(ArenaError::Rank(g));
            }
            before += word.count_ones() as usize;
        }
        let nodes = self.trie.region.count;
        for r in 0..nodes {
            let reads = u32::try_from(r + 1).ok().and_then(|n| {
                let mut climb = self.trie.at(n)?;
                climb.word()?;
                climb.up()
            });
            if reads.is_none() {
                return Err(ArenaError::Trie(r));
            }
        }
        for c in 0..self.contexts.count {
            let [prefix, index, kind, graph] = self.contexts.record(self.stream, c);
            if prefix > nodes as u64 || EntryWord::from_codes(index, kind, graph, 0, 0).is_none() {
                return Err(ArenaError::Context(c));
            }
        }
        for (v, r) in self.cells() {
            let cell = self.cell(r).ok_or(ArenaError::Label(v))?;
            if self.labeled(&cell).is_none() || self.cell_name(&cell).is_none() {
                return Err(ArenaError::Label(v));
            }
        }
        Ok(LabelArena {
            bytes: self.bytes.into(),
            skl_bits: self.skl_bits,
        })
    }
}

/// The name a cell's name code and own vertex give: the code spelled
/// out, or for code 0 the vertex's name among `graph`'s names — those of
/// its own entry's spec graph.
#[inline]
fn name_of<'n>(
    code: u64,
    vertex: u64,
    graph: impl FnOnce() -> Option<&'n [NameId]>,
) -> Option<NameId> {
    if let Some(name) = code.checked_sub(1) {
        return u32::try_from(name).ok().map(NameId);
    }
    let name = *graph()?.get(usize::try_from(vertex).ok()?)?;
    (name != NO_NAME).then_some(name)
}

/// Presence word `g` of `groups` and the number of labeled vertices
/// before it.
#[inline]
fn group(groups: &[u8], g: usize) -> Option<(u64, usize)> {
    let b = groups.get(g * GROUP_LEN..)?.get(..GROUP_LEN)?;
    let word = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
    let before = u32::from_le_bytes(b[8..].try_into().expect("4 bytes"));
    Some((word, before as usize))
}

/// Number of labeled vertices: the last word's rank plus its bits.
fn labeled_count(groups: &[u8]) -> usize {
    let last = (groups.len() / GROUP_LEN).checked_sub(1);
    last.and_then(|g| group(groups, g))
        .map_or(0, |(word, before)| before + word.count_ones() as usize)
}

/// **Run-level framing**: every label of one completed run in one label
/// arena (see the module docs for the layout) — the static end state of
/// the paper's dynamic scheme, where each prefix entry is kept once and
/// a label is one fixed-width cell naming its context.
///
/// Compared to the in-memory labels it trades one pointer-free,
/// cache-friendly buffer against a few field loads per entry read, which
/// is exactly the trade a tiering policy wants to make for runs that
/// stopped growing. It only *owns* the bytes: reads go through
/// [`Self::view`], the same [`ArenaRef`] a segment's frame hands out, so
/// a snapshot is a straight copy of the buffer.
#[derive(Debug, Clone)]
pub struct LabelArena {
    bytes: Box<[u8]>,
    skl_bits: usize,
}

/// The codes a record stores of entry `word`.
///
/// # Panics
/// On a shape no labeler issues: an `N` entry without a skeleton
/// pointer, a special entry with one or with rec flags.
fn entry_codes(word: EntryWord) -> [u64; 5] {
    word.codes().expect("entries a labeler issues")
}

/// The records a builder has met, numbered in order, and the last one
/// asked for (labels in vertex order meet one context many times in a
/// row).
struct Numbered<K, const N: usize> {
    number: HashMap<K, u32>,
    last: Option<(K, u32)>,
    rows: Vec<[u64; N]>,
    max: [u64; N],
}

impl<K, const N: usize> Default for Numbered<K, N> {
    fn default() -> Self {
        Self {
            number: HashMap::new(),
            last: None,
            rows: Vec::new(),
            max: [0; N],
        }
    }
}

/// Append a record to `rows`, raising each field's `max`; its number.
fn push<const N: usize>(rows: &mut Vec<[u64; N]>, max: &mut [u64; N], fields: [u64; N]) -> u32 {
    for (max, &f) in max.iter_mut().zip(&fields) {
        *max = (*max).max(f);
    }
    rows.push(fields);
    u32::try_from(rows.len() - 1).expect("under 2^32 records")
}

/// The width of a field whose largest value is `max`.
fn widths<const N: usize>(max: [u64; N]) -> [u8; N] {
    max.map(|m| (u64::BITS - m.leading_zeros()) as u8)
}

impl<K: std::hash::Hash + Eq + Copy, const N: usize> Numbered<K, N> {
    /// The number of the record `key` names, `fields` appended when it
    /// is new.
    fn get(&mut self, key: K, fields: impl FnOnce() -> [u64; N]) -> u32 {
        if let Some((last, n)) = self.last {
            if last == key {
                return n;
            }
        }
        let (number, rows, max) = (&mut self.number, &mut self.rows, &mut self.max);
        let n = *number
            .entry(key)
            .or_insert_with(|| push(rows, max, fields()));
        self.last = Some((key, n));
        n
    }
}

impl LabelArena {
    /// Encode every `(vertex, name, label)`, in strictly increasing
    /// vertex order, into one arena, numbering records as the module docs
    /// say: each distinct prefix — by the address the label borrows it
    /// from, so an array (or a sealed prefix) that many labels share is
    /// walked once — is inserted into the trie root first, then the
    /// label's context and cell are noted with each field's largest
    /// value, and the regions are written at those widths. A name that is
    /// its own entry's spec vertex's in `names` is written as code 0.
    /// `skl_bits` must match the labeler's ([`crate::SpecTables::skl_bits`]).
    ///
    /// # Panics
    /// On a vertex out of order or of id `u32::MAX`, on an entry no
    /// labeler issues ([`EntryWord`]'s codes hold none), or on a sealed
    /// label whose prefix does not read.
    pub fn build<'a, I>(skl_bits: usize, names: &NameTable, labels: I) -> Self
    where
        I: Iterator<Item = (VertexId, NameId, LabelRef<'a>)>,
    {
        let mut prefixes: HashMap<(usize, u32), u32> = HashMap::new();
        let mut last_prefix = None;
        // The last prefix inserted: each entry's bits and its number.
        let mut path: Vec<(u64, u32)> = Vec::new();
        let mut trie: Numbered<(u32, u64), TRIE_FIELDS> = Numbered::default();
        let mut contexts: Numbered<[u64; CONTEXT_FIELDS], CONTEXT_FIELDS> = Numbered::default();
        let (mut cells, mut cell_max) = (Vec::new(), [0; CELL_FIELDS]);
        let mut words = Vec::new();
        let mut span = 0u32;
        for (v, name, label) in labels {
            assert!(v.0 >= span, "labels arrive in increasing vertex order");
            span = v.0.checked_add(1).expect("vertex ids below u32::MAX");
            let key = label.prefix_key();
            let prefix = match last_prefix {
                Some((last, n)) if last == key => n,
                _ => *prefixes.entry(key).or_insert_with(|| {
                    let words = label.prefix_words().expect("sealed prefixes that read");
                    // The entries it shares with the prefix inserted last
                    // are the same records; the rest are looked up.
                    let shared = path
                        .iter()
                        .zip(words.iter())
                        .take_while(|((bits, _), word)| *bits == word.bits())
                        .count();
                    path.truncate(shared);
                    for (&word, depth) in words[shared..].iter().zip(shared as u64 + 1..) {
                        let parent = path.last().map_or(0, |&(_, n)| n);
                        let n = trie.get((parent, word.bits()), || {
                            let [index, kind, graph, vertex, rec] = entry_codes(word);
                            [parent.into(), depth, index, kind, graph, vertex, rec]
                        });
                        path.push((word.bits(), n + 1));
                    }
                    path.last().map_or(0, |&(_, n)| n)
                }),
            };
            last_prefix = Some((key, prefix));
            let last = label.last();
            let [index, kind, graph, vertex, rec] = entry_codes(last);
            let key = [prefix.into(), index, kind, graph];
            let context = contexts.get(key, || key);
            let spelled = last.skl().and_then(|(g, v)| names.get(g, v)) != Some(name);
            let code = if spelled { u64::from(name.0) + 1 } else { 0 };
            push(
                &mut cells,
                &mut cell_max,
                [context.into(), vertex, rec, code],
            );
            let group = v.0 as usize / 64;
            words.resize(group + 1, 0u64);
            words[group] |= 1 << (v.0 % 64);
        }
        words.resize((span as usize).div_ceil(64), 0);
        let count = |n: usize| u32::try_from(n).expect("under 2^32 records").to_le_bytes();
        let mut bytes = Vec::with_capacity(LAYOUT_LEN + words.len() * GROUP_LEN);
        bytes.extend_from_slice(&span.to_le_bytes());
        bytes.extend_from_slice(&count(contexts.rows.len()));
        bytes.extend_from_slice(&count(trie.rows.len()));
        let (cell_w, context_w, trie_w) =
            (widths(cell_max), widths(contexts.max), widths(trie.max));
        bytes.extend(cell_w.iter().chain(&context_w).chain(&trie_w));
        let mut before = 0u32;
        for word in words {
            bytes.extend_from_slice(&word.to_le_bytes());
            bytes.extend_from_slice(&before.to_le_bytes());
            before += word.count_ones();
        }
        let mut stream = BitWriter::new();
        // A record of at most 64 bits is pushed as one word.
        let mut write = |rows: &[u64], widths: &[u8]| {
            let bits: usize = widths.iter().map(|&w| usize::from(w)).sum();
            for row in rows.chunks(widths.len()) {
                let fields = row.iter().zip(widths);
                if bits <= 64 {
                    let (word, _) =
                        fields.fold((0, 0), |(word, at), (&f, &w)| (word | f << at, at + w));
                    stream.push_bits(word, bits);
                } else {
                    fields.for_each(|(&f, &w)| stream.push_bits(f, usize::from(w)));
                }
            }
        };
        write(cells.as_flattened(), &cell_w);
        write(contexts.rows.as_flattened(), &context_w);
        write(trie.rows.as_flattened(), &trie_w);
        bytes.extend_from_slice(&stream.into_bytes());
        Self {
            bytes: bytes.into_boxed_slice(),
            skl_bits,
        }
    }

    /// The reader over this arena's bytes, naming through `names`.
    pub fn view<'a>(&'a self, names: &'a NameTable) -> ArenaRef<'a> {
        ArenaRef::new(&self.bytes, self.skl_bits, names)
            .expect("an arena is built or validated before it is owned")
    }

    /// Number of labeled vertices.
    pub fn len(&self) -> usize {
        self.view(&NameTable::default()).len()
    }

    /// True for the empty run.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The skeleton-pointer width the labels are accounted with.
    pub fn skl_bits(&self) -> usize {
        self.skl_bits
    }

    /// The arena's bytes: its whole footprint, and what a segment blob
    /// carries between its header and its checksum.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;
    use crate::label::DrlLabel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_run::RunGenerator;
    use wf_skeleton::TclSpecLabels;

    /// The labels of one run, as its labeler issued them, in vertex
    /// order, with the names the run gave its vertices.
    fn labeled_run(seed: u64, size: usize) -> (usize, Vec<(VertexId, NameId, DrlLabel)>) {
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let run = RunGenerator::new(&spec)
            .target_size(size)
            .generate_run(&mut StdRng::seed_from_u64(seed));
        let mut labeler = crate::DerivationLabeler::new(&spec, &skeleton);
        for step in run.derivation.steps() {
            labeler.apply(step).unwrap();
        }
        let labels = run
            .graph
            .vertices()
            .map(|v| (v, run.graph.name(v), labeler.label(v).unwrap().clone()))
            .collect();
        (labeler.skl_bits(), labels)
    }

    #[test]
    fn arena_roundtrips_a_whole_run() {
        let spec = wf_spec::corpus::running_example();
        let names = NameTable::new(&spec);
        let (skl_bits, labels) = labeled_run(99, 200);
        // Every fifth vertex under a name of its own: spelled out.
        let renamed = |v: VertexId, name: NameId| {
            if v.0.is_multiple_of(5) {
                NameId(1000 + v.0)
            } else {
                name
            }
        };
        let labeled = labels
            .iter()
            .map(|(v, name, label)| (*v, renamed(*v, *name), label.view()));
        let arena = LabelArena::build(skl_bits, &names, labeled.clone());
        let view = arena.view(&names);
        assert_eq!(arena.len(), labels.len());
        let get = |a: ArenaRef<'_>, v| a.label(v).and_then(LabelRef::to_label);
        for (v, name, label) in &labels {
            assert_eq!(get(view, *v).as_ref(), Some(label), "{v:?}");
            assert_eq!(view.name(*v), Some(renamed(*v, *name)));
        }
        assert!(view.label(VertexId(1 << 30)).is_none());
        assert!(view.label(VertexId(labels.len() as u32 + 1)).is_none());
        // iter and names are vertex-ordered and complete.
        assert!(view.iter().map(|(v, n, _)| (v, n)).eq(view.names()));
        assert!(view
            .names()
            .map(|(v, _)| v)
            .eq(labels.iter().map(|(v, ..)| *v)));
        // Fewer trie records and contexts than labels, and a label of a
        // few bytes.
        let records = |at: usize| u32::from_le_bytes(arena.bytes()[at..at + 4].try_into().unwrap());
        let (contexts, trie) = (records(4) as usize, records(8) as usize);
        assert!(contexts * 3 < labels.len() * 2, "{contexts} contexts");
        assert!(trie * 2 < labels.len(), "{trie} trie records");
        assert!(
            arena.bytes().len() < 6 * labels.len(),
            "{} B",
            arena.bytes().len()
        );
        // Without the spec's names every name is spelled out, and reads
        // back all the same.
        let bare = NameTable::default();
        let spelled = LabelArena::build(skl_bits, &bare, labeled.clone());
        assert!(spelled.view(&bare).names().eq(view.names()));
        // A validated copy of the raw bytes (what a disk snapshot does).
        let back = ArenaRef::new(arena.bytes(), skl_bits, &names)
            .unwrap()
            .to_arena()
            .unwrap();
        assert_eq!(back.bytes(), arena.bytes());
        // Built again from its own sealed labels: the same bytes.
        let again = LabelArena::build(skl_bits, &names, view.iter());
        assert_eq!(again.bytes(), arena.bytes());
        // The labels must come in vertex order.
        let reversed: Vec<_> = labeled.rev().collect();
        let unsorted = std::panic::catch_unwind(|| {
            LabelArena::build(skl_bits, &NameTable::default(), reversed.into_iter())
        });
        assert!(unsorted.is_err());
    }

    /// An engine's names cost nothing: every name a run gives its
    /// vertices is its spec vertex's, so the name field is 0 bits wide.
    #[test]
    fn a_spec_vertex_name_costs_no_bits() {
        let spec = wf_spec::corpus::running_example();
        let names = NameTable::new(&spec);
        let (skl_bits, labels) = labeled_run(7, 120);
        let arena = LabelArena::build(
            skl_bits,
            &names,
            labels.iter().map(|(v, n, l)| (*v, *n, l.view())),
        );
        assert_eq!(arena.bytes()[12 + NAME], 0, "name width");
        let view = arena.view(&names);
        assert!(view.names().eq(labels.iter().map(|(v, n, _)| (*v, *n))));
        // Read through another table, the code-0 names do not read.
        assert_eq!(arena.view(&NameTable::default()).names().count(), 0);
        let bare = NameTable::default();
        let other = ArenaRef::new(arena.bytes(), skl_bits, &bare).unwrap();
        assert!(matches!(other.to_arena(), Err(ArenaError::Label(_))));
        assert_eq!(names.get(GraphId(0), VertexId(1 << 20)), None);
        assert_eq!(names.get(GraphId(1 << 15), VertexId(0)), None);
    }

    /// The framing is checked in constant time; the validating copy
    /// checks every rank, record and label; the unvalidated reader
    /// answers whatever the bytes say without panicking.
    #[test]
    fn validated_copy_rejects_corruption() {
        let label = DrlLabel::new(vec![
            Entry {
                index: 0,
                kind: NodeKind::N,
                skl: Some((GraphId(0), VertexId(1))),
                rec: None,
            },
            Entry::special(1, NodeKind::L),
            Entry {
                index: 3,
                kind: NodeKind::N,
                skl: Some((GraphId(1), VertexId(2))),
                rec: None,
            },
        ]);
        let names = NameTable::default();
        let labels =
            [VertexId(0), VertexId(64), VertexId(130)].map(|v| (v, NameId(v.0), label.view()));
        let arena = LabelArena::build(4, &names, labels.into_iter());
        let bytes = arena.bytes();
        let reader = |bytes| ArenaRef::new(bytes, 4, &names);
        assert!(reader(bytes).unwrap().to_arena().is_ok());
        // Every truncation and every extension breaks the framing.
        for cut in 0..bytes.len() {
            assert!(matches!(
                reader(&bytes[..cut]),
                Err(ArenaError::Length { .. })
            ));
        }
        let long = [bytes, &[0]].concat();
        assert!(matches!(reader(&long), Err(ArenaError::Length { .. })));
        // A width no field has.
        let mut wide = bytes.to_vec();
        wide[LAYOUT_LEN - 1] = MAX_WIDTH + 1;
        assert_eq!(reader(&wide).unwrap_err(), ArenaError::Width(MAX_WIDTH + 1));
        // A wrong rank short of the last word (whose rank sizes the
        // cells): the framing holds, the validating copy refuses.
        let mut ranked = bytes.to_vec();
        ranked[LAYOUT_LEN + GROUP_LEN + 8] = 5;
        let r = reader(&ranked).unwrap();
        assert_eq!(r.to_arena().unwrap_err(), ArenaError::Rank(1));
        for v in [0, 64, 130] {
            let _ = r.label(VertexId(v)).map(|l| l.to_label());
        }
        // The trie records: two, root first, each naming its parent.
        let view = reader(bytes).unwrap();
        assert_eq!(view.trie.region.count, 2);
        let set = |bytes: &mut [u8], r: usize, k: usize, value: u64| {
            let region = &view.trie.region;
            let at = 8 * (bytes.len() - view.stream.len()) + region.start;
            let at = at + r * usize::from(region.bits);
            let at = at + usize::from(region.at[k]);
            for i in 0..usize::from(region.width[k]) {
                let bit = at + i;
                bytes[bit / 8] &= !(1 << (bit % 8));
                bytes[bit / 8] |= ((value >> i & 1) as u8) << (bit % 8);
            }
        };
        // A parent not below its child, a depth its parent does not
        // give, a kind whose entry carries a pointer it may not: each
        // leaves the labels unreadable and the copy refused.
        for (r, k, value) in [(1, PARENT, 0), (1, DEPTH, 1), (0, ENTRY + 1, 1)] {
            let mut broken = bytes.to_vec();
            set(&mut broken, r, k, value);
            let reader = ArenaRef::new(&broken, 4, &names).unwrap();
            assert_eq!(
                reader.to_arena().err(),
                Some(ArenaError::Trie(r)),
                "field {k}"
            );
            assert!(reader.label(VertexId(0)).unwrap().to_label().is_none());
        }
    }
}
