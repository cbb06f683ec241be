package fptree

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/document"
	"repro/internal/symbol"
)

// The FP-tree is stored as a flat, slice-backed arena instead of a
// pointer-linked node graph (ROADMAP item 2; Shahvarani & Jacobsen's
// multicore index-join is the blueprint). Node fields live in parallel
// structs-of-arrays indexed by a dense node ID (0 is the root), so a
// probe walks contiguous memory instead of chasing heap pointers:
//
//	syms[id]    the node's attribute-value symbol (packed uint64)
//	parents[id] parent node ID (-1 for the root)
//	depths[id]  root distance
//	branch[id]  unique branch id (creation order; survives snapshots)
//	docs[id]    document ids whose reordered pair sequence ends here
//	kids[id]    child edges, each carrying the child's label symbol
//	            inline next to its node ID so pruning scans one
//	            contiguous span without touching the child nodes.
//	            Edges are grouped by attribute: children sharing an
//	            attribute form one contiguous run, runs ordered by
//	            first appearance — the same grouping the pointer tree
//	            kept in its attrGroup lists
//
// The paper's header table is not stored: Algorithms 2 and 3 never
// follow its chains, so an insert would pay one map write per node for
// a structure nothing on the probe path reads (HeaderChainLen derives
// the count by scanning the arena).
//
// kids and docs slices are carved from two tree-owned slabs that Reset
// rewinds, so a steady-state window allocates nothing per node.
//
// Node labels are stored only as interned symbols; the canonical
// strings (for Dump, DocPath and snapshots) are resolved back through
// the symbol tables on demand instead of being duplicated per node.
//
// Exact-label child lookup scans the span when the fanout is small and
// otherwise goes through one tree-wide hash map keyed by
// (parent, symbol.Pair) — the already-dense packed pair — replacing the
// per-node group scan plus per-group value map of the pointer layout.
// The map holds only the children of parents whose span outgrew
// spanScanMax: a span is indexed whole when it crosses the threshold.
// Traversal no longer recurses: the prober walks an explicit frame stack,
// so degenerate chain-shaped trees cannot grow the goroutine stack.
type Tree struct {
	order *Order

	// Flat node arena; index 0 is the root.
	syms    []symbol.Pair
	parents []int32
	depths  []int32
	branch  []int32
	docs    [][]uint64
	kids    [][]edge

	edgeSlab slab[edge]
	docSlab  slab[uint64]

	childIdx map[childKey]int32

	docCount   int
	attrCounts []int // documents containing each attribute, indexed by attribute symbol ID
	nextBranch int
	maxDepth   int

	// symEpoch is the symbol-table epoch the tree's IDs belong to. A
	// symbol.Reset under a live tree would silently re-key everything,
	// so the tree recaptures the epoch only while empty and panics
	// otherwise (Reset is documented quiesce-only).
	symEpoch uint64

	// Cached NumUbiquitous; invalidated by Insert and Reset.
	numUbiq   int
	ubiqValid bool

	// prober is the tree-owned probe context backing JoinPartners.
	prober prober

	// Insert scratch: packed (rank, position) sort keys, reused.
	arrKeys []uint64

	// Scratch backing JoinPartners' caller-owned copies.
	scratch []uint64
}

// edge is one child link: the child's label symbol stored inline so
// span scans never dereference the child, plus the child's node ID.
type edge struct {
	sym symbol.Pair
	id  int32
}

// childKey addresses one edge of the tree: the parent's dense node ID
// plus the child's packed label symbol.
type childKey struct {
	parent int32
	sym    symbol.Pair
}

// spanScanMax is the fanout up to which exact-child lookup scans the
// contiguous edge span instead of hashing into the tree-wide child
// index; small spans fit in one or two cache lines.
const spanScanMax = 8

// New creates an empty FP-tree using the given global attribute order.
func New(order *Order) *Tree {
	if order == nil {
		order = EmptyOrder()
	}
	t := &Tree{
		order:    order,
		childIdx: make(map[childKey]int32),
		symEpoch: symbol.Epoch(),
	}
	t.initRoot()
	t.prober.t = t
	return t
}

// initRoot seeds the arena with the root node at index 0, reusing any
// capacity the slices already hold.
func (t *Tree) initRoot() {
	t.syms = append(t.syms[:0], 0)
	t.parents = append(t.parents[:0], -1)
	t.depths = append(t.depths[:0], 0)
	t.branch = append(t.branch[:0], 0)
	t.docs = append(t.docs[:0], nil)
	t.kids = append(t.kids[:0], nil)
	t.edgeSlab.rewind()
	t.docSlab.rewind()
}

// Build constructs a tree over a whole batch, deriving the attribute
// ordering from the batch itself (paper Table I / Fig. 4 procedure).
func Build(docs []document.Document) *Tree {
	t := New(NewOrderFromDocs(docs))
	for _, d := range docs {
		t.Insert(d)
	}
	return t
}

// Order exposes the tree's attribute ordering.
func (t *Tree) Order() *Order { return t.order }

// DocCount reports the number of inserted documents.
func (t *Tree) DocCount() int { return t.docCount }

// NodeCount reports the number of nodes excluding the root.
func (t *Tree) NodeCount() int { return len(t.syms) - 1 }

// MaxDepth reports the longest root-to-leaf path length.
func (t *Tree) MaxDepth() int { return t.maxDepth }

// MemBytes estimates the tree's resident heap footprint in O(1) from
// the arena counters: every node costs its arena slots (label symbol,
// parent/depth/branch int32s, docs and kids slice headers); edge spans
// and document-id lists cost what they carved from the slabs (regions
// abandoned when a span doubled included — they are held until Reset);
// every child-index entry costs one map slot. The constants approximate
// Go's 64-bit layout — the memory governor needs a stable estimate it
// can read on every admission, not allocator truth. Capacity the arena
// and the slabs keep across Reset is not charged: it is not window
// state, and charging it would give an empty tree a floor the governor
// can never spill or tumble away.
func (t *Tree) MemBytes() int64 {
	const (
		nodeBytes   = 8 + 4 + 4 + 4 + 24 + 24 // syms+parents+depths+branch+docs hdr+kids hdr
		edgeBytes   = 16                      // sym + id, padded
		childIdxEnt = 40                      // childKey + int32 value, padded, at the map's load factor
		docIDBytes  = 8
	)
	n := int64(len(t.syms)) * nodeBytes // root included: it owns arena slots too
	n += int64(t.edgeSlab.used) * edgeBytes
	n += int64(t.docSlab.used) * docIDBytes
	n += int64(len(t.childIdx)) * childIdxEnt
	n += int64(len(t.attrCounts)) * 8
	return n
}

// pairOf resolves a node's canonical string pair from its symbol.
func (t *Tree) pairOf(n int32) document.Pair {
	a, v := symbol.PairStrings(t.syms[n])
	return document.Pair{Attr: a, Val: v}
}

// docSyms returns d's pair symbols under the current epoch, verifying
// that the tree's own indexes are not stale. The epoch can legally move
// only while the tree is empty (symbol.Reset is quiesce-only); all
// per-ID state is restarted then.
func (t *Tree) docSyms(d document.Document) []symbol.Pair {
	if e := symbol.Epoch(); e != t.symEpoch {
		if t.docCount != 0 || t.NodeCount() != 0 {
			panic("fptree: symbol epoch changed under a live tree (symbol.Reset is quiesce-only)")
		}
		t.symEpoch = e
		t.attrCounts = nil
		t.prober.dropScratch()
	}
	t.order.sync()
	return d.InternedPairs()
}

// arrange fills t.arrKeys with packed (rank<<32 | position) sort keys
// for d's pairs and sorts them, yielding the global-order arrangement
// as a permutation over the document's own pair slice — no physical
// reordering, no reflection in the sort. Ranks are unique per
// attribute, so the trailing position bits never decide the order
// between distinct attributes.
func (t *Tree) arrange(syms []symbol.Pair, pairs []document.Pair) {
	t.arrKeys = t.arrKeys[:0]
	for k := range syms {
		rank := uint64(uint32(t.order.rankOfSym(syms[k].Attr(), pairs[k].Attr)))
		t.arrKeys = append(t.arrKeys, rank<<32|uint64(k))
	}
	slices.Sort(t.arrKeys)
}

// child returns the node labeled s under parent, or -1. Small spans
// are scanned in place; larger ones hit the tree-wide child index.
func (t *Tree) child(parent int32, s symbol.Pair) int32 {
	ks := t.kids[parent]
	if len(ks) <= spanScanMax {
		for i := range ks {
			if ks[i].sym == s {
				return ks[i].id
			}
		}
		return -1
	}
	if id, ok := t.childIdx[childKey{parent, s}]; ok {
		return id
	}
	return -1
}

// addChild appends a fresh node labeled s under parent with the next
// branch id.
func (t *Tree) addChild(parent int32, s symbol.Pair) int32 {
	t.nextBranch++
	return t.newNode(parent, s, int32(t.nextBranch))
}

// newNode appends a node to the arena, keeping the parent's edge span
// grouped by attribute: the new child lands at the end of its
// attribute's run when one exists, or opens a new run at the end
// (first-appearance group order, insertion order within).
func (t *Tree) newNode(parent int32, s symbol.Pair, branchID int32) int32 {
	id := int32(len(t.syms))
	t.syms = append(t.syms, s)
	t.parents = append(t.parents, parent)
	depth := t.depths[parent] + 1
	t.depths = append(t.depths, depth)
	t.branch = append(t.branch, branchID)
	t.docs = append(t.docs, nil)
	t.kids = append(t.kids, nil)

	// Splice into the parent's grouped edge span. Scanning from the
	// back finds the run end cheaply in the common case where the
	// node's largest group is also its newest.
	ks := t.kids[parent]
	attr := s.Attr()
	insertAt := len(ks)
	for i := len(ks) - 1; i >= 0; i-- {
		if ks[i].sym.Attr() == attr {
			insertAt = i + 1
			break
		}
	}
	ks = t.edgeSlab.grow(ks)
	copy(ks[insertAt+1:], ks[insertAt:])
	ks[insertAt] = edge{sym: s, id: id}
	t.kids[parent] = ks

	// child() scans spans up to spanScanMax and never consults the
	// index for them, so a span is indexed whole when it outgrows the
	// scan and entry by entry from then on.
	switch {
	case len(ks) == spanScanMax+1:
		for _, e := range ks {
			t.childIdx[childKey{parent, e.sym}] = e.id
		}
	case len(ks) > spanScanMax+1:
		t.childIdx[childKey{parent, s}] = id
	}

	if int(depth) > t.maxDepth {
		t.maxDepth = int(depth)
	}
	return id
}

// Insert adds a document to the tree: its pairs are arranged by the
// global ordering, the shared prefix path is reused, new nodes extend
// it, and the document id is recorded at the terminal node.
func (t *Tree) Insert(d document.Document) {
	syms := t.docSyms(d)
	t.arrange(syms, d.Pairs())
	cur := int32(0)
	for _, key := range t.arrKeys {
		s := syms[uint32(key)]
		child := t.child(cur, s)
		if child < 0 {
			child = t.addChild(cur, s)
		}
		cur = child
	}
	ds := t.docSlab.grow(t.docs[cur])
	ds[len(ds)-1] = d.ID
	t.docs[cur] = ds
	t.docCount++
	for _, s := range syms {
		a := s.Attr()
		if int(a) >= len(t.attrCounts) {
			t.attrCounts = growInts(t.attrCounts, int(a)+1)
		}
		t.attrCounts[a]++
	}
	t.ubiqValid = false
}

func growInts(s []int, n int) []int {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

// NumUbiquitous returns the number of leading attributes of the global
// order that are present in every document currently stored. These
// occupy the first levels of the tree and enable the FPTreeJoin fast
// path (paper Sec. V-B). The count is cached between inserts.
func (t *Tree) NumUbiquitous() int {
	if t.ubiqValid {
		return t.numUbiq
	}
	n := 0
	if t.docCount > 0 {
		t.order.sync()
		for j := 0; j < t.order.Len(); j++ {
			a := t.order.idAt(j)
			if int(a) >= len(t.attrCounts) || t.attrCounts[a] != t.docCount {
				break
			}
			n++
		}
	}
	t.numUbiq, t.ubiqValid = n, true
	return n
}

// JoinPartners implements FPTreeJoin (Algorithm 2): it returns the ids
// of every stored document joinable with d. The first NumUbiquitous
// levels are navigated directly via the equally-labeled child — all
// sibling branches conflict with d on a shared attribute and are pruned
// wholesale — after which the traversal (Algorithm 3) walks the
// remaining subtree, pruning on conflicts and collecting document ids
// once at least one attribute-value pair is shared.
//
// The returned slice is freshly allocated and owned by the caller; it
// survives subsequent probes. Hot paths that reuse a buffer call
// JoinPartnersAppend instead.
func (t *Tree) JoinPartners(d document.Document) []uint64 {
	t.scratch = t.JoinPartnersAppend(t.scratch[:0], d)
	if len(t.scratch) == 0 {
		return nil
	}
	return append([]uint64(nil), t.scratch...)
}

// JoinPartnersAppend is JoinPartners appending into dst, for callers
// that manage their own result buffers.
func (t *Tree) JoinPartnersAppend(dst []uint64, d document.Document) []uint64 {
	if t.docCount == 0 {
		return dst
	}
	syms := t.docSyms(d)
	return t.prober.joinPartners(dst, d.ID, syms)
}

func appendExcluding(dst []uint64, src []uint64, exclude uint64) []uint64 {
	if need := len(dst) + len(src); need > cap(dst) {
		grown := make([]uint64, len(dst), need+need/2)
		copy(grown, dst)
		dst = grown
	}
	for _, id := range src {
		if id != exclude {
			dst = append(dst, id)
		}
	}
	return dst
}

// HeaderChainLen returns the number of nodes labeled with p — the
// length of p's chain in the paper's header table (diagnostic; linear
// in tree size, like DocPath: the chains themselves are not stored).
func (t *Tree) HeaderChainLen(p document.Pair) int {
	s, ok := symbol.LookupPair(p.Attr, p.Val)
	if !ok {
		return 0
	}
	n := 0
	for _, ns := range t.syms[1:] {
		if ns == s {
			n++
		}
	}
	return n
}

// DocPath returns the reordered pair sequence of the branch holding
// document id, or nil if the id is not stored (diagnostic; linear in
// tree size). The arena makes the search a flat scan — no walk at all.
func (t *Tree) DocPath(id uint64) []document.Pair {
	found := int32(-1)
	for n := 1; n < len(t.docs) && found < 0; n++ {
		for _, d := range t.docs[n] {
			if d == id {
				found = int32(n)
				break
			}
		}
	}
	if found < 0 {
		return nil
	}
	path := make([]document.Pair, 0, t.depths[found])
	for cur := found; cur > 0; cur = t.parents[cur] {
		path = append(path, t.pairOf(cur))
	}
	// Reverse to root-first order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Dump renders the tree structure for debugging, one node per line.
// The walk is iterative; output is identical to the pointer layout's
// recursive dump.
func (t *Tree) Dump() string {
	var b strings.Builder
	b.WriteString("root\n")
	type frame struct {
		node   int32
		indent int
	}
	var stack []frame
	ks := t.kids[0]
	for i := len(ks) - 1; i >= 0; i-- {
		stack = append(stack, frame{ks[i].id, 1})
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b.WriteString(strings.Repeat("  ", f.indent))
		fmt.Fprintf(&b, "%s docs=%v branch=%d\n", t.pairOf(f.node), t.docs[f.node], t.branch[f.node])
		ks := t.kids[f.node]
		for i := len(ks) - 1; i >= 0; i-- {
			stack = append(stack, frame{ks[i].id, f.indent + 1})
		}
	}
	return b.String()
}

// Reset evicts the entire tree, matching the paper's tumbling-window
// semantics ("evict the entire tree once the window tumbles"), while
// keeping the attribute ordering — and bounded scratch buffers — in
// place. Arena slices are truncated and the slabs rewound, both keeping
// their capacity (bounded by the largest window seen); oversized probe
// scratch is released so a long-lived joiner does not leak scratch
// across windows and symbol epochs.
func (t *Tree) Reset() {
	t.initRoot()
	clear(t.childIdx)
	// Truncate rather than zero: the slice is indexed by global
	// attribute symbol ID, so its length tracks the whole process's
	// symbol space, not this window. Keeping it full-length would give
	// an empty tree a permanent MemBytes floor the memory governor can
	// never spill or tumble away. Entries regrow on demand at insert.
	t.attrCounts = t.attrCounts[:0]
	t.docCount = 0
	t.nextBranch = 0
	t.maxDepth = 0
	t.ubiqValid = false
	t.prober.releaseOversized()
	if cap(t.scratch) > maxRetainedScratch {
		t.scratch = nil
	}
	// Stale probe marks cannot collide after the tree refills: a mark
	// only matches the current stamp, which is bumped on every probe.
}
