package fptree

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"repro/internal/symbol"
)

// Snapshot / Restore implement the operator-state contract
// (internal/state.Snapshotter) for the FP-tree. The serialized form is
// symbol-aware: node labels and the attribute order travel as strings
// and are re-interned on restore, so a snapshot taken in one process
// (or symbol epoch) rebuilds an equivalent tree in another. The wire
// format predates the flat arena layout and is unchanged by it:
// snapshots written by the pointer tree restore into the arena and
// vice versa.
//
// The encoding preserves everything JoinPartners' traversal order
// depends on — attribute-group order, child order within a group, the
// per-node document id order, and branch ids — so a restored tree
// yields byte-identical JoinPartners results.

// treeGob is the wire form of a Tree.
type treeGob struct {
	Attrs      []string  // global attribute order, rank order
	Nodes      []nodeGob // pre-order: parents precede children, sibling order preserved
	DocCount   int
	MaxDepth   int
	AttrCounts []attrCountGob // sorted by attribute name
}

// nodeGob is the wire form of one tree node.
type nodeGob struct {
	Parent   int // index into Nodes; -1 = child of the root
	Attr     string
	Val      string
	BranchID int
	Docs     []uint64
}

type attrCountGob struct {
	Attr  string
	Count int
}

// Snapshot writes the tree's complete state to w. The pre-order walk
// is iterative (explicit stack), like every other arena traversal.
func (t *Tree) Snapshot(w io.Writer) error {
	g := treeGob{
		Attrs:    append([]string(nil), t.order.Attrs()...),
		DocCount: t.docCount,
		MaxDepth: t.maxDepth,
	}
	g.Nodes = make([]nodeGob, 0, t.NodeCount())
	type sframe struct {
		node      int32
		parentIdx int
	}
	var stack []sframe
	ks := t.kids[0]
	for i := len(ks) - 1; i >= 0; i-- {
		stack = append(stack, sframe{ks[i].id, -1})
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		idx := len(g.Nodes)
		attr, val := symbol.PairStrings(t.syms[f.node])
		g.Nodes = append(g.Nodes, nodeGob{
			Parent:   f.parentIdx,
			Attr:     attr,
			Val:      val,
			BranchID: int(t.branch[f.node]),
			Docs:     t.docs[f.node],
		})
		ks := t.kids[f.node]
		for i := len(ks) - 1; i >= 0; i-- {
			stack = append(stack, sframe{ks[i].id, idx})
		}
	}
	// Attribute counts keyed by name (IDs are epoch-local), sorted so
	// the snapshot bytes are deterministic.
	for id, cnt := range t.attrCounts {
		if cnt != 0 {
			g.AttrCounts = append(g.AttrCounts, attrCountGob{Attr: symbol.AttrString(symbol.ID(id)), Count: cnt})
		}
	}
	sort.Slice(g.AttrCounts, func(i, j int) bool { return g.AttrCounts[i].Attr < g.AttrCounts[j].Attr })
	return gob.NewEncoder(w).Encode(g)
}

// Restore rebuilds the tree from a Snapshot stream, replacing all
// current contents. Symbols are re-interned under the current epoch.
func (t *Tree) Restore(r io.Reader) error {
	var g treeGob
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return fmt.Errorf("fptree: decode snapshot: %w", err)
	}
	order := EmptyOrder()
	for _, a := range g.Attrs {
		order.register(a)
	}
	nt := New(order)
	// Nodes arrive in pre-order, so a parent's children are appended in
	// their original sibling order and newNode's grouped splice rebuilds
	// each child span exactly. File index i becomes arena node i+1.
	for i, ng := range g.Nodes {
		parent := int32(0)
		if ng.Parent >= 0 {
			if ng.Parent >= i {
				return fmt.Errorf("fptree: snapshot node %d references later parent %d", i, ng.Parent)
			}
			parent = int32(ng.Parent + 1)
		}
		s := symbol.InternPair(ng.Attr, ng.Val)
		id := nt.newNode(parent, s, int32(ng.BranchID))
		if len(ng.Docs) > 0 {
			// Into the slab, so MemBytes charges a restored (e.g.
			// reloaded after a spill) tree like one built by Insert.
			nt.docs[id] = append(nt.docSlab.carve(len(ng.Docs)), ng.Docs...)
		}
		if ng.BranchID > nt.nextBranch {
			nt.nextBranch = ng.BranchID
		}
	}
	nt.docCount = g.DocCount
	nt.maxDepth = g.MaxDepth
	for _, ac := range g.AttrCounts {
		id := symbol.InternAttr(ac.Attr)
		if int(id) >= len(nt.attrCounts) {
			nt.attrCounts = growInts(nt.attrCounts, int(id)+1)
		}
		nt.attrCounts[id] = ac.Count
	}
	*t = *nt
	t.prober.t = t
	return nil
}
