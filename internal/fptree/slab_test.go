package fptree

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/symbol"
)

// fanoutDoc is one document under the shared parent pair: its second
// pair lands below the parent node, under one of three attributes so
// the grouped splice (a child inserted in the middle of the span) is
// exercised as the span grows.
func fanoutDoc(id uint64, child int) document.Document {
	return document.New(id, []document.Pair{
		{Attr: "fa", Val: "parent"},
		{Attr: fmt.Sprintf("fb%d", child%3), Val: document.EncodeInt(int64(child))},
	})
}

// checkFanout looks every inserted child up below the parent node and
// cross-checks the span, the child index and the probe path.
func checkFanout(t *testing.T, tree *Tree, docs []document.Document, stage string) {
	t.Helper()
	parentSym, ok := symbol.LookupPair("fa", "parent")
	if !ok {
		t.Fatalf("%s: parent pair not interned", stage)
	}
	parent := tree.child(0, parentSym)
	if parent < 0 {
		t.Fatalf("%s: parent node missing", stage)
	}
	if got := len(tree.kids[parent]); got != len(docs) {
		t.Fatalf("%s: parent has %d children, want %d", stage, got, len(docs))
	}
	for _, d := range docs {
		childSym := d.InternedPairs()[1]
		id := tree.child(parent, childSym)
		if id < 0 {
			t.Fatalf("%s, %d children: child %v of doc %d not found", stage, len(docs), d.Pairs()[1], d.ID)
		}
		if tree.syms[id] != childSym || tree.parents[id] != parent || len(tree.docs[id]) != 1 || tree.docs[id][0] != d.ID {
			t.Fatalf("%s, %d children: lookup of doc %d's child returned node %d (%v, docs %v)", stage, len(docs), d.ID, id, tree.pairOf(id), tree.docs[id])
		}
	}
	if absent, ok := symbol.LookupPair("fb0", document.EncodeInt(-1)); ok && tree.child(parent, absent) >= 0 {
		t.Fatalf("%s: lookup of an absent child succeeded", stage)
	}
	// The index holds a span whole or not at all.
	indexed := 0
	for key := range tree.childIdx {
		if key.parent == parent {
			indexed++
		}
	}
	if want := len(docs); len(docs) <= spanScanMax {
		if indexed != 0 {
			t.Fatalf("%s: %d index entries for a span of %d ≤ spanScanMax", stage, indexed, len(docs))
		}
	} else if indexed != want {
		t.Fatalf("%s: %d index entries for a span of %d", stage, indexed, want)
	}
	// Every document joins every other through the shared parent pair
	// unless they disagree on an fb attribute.
	for _, d := range docs {
		got := tree.JoinPartners(d)
		want := naivePartners(docs, d)
		sortIDs(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s, %d children: partners of doc %d = %v, want %v", stage, len(docs), d.ID, got, want)
		}
	}
}

// TestChildLookupAcrossFanout walks one parent through the fanouts
// around spanScanMax — where lookups switch from the span scan to the
// lazily built child index — and on to 40 children, looking every child
// up after every insert; then Reset and refill (the rewound slabs and
// the cleared index), then snapshot → Restore → further inserts.
func TestChildLookupAcrossFanout(t *testing.T) {
	tree := New(nil)
	var docs []document.Document
	grow := func(to int, stage string) {
		for len(docs) < to {
			d := fanoutDoc(uint64(1000+len(docs)), len(docs))
			tree.Insert(d)
			docs = append(docs, d)
			checkFanout(t, tree, docs, stage)
		}
	}
	for _, n := range []int{7, 8, 9, 10, 40} {
		grow(n, "first fill")
	}

	tree.Reset()
	if len(tree.childIdx) != 0 || tree.edgeSlab.used != 0 || tree.docSlab.used != 0 {
		t.Fatalf("Reset left %d index entries, %d edges, %d doc ids", len(tree.childIdx), tree.edgeSlab.used, tree.docSlab.used)
	}
	docs = nil
	for _, n := range []int{7, 8, 9, 10, 40} {
		grow(n, "refill after Reset")
	}

	// Restore at a fanout below, at and above the index threshold, and
	// keep inserting into the restored tree.
	for _, n := range []int{spanScanMax - 1, spanScanMax, spanScanMax + 1, 20} {
		src := New(nil)
		docs = nil
		for len(docs) < n {
			d := fanoutDoc(uint64(5000+len(docs)), len(docs))
			src.Insert(d)
			docs = append(docs, d)
		}
		var buf bytes.Buffer
		if err := src.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		tree = New(nil)
		if err := tree.Restore(&buf); err != nil {
			t.Fatal(err)
		}
		checkFanout(t, tree, docs, fmt.Sprintf("restored at %d", n))
		grow(n+12, fmt.Sprintf("inserts after restore at %d", n))
		if got, want := tree.MemBytes(), rebuild(docs).MemBytes(); got != want {
			t.Errorf("restored at %d and grown: MemBytes %d, a tree built by Insert alone accounts %d", n, got, want)
		}
	}
}

func rebuild(docs []document.Document) *Tree {
	t := New(nil)
	for _, d := range docs {
		t.Insert(d)
	}
	return t
}

var branchSuffix = regexp.MustCompile(` branch=\d+\n`)

// refDump renders the reference pointer tree in Tree.Dump's format,
// less the branch ids the reference does not keep.
func refDump(t *refTree) string {
	var b strings.Builder
	b.WriteString("root\n")
	var walk func(n *refNode, indent int)
	walk = func(n *refNode, indent int) {
		for _, g := range n.groups {
			for _, c := range g.all {
				a, v := symbol.PairStrings(c.sym)
				fmt.Fprintf(&b, "%s%s docs=%v\n", strings.Repeat("  ", indent), document.Pair{Attr: a, Val: v}, c.docs)
				walk(c, indent+1)
			}
		}
	}
	walk(t.root, 1)
	return b.String()
}

func sameAsReference(t *testing.T, flat *Tree, ref *refTree, stage string) {
	t.Helper()
	got := branchSuffix.ReplaceAllString(flat.Dump(), "\n")
	if want := refDump(ref); got != want {
		t.Fatalf("%s: flat tree differs from the pointer tree (%d vs %d bytes of dump)", stage, len(got), len(want))
	}
	for sym, head := range ref.header {
		n := 0
		for c := head; c != nil; c = c.next {
			n++
		}
		a, v := symbol.PairStrings(sym)
		if got := flat.HeaderChainLen(document.Pair{Attr: a, Val: v}); got != n {
			t.Fatalf("%s: HeaderChainLen(%s:%s) = %d, the pointer tree chains %d nodes", stage, a, v, got, n)
		}
	}
}

// TestSlabGrowthNeverAliases fills trees far past one slab chunk — long
// document lists on few nodes, wide spans, many single-child nodes —
// and requires the exact shape of the pointer tree, whose every slice
// is its own heap object: a span or doc list carved over a live one
// would show as a corrupted dump. The second and third fills reuse the
// rewound slabs.
func TestSlabGrowthNeverAliases(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	nb, _ := datagen.ByName("nbData", 26)
	rw, _ := datagen.ByName("rwData", 26)
	fills := map[string][]document.Document{
		"10 000 documents over a small space": parityDocs(r, 10000),
		"3 000 nbData documents":              nb.Window(3000),
		"3 000 rwData documents":              rw.Window(3000),
	}
	order := EmptyOrder()
	flat := New(order)
	for _, name := range []string{"10 000 documents over a small space", "3 000 nbData documents", "3 000 rwData documents"} {
		flat.Reset()
		ref := newRefTree(order)
		for i, d := range fills[name] {
			flat.Insert(d)
			ref.Insert(d)
			if i == len(fills[name])/2 {
				sameAsReference(t, flat, ref, name+", half way")
			}
		}
		sameAsReference(t, flat, ref, name)
		if flat.edgeSlab.used <= slabChunk && flat.docSlab.used <= slabChunk {
			t.Errorf("%s: %d edges and %d doc ids carved — no slab outgrew its first chunk", name, flat.edgeSlab.used, flat.docSlab.used)
		}
	}
}

// TestMemBytesTracksHeap holds the governor's O(1) estimate to the
// allocator's view: for a 2 000-document window, MemBytes is within a
// factor 1.5 of what building the tree added to the live heap, and an
// emptied tree accounts next to nothing however much capacity it keeps.
func TestMemBytesTracksHeap(t *testing.T) {
	for _, dataset := range []string{"nbData", "rwData"} {
		gen, _ := datagen.ByName(dataset, 1)
		docs := gen.Window(2000)
		order := NewOrderFromDocs(docs)
		// Intern-time and order state is in place before the first read.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tree := New(order)
		for _, d := range docs {
			tree.Insert(d)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		est := float64(tree.MemBytes())
		t.Logf("%s: %d nodes, MemBytes %.0f, heap delta %.0f (ratio %.2f)", dataset, tree.NodeCount(), est, heap, est/heap)
		if est > heap*1.5 || est < heap/1.5 {
			t.Errorf("%s: MemBytes = %.0f but the tree added %.0f bytes to the heap (want within a factor 1.5)", dataset, est, heap)
		}
		tree.Reset()
		if got := tree.MemBytes(); got >= 1024 {
			t.Errorf("%s: an emptied tree accounts %d bytes, want < 1 KB", dataset, got)
		}
		runtime.KeepAlive(docs)
	}
}

// TestInsertSteadyStateAllocatesNothingPerNode: once a window's worth of
// arena and slab capacity exists, refilling the tree allocates nothing.
func TestInsertSteadyStateAllocatesNothingPerNode(t *testing.T) {
	gen, _ := datagen.ByName("nbData", 2)
	docs := gen.Window(1000)
	tree := New(NewOrderFromDocs(docs))
	fill := func() {
		tree.Reset()
		for _, d := range docs {
			tree.Insert(d)
		}
	}
	fill()
	if avg := testing.AllocsPerRun(5, fill); avg > 1 {
		t.Errorf("refilling a 1 000-document window allocates %.0f objects, want ≤ 1 (the index map may regrow a group)", avg)
	}
}
