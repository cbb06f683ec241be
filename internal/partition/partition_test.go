package partition

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/document"
	"repro/internal/symbol"
)

func intPair(a string, v int) document.Pair {
	return document.Pair{Attr: a, Val: document.EncodeInt(int64(v))}
}

// fig3Docs builds the paper's Fig. 3 input documents.
func fig3Docs() []document.Document {
	return []document.Document{
		document.New(1, []document.Pair{intPair("A", 2), intPair("B", 3), intPair("C", 7)}),
		document.New(2, []document.Pair{intPair("A", 7), intPair("B", 3), intPair("C", 4)}),
		document.New(3, []document.Pair{intPair("D", 13)}),
		document.New(4, []document.Pair{intPair("A", 7), intPair("C", 4)}),
	}
}

// TestPaperFigure3AssociationGroups reproduces the worked example of
// Fig. 3: ag1={A:2,C:7,B:3}, ag2={A:7,C:4}, ag3={D:13}.
func TestPaperFigure3AssociationGroups(t *testing.T) {
	groups := AssociationGroups{}.Groups(fig3Docs())
	if len(groups) != 3 {
		t.Fatalf("got %d association groups, want 3: %+v", len(groups), groups)
	}
	want := []PairSet{
		NewPairSet(intPair("A", 2), intPair("C", 7), intPair("B", 3)),
		NewPairSet(intPair("A", 7), intPair("C", 4)),
		NewPairSet(intPair("D", 13)),
	}
	for _, w := range want {
		found := false
		for _, g := range groups {
			if len(g.Pairs) == len(w) && w.SubsetOf(g.Pairs) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("association group %v not produced; got %+v", w.Sorted(), groups)
		}
	}
}

func TestFigure3GroupLoads(t *testing.T) {
	groups := AssociationGroups{}.Groups(fig3Docs())
	loads := map[int]int{} // group size -> load
	for _, g := range groups {
		loads[len(g.Pairs)] = g.Load
	}
	// ag1 {A:2,C:7,B:3} spans docs 1,2 -> load 2.
	if loads[3] != 2 {
		t.Errorf("ag1 load = %d, want 2", loads[3])
	}
	// ag2 {A:7,C:4} spans docs 2,4 -> load 2.
	if loads[2] != 2 {
		t.Errorf("ag2 load = %d, want 2", loads[2])
	}
	// ag3 {D:13} spans doc 3 -> load 1.
	if loads[1] != 1 {
		t.Errorf("ag3 load = %d, want 1", loads[1])
	}
}

func TestAGGroupsDisjoint(t *testing.T) {
	groups := AssociationGroups{}.Groups(fig3Docs())
	seen := NewPairSet()
	for _, g := range groups {
		for sp := range g.Pairs {
			if seen.HasSym(sp) {
				t.Fatalf("pair %v appears in two association groups", sp)
			}
			seen.AddSym(sp)
		}
	}
}

func TestAssignGroupsBalancesLoad(t *testing.T) {
	groups := []AssocGroup{
		{Pairs: NewPairSet(intPair("a", 1)), Load: 10},
		{Pairs: NewPairSet(intPair("b", 1)), Load: 9},
		{Pairs: NewPairSet(intPair("c", 1)), Load: 5},
		{Pairs: NewPairSet(intPair("d", 1)), Load: 4},
	}
	tbl := AssignGroups(groups, 2)
	// Seeds: loads 10 and 9. Then 5 -> partition 1 (load 9<10), then
	// 4 -> partition 0 (10 < 14).
	p0 := tbl.Partitions[0]
	p1 := tbl.Partitions[1]
	if !(p0.Has(intPair("a", 1)) && p0.Has(intPair("d", 1))) {
		t.Errorf("partition 0 = %v", p0.Sorted())
	}
	if !(p1.Has(intPair("b", 1)) && p1.Has(intPair("c", 1))) {
		t.Errorf("partition 1 = %v", p1.Sorted())
	}
}

func randomBatch(r *rand.Rand, n int) []document.Document {
	attrs := []string{"a", "b", "c", "d", "e", "f", "g"}
	docs := make([]document.Document, 0, n)
	for i := 0; i < n; i++ {
		k := 1 + r.Intn(4)
		perm := r.Perm(len(attrs))
		var ps []document.Pair
		for j := 0; j < k; j++ {
			ps = append(ps, intPair(attrs[perm[j]], r.Intn(4)))
		}
		docs = append(docs, document.New(uint64(i+1), ps))
	}
	return docs
}

// TestQuickCompletenessAllPartitioners is the central routing
// invariant: for any batch, any m, and any of the three partitioners,
// every joinable document pair shares at least one machine.
func TestQuickCompletenessAllPartitioners(t *testing.T) {
	partitioners := []Partitioner{AssociationGroups{}, SetCover{}, DisjointSets{}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		docs := randomBatch(r, 2+r.Intn(30))
		m := 2 + r.Intn(6)
		for _, p := range partitioners {
			tbl := p.Partition(docs, m)
			if len(tbl.Partitions) != m {
				return false
			}
			if _, _, ok := VerifyCompleteness(tbl, docs); !ok {
				t.Logf("%s violated completeness (seed %d, m=%d)", p.Name(), seed, m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickCompletenessUnseenDocs routes documents NOT in the
// partitioning batch: the broadcast fallback must preserve
// completeness.
func TestQuickCompletenessUnseenDocs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		docs := randomBatch(r, 5+r.Intn(20))
		future := randomBatch(r, 10)
		for i := range future {
			future[i].ID = uint64(100 + i)
		}
		tbl := AssociationGroups{}.Partition(docs, 4)
		_, _, ok := VerifyCompleteness(tbl, append(append([]document.Document{}, docs...), future...))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDSNoReplication: under DS every document in the partitioning
// batch maps to exactly one machine (perfect replication of 1).
func TestDSNoReplication(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	docs := randomBatch(r, 50)
	tbl := DisjointSets{}.Partition(docs, 4)
	for _, d := range docs {
		targets, broadcast := tbl.Route(d)
		if broadcast || len(targets) != 1 {
			t.Fatalf("doc %v routed to %v (broadcast=%v); DS must map to exactly one machine", d, targets, broadcast)
		}
	}
	st := Evaluate(tbl, docs)
	if st.Replication() != 1 {
		t.Errorf("DS replication = %g, want 1", st.Replication())
	}
}

func TestDSComponents(t *testing.T) {
	docs := fig3Docs()
	// Components: {A:2,B:3,C:7,A:7,C:4} all connected through doc1/doc2
	// (B:3 links them); {D:13} separate -> 2 components.
	if n := (DisjointSets{}).Components(docs); n != 2 {
		t.Errorf("Components = %d, want 2", n)
	}
}

func TestDSFewerComponentsThanMachines(t *testing.T) {
	docs := fig3Docs()
	tbl := DisjointSets{}.Partition(docs, 8)
	if ne := tbl.NonEmpty(); ne != 2 {
		t.Errorf("NonEmpty = %d, want 2 (DS cannot scale beyond its components)", ne)
	}
}

func TestSCCoversAllPairs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	docs := randomBatch(r, 40)
	tbl := SetCover{}.Partition(docs, 4)
	for _, d := range docs {
		for _, p := range d.Pairs() {
			if !tbl.Covers(p) {
				t.Fatalf("pair %v uncovered by SC", p)
			}
		}
	}
}

func TestAGCoversAllPairs(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	docs := randomBatch(r, 40)
	tbl := AssociationGroups{}.Partition(docs, 4)
	for _, d := range docs {
		if !tbl.FullyCovered(d) {
			t.Fatalf("doc %v not fully covered by AG table", d)
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"AG", "SC", "DS", "ag", "sc", "ds"} {
		if _, err := ByName(n); err != nil {
			t.Errorf("ByName(%s): %v", n, err)
		}
	}
	if _, err := ByName("zz"); err == nil {
		t.Error("ByName(zz) must fail")
	}
}

func TestTableAssignSorted(t *testing.T) {
	parts := []PairSet{
		NewPairSet(intPair("a", 1)),
		NewPairSet(intPair("b", 2)),
		NewPairSet(intPair("c", 3)),
	}
	tbl := NewTable(parts)
	d := document.New(1, []document.Pair{intPair("c", 3), intPair("a", 1)})
	got := tbl.Assign(d)
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("Assign = %v, want [0 2]", got)
	}
}

func TestTableRouteBroadcastOnUncovered(t *testing.T) {
	tbl := NewTable([]PairSet{NewPairSet(intPair("a", 1)), NewPairSet(intPair("b", 2))})
	// Document has a covered pair AND an uncovered pair -> broadcast.
	d := document.New(1, []document.Pair{intPair("a", 1), intPair("z", 9)})
	targets, broadcast := tbl.Route(d)
	if !broadcast || len(targets) != 2 {
		t.Errorf("Route = %v,%v; want broadcast to all", targets, broadcast)
	}
	if got := tbl.UncoveredPairs(d); len(got) != 1 || got[0] != intPair("z", 9) {
		t.Errorf("UncoveredPairs = %v", got)
	}
}

func TestTableAddPair(t *testing.T) {
	tbl := NewTable([]PairSet{NewPairSet(intPair("a", 1)), NewPairSet()})
	tbl.AddPair(1, intPair("z", 9))
	if !tbl.Covers(intPair("z", 9)) {
		t.Error("AddPair did not index the pair")
	}
	// Idempotent.
	tbl.AddPair(1, intPair("z", 9))
	sp, ok := symbol.LookupPair(intPair("z", 9).Attr, intPair("z", 9).Val)
	if !ok {
		t.Fatal("AddPair did not intern the pair")
	}
	if at := tbl.index[sp]; at != 1 || len(tbl.shared) != 0 {
		t.Errorf("duplicate index entries: index %d, %d shared lists", at, len(tbl.shared))
	}
}

func TestTableAddPairPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddPair out of range did not panic")
		}
	}()
	NewTable([]PairSet{NewPairSet()}).AddPair(5, intPair("a", 1))
}

func TestTableAddDocument(t *testing.T) {
	tbl := NewTable([]PairSet{NewPairSet(intPair("a", 1)), NewPairSet(intPair("b", 2))})
	// Doc matches partition 0 via a:1; its new pair z:9 must join
	// partition 0.
	d := document.New(1, []document.Pair{intPair("a", 1), intPair("z", 9)})
	tbl.AddDocument(d)
	if !tbl.Partitions[0].Has(intPair("z", 9)) {
		t.Errorf("new pair not added to matching partition: %v", tbl.Partitions[0].Sorted())
	}
	// A fully-new doc goes to the least-loaded partition (1).
	d2 := document.New(2, []document.Pair{intPair("q", 7)})
	tbl.AddDocument(d2)
	if !tbl.Partitions[1].Has(intPair("q", 7)) {
		t.Errorf("new doc not added to least-loaded partition")
	}
	// After the update both docs route without broadcast.
	for _, d := range []document.Document{d, d2} {
		if _, broadcast := tbl.Route(d); broadcast {
			t.Errorf("doc %v still broadcast after AddDocument", d)
		}
	}
}

func TestConsolidateFoldsSubsets(t *testing.T) {
	g1 := AssocGroup{Pairs: NewPairSet(intPair("a", 1), intPair("b", 2)), Load: 3}
	g2 := AssocGroup{Pairs: NewPairSet(intPair("a", 1)), Load: 2} // subset of g1
	g3 := AssocGroup{Pairs: NewPairSet(intPair("c", 3)), Load: 1}
	out := Consolidate([][]AssocGroup{{g1}, {g2, g3}})
	if len(out) != 2 {
		t.Fatalf("got %d groups, want 2: %+v", len(out), out)
	}
	for _, g := range out {
		if g.Pairs.Has(intPair("a", 1)) && g.Load != 5 {
			t.Errorf("folded load = %d, want 5", g.Load)
		}
	}
}

func TestConsolidateRemovesDuplicatePairs(t *testing.T) {
	// a:1 appears in two non-subset groups; it must be removed from the
	// larger one.
	g1 := AssocGroup{Pairs: NewPairSet(intPair("a", 1), intPair("b", 2), intPair("c", 3)), Load: 1}
	g2 := AssocGroup{Pairs: NewPairSet(intPair("a", 1), intPair("d", 4)), Load: 1}
	out := Consolidate([][]AssocGroup{{g1}, {g2}})
	count := 0
	for _, g := range out {
		if g.Pairs.Has(intPair("a", 1)) {
			count++
			if len(g.Pairs) != 2 { // must be the smaller group
				t.Errorf("a:1 kept in the larger group: %v", g.Pairs.Sorted())
			}
		}
	}
	if count != 1 {
		t.Errorf("pair a:1 owned by %d groups, want 1", count)
	}
}

// TestQuickConsolidateDisjoint: consolidated groups are always pairwise
// disjoint, whatever the local inputs.
func TestQuickConsolidateDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var local [][]AssocGroup
		for c := 0; c < 1+r.Intn(3); c++ {
			docs := randomBatch(r, 3+r.Intn(15))
			local = append(local, AssociationGroups{}.Groups(docs))
		}
		out := Consolidate(local)
		seen := NewPairSet()
		for _, g := range out {
			if len(g.Pairs) == 0 {
				return false
			}
			for sp := range g.Pairs {
				if seen.HasSym(sp) {
					return false
				}
				seen.AddSym(sp)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickConsolidatedEqualsDirect: partitioning via consolidated
// local groups must still cover every pair of the combined batch.
func TestQuickConsolidatedCoverage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		batch1 := randomBatch(r, 10)
		batch2 := randomBatch(r, 10)
		for i := range batch2 {
			batch2[i].ID = uint64(100 + i)
		}
		local := [][]AssocGroup{
			AssociationGroups{}.Groups(batch1),
			AssociationGroups{}.Groups(batch2),
		}
		tbl := AssignGroups(Consolidate(local), 4)
		for _, d := range append(append([]document.Document{}, batch1...), batch2...) {
			if !tbl.FullyCovered(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateStats(t *testing.T) {
	docs := fig3Docs()
	tbl := AssociationGroups{}.Partition(docs, 2)
	st := Evaluate(tbl, docs)
	if st.Documents != 4 {
		t.Errorf("Documents = %d", st.Documents)
	}
	if r := st.Replication(); r < 1 || r > 2 {
		t.Errorf("Replication = %g out of [1,2]", r)
	}
}

func TestPairSetOps(t *testing.T) {
	s := NewPairSet(intPair("a", 1))
	o := NewPairSet(intPair("a", 1), intPair("b", 2))
	if !s.SubsetOf(o) || o.SubsetOf(s) {
		t.Error("SubsetOf wrong")
	}
	s.AddAll(o)
	if len(s) != 2 {
		t.Errorf("AddAll: len=%d", len(s))
	}
	sorted := o.Sorted()
	if sorted[0].Attr != "a" || sorted[1].Attr != "b" {
		t.Errorf("Sorted = %v", sorted)
	}
}

func TestTableString(t *testing.T) {
	tbl := NewTable([]PairSet{NewPairSet(intPair("a", 1)), NewPairSet()})
	if s := tbl.String(); s == "" {
		t.Error("empty String")
	}
}

// TestEmptyDocsAllPartitioners: partitioners must tolerate empty input.
func TestEmptyDocsAllPartitioners(t *testing.T) {
	for _, p := range []Partitioner{AssociationGroups{}, SetCover{}, DisjointSets{}} {
		tbl := p.Partition(nil, 3)
		if tbl.M != 3 {
			t.Errorf("%s: M = %d", p.Name(), tbl.M)
		}
	}
}
