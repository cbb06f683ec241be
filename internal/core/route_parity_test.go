package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"slices"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/partition"
	"repro/internal/symbol"
	"repro/internal/topology"
)

// The routing reference: how a document was routed before the one-pass
// kernel (PR 26) — materialise the transformed document with
// Expansion.Apply, look every pair up for coverage, look every pair up
// again for its partitions, sort. It reads only Table.Partitions, so it
// shares nothing with the table's index or the kernel.

// refUncovered returns the pairs of td no partition holds.
func refUncovered(table *partition.Table, td document.Document) []document.Pair {
	var out []document.Pair
	for _, p := range td.Pairs() {
		covered := false
		for _, part := range table.Partitions {
			covered = covered || part.Has(p)
		}
		if !covered {
			out = append(out, p)
		}
	}
	return out
}

// refAssign returns the partitions sharing a pair with td, ascending.
func refAssign(table *partition.Table, td document.Document) []int {
	var out []int
	for i, part := range table.Partitions {
		for _, p := range td.Pairs() {
			if part.Has(p) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// refRoute composes the reference: targets, the broadcast flag, and the
// uncovered pairs the δ gate counts.
func refRoute(table *partition.Table, spec *expansion.Expansion, d document.Document) (targets []int, broadcast bool, uncovered []document.Pair) {
	all := make([]int, table.M)
	for i := range all {
		all[i] = i
	}
	td, ok := spec.Apply(d)
	if !ok {
		return all, true, nil
	}
	if uncovered = refUncovered(table, td); len(uncovered) > 0 {
		return all, true, uncovered
	}
	if targets = refAssign(table, td); len(targets) > 0 {
		return targets, false, nil
	}
	return all, true, nil
}

func sortedPairs(ps []document.Pair) []document.Pair {
	out := slices.Clone(ps)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attr != out[j].Attr {
			return out[i].Attr < out[j].Attr
		}
		return out[i].Val < out[j].Val
	})
	return out
}

func symPairs(syms []symbol.Pair) []document.Pair {
	var out []document.Pair
	for _, sp := range syms {
		a, v := symbol.PairStrings(sp)
		out = append(out, document.Pair{Attr: a, Val: v})
	}
	return out
}

// routedAssigner returns an assigner that has adopted the given table.
func routedAssigner(cfg Config, task int, table *partition.Table, spec *expansion.Expansion) *assignerBolt {
	b := newAssignerBolt(cfg, task)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"joiner": cfg.M}})
	deploy(b, 0, 1, table, spec, &fakeCollector{})
	return b
}

// TestRoutingParity routes every document of window w + 1 under the
// table planned from window w — through Table.Route, RouteDocument and
// the assigner's kernel — and holds targets, broadcast flag and the
// uncovered set to the reference, for m inside one mask word, at a
// word boundary's neighbourhood and beyond it.
func TestRoutingParity(t *testing.T) {
	const size = 1000
	for _, dataset := range []string{"nbData", "rwData"} {
		for _, m := range []int{4, 16, 70} {
			for _, mode := range []ExpansionMode{ExpansionAuto, ExpansionForced, ExpansionOff} {
				gen, _ := datagen.ByName(dataset, int64(m))
				prev := gen.Window(size)
				for w := 1; w <= 3; w++ {
					next := gen.Window(size)
					table, spec := PlanPartitions(prev, m, nil, mode)
					cfg := testConfig()
					cfg.M, cfg.Delta = m, 1<<30
					b := routedAssigner(cfg, 0, table, spec)
					name := fmt.Sprintf("%s m=%d expansion=%s window %d", dataset, m, mode, w)
					broadcasts := 0
					for _, d := range next {
						wantT, wantB, wantU := refRoute(table, spec, d)
						gotT, gotB := RouteDocument(table, spec, d)
						if !slices.Equal(gotT, wantT) || gotB != wantB {
							t.Fatalf("%s doc %d: RouteDocument = %v/%v, reference %v/%v", name, d.ID, gotT, gotB, wantT, wantB)
						}
						gotT, gotB = b.targets(d)
						if !slices.Equal(gotT, wantT) || gotB != wantB {
							t.Fatalf("%s doc %d: assigner targets = %v/%v, reference %v/%v", name, d.ID, gotT, gotB, wantT, wantB)
						}
						if _, ok := spec.Apply(d); ok {
							// (A document that cannot form the synthetic pair is
							// broadcast before the table is asked.)
							if got, want := sortedPairs(symPairs(b.scratch.Uncovered)), sortedPairs(wantU); !slices.Equal(got, want) {
								t.Fatalf("%s doc %d: uncovered = %v, reference %v", name, d.ID, got, want)
							}
						}
						if td, ok := spec.Apply(d); ok {
							gotT, gotB = table.Route(td)
							if !slices.Equal(gotT, wantT) || gotB != wantB {
								t.Fatalf("%s doc %d: Table.Route = %v/%v, reference %v/%v", name, d.ID, gotT, gotB, wantT, wantB)
							}
						}
						if wantB {
							broadcasts++
						}
					}
					if broadcasts == 0 || broadcasts == len(next) {
						t.Logf("%s: %d of %d documents broadcast — one side of the kernel went unexercised", name, broadcasts, len(next))
					}
					prev = next
				}
			}
		}
	}
}

// TestRoutingParityOverlappingPartitions covers what AG tables never
// contain: a pair several partitions hold, a document carrying an
// attribute named like the synthetic one, an empty document.
func TestRoutingParityOverlappingPartitions(t *testing.T) {
	spec := &expansion.Expansion{Components: []string{"flag", "kind"}, SyntheticAttr: document.ConcatAttrs("flag", "kind")}
	synth := func(f, k string) document.Pair {
		return document.Pair{Attr: spec.SyntheticAttr, Val: document.ConcatValues(f, k)}
	}
	p := func(a, v string) document.Pair { return document.Pair{Attr: a, Val: v} }
	table := partition.NewTable([]partition.PairSet{
		partition.NewPairSet(p("a", "1"), synth("t", "x")),
		partition.NewPairSet(p("a", "1"), p("b", "2")),
		partition.NewPairSet(p("a", "1"), p("c", "3"), p("flag", "t")),
		partition.NewPairSet(),
	})
	docs := []document.Document{
		document.New(1, []document.Pair{p("a", "1"), p("flag", "t"), p("kind", "x")}),
		document.New(2, []document.Pair{p("b", "2"), p("flag", "t"), p("kind", "x")}),
		document.New(3, []document.Pair{p("b", "2"), p("flag", "t"), p("kind", "y")}), // synthetic uncovered
		document.New(4, []document.Pair{p("b", "2"), p("flag", "t")}),                 // no component
		document.New(5, []document.Pair{p("flag", "t"), p("kind", "x"), p(spec.SyntheticAttr, "own")}),
		document.New(6, nil),
		document.New(7, []document.Pair{p("flag", "t"), p("kind", "x")}),
	}
	cfg := testConfig()
	cfg.M, cfg.Delta = table.M, 1<<30
	for _, s := range []*expansion.Expansion{spec, nil} {
		b := routedAssigner(cfg, 0, table, s)
		for _, d := range docs {
			wantT, wantB, wantU := refRoute(table, s, d)
			if gotT, gotB := RouteDocument(table, s, d); !slices.Equal(gotT, wantT) || gotB != wantB {
				t.Errorf("spec %v doc %d: RouteDocument = %v/%v, reference %v/%v", s, d.ID, gotT, gotB, wantT, wantB)
			}
			if gotT, gotB := b.targets(d); !slices.Equal(gotT, wantT) || gotB != wantB {
				t.Errorf("spec %v doc %d: assigner targets = %v/%v, reference %v/%v", s, d.ID, gotT, gotB, wantT, wantB)
			}
			if _, ok := s.Apply(d); ok {
				if got, want := sortedPairs(symPairs(b.scratch.Uncovered)), sortedPairs(wantU); !slices.Equal(got, want) {
					t.Errorf("spec %v doc %d: uncovered = %v, reference %v", s, d.ID, got, want)
				}
			}
		}
	}
}

// refDeltaGate is the reference δ gate: string-keyed counts, pruned
// with one string lookup pair per entry when a table is adopted.
type refDeltaGate struct {
	delta  int
	table  *partition.Table
	spec   *expansion.Expansion
	unseen map[document.Pair]int
}

// route reports whether d becomes an update request.
func (g *refDeltaGate) route(d document.Document) bool {
	td, ok := g.spec.Apply(d)
	if !ok {
		return false
	}
	hit := false
	for _, p := range refUncovered(g.table, td) {
		g.unseen[p]++
		if g.unseen[p] == g.delta {
			hit = true
		}
	}
	return hit
}

func (g *refDeltaGate) adopt(table *partition.Table, spec *expansion.Expansion) {
	g.table, g.spec = table, spec
	for p := range g.unseen {
		if table.Covers(p) {
			delete(g.unseen, p)
		}
	}
}

// TestDeltaUpdateParity runs two assigners with δ = 3 over three
// windows routed under the first window's table, folding the update
// requests their verdicts carry into an additive table both adopt at
// each window boundary — as the Merger does — and holds each task's
// update-request sequence, and its δ counts after every adoption, to
// the reference.
func TestDeltaUpdateParity(t *testing.T) {
	const size, m, tasks = 800, 4, 2
	for _, dataset := range []string{"nbData", "rwData"} {
		gen, _ := datagen.ByName(dataset, 11)
		table, spec := PlanPartitions(gen.Window(size), m, nil, ExpansionAuto)
		cfg := testConfig()
		cfg.M, cfg.Delta, cfg.Assigners = m, 3, tasks
		var bolts [tasks]*assignerBolt
		var cols [tasks]*fakeCollector
		var refs [tasks]*refDeltaGate
		var want [tasks][]uint64
		for i := range bolts {
			bolts[i] = routedAssigner(cfg, i, table, spec)
			cols[i] = &fakeCollector{}
			refs[i] = &refDeltaGate{delta: 3, table: table, spec: spec, unseen: make(map[document.Pair]int)}
		}
		var requested [tasks][]uint64
		for w := 1; w <= 3; w++ {
			for i, d := range gen.Window(size) {
				task := i % tasks
				bolts[task].Execute(docTuple(w, d), cols[task])
				if refs[task].route(d) {
					want[task] = append(want[task], d.ID)
				}
			}
			// The Merger's additive update: every requested document folded
			// into a clone, in task order, sent in control(w).
			next := table.Clone()
			for task := range bolts {
				bolts[task].Execute(wendTuple(w), cols[task])
				verdicts := cols[task].byStream(streamVerdict)
				for _, d := range verdicts[len(verdicts)-1].values["msg"].(verdictMsg).Updates {
					requested[task] = append(requested[task], d.ID)
					if td, ok := spec.Apply(d); ok {
						next.AddDocument(td)
					}
				}
			}
			table = next
			for task := range bolts {
				bolts[task].Execute(controlTuple(controlMsg{Window: w, Version: w + 1, Table: table, Expansion: spec}), cols[task])
				refs[task].adopt(table, spec)
				got := make(map[document.Pair]int)
				for sp, n := range bolts[task].unseen {
					a, v := symbol.PairStrings(sp)
					got[document.Pair{Attr: a, Val: v}] = n
				}
				if len(got) != len(refs[task].unseen) {
					t.Fatalf("%s task %d window %d: %d unseen pairs after adoption, reference %d", dataset, task, w, len(got), len(refs[task].unseen))
				}
				for p, n := range refs[task].unseen {
					if got[p] != n {
						t.Fatalf("%s task %d window %d: unseen[%v] = %d, reference %d", dataset, task, w, p, got[p], n)
					}
				}
			}
		}
		total := 0
		for task := range bolts {
			if !slices.Equal(requested[task], want[task]) {
				t.Errorf("%s task %d: update requests for documents %v, reference %v", dataset, task, requested[task], want[task])
			}
			total += len(requested[task])
		}
		if total == 0 {
			t.Errorf("%s: no update request in three windows — the δ gate went unexercised", dataset)
		}
	}
}

// TestAssignerSnapshotKeepsUnseen round-trips the symbol-keyed δ counts
// through the string-keyed snapshot.
func TestAssignerSnapshotKeepsUnseen(t *testing.T) {
	cfg := testConfig()
	b := newAssignerBolt(cfg, 0)
	deploy(b, 0, 3, newTable(intPair2("a", 1)), nil, &fakeCollector{})
	b.unseen[symbol.InternPair("x", "9")] = 2
	b.unseen[symbol.InternPair("y", "s:hello")] = 1
	var buf bytes.Buffer
	if err := b.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := newAssignerBolt(cfg, 0)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if len(restored.unseen) != 2 || restored.unseen[symbol.InternPair("x", "9")] != 2 || restored.unseen[symbol.InternPair("y", "s:hello")] != 1 {
		t.Errorf("restored unseen = %v", restored.unseen)
	}
	if restored.version != 3 || restored.generation != 3 {
		t.Errorf("restored version/generation = %d/%d, want 3/3", restored.version, restored.generation)
	}
}

// parentDecision is the verdict type the parent commit (835fdea)
// recorded in its assigner snapshots.
type parentDecision struct {
	Window      int
	Task        int
	Repartition bool
}

// parentAssignerState is assignerState as the parent commit (835fdea)
// declared it.
type parentAssignerState struct {
	Version int
	Table   *partition.Table
	Spec    *expansion.Expansion
	Unseen  map[document.Pair]int

	BaselineSet  bool
	BaselineRepl float64
	BaselineGini float64
	AwaitingBase bool

	Waiting       bool
	WaitWindow    int
	PendingRepart []int

	LastDecision parentDecision
}

// TestAssignerSnapshotCrossVersion restores a snapshot the parent
// commit wrote (testdata/assigner_state_parent.gob: version 7, three
// partitions, a two-component expansion, three unseen pairs) and
// decodes this commit's snapshot of the same state the way the parent
// would.
func TestAssignerSnapshotCrossVersion(t *testing.T) {
	blob, err := os.ReadFile("testdata/assigner_state_parent.gob")
	if err != nil {
		t.Fatal(err)
	}
	b := newAssignerBolt(testConfig(), 1)
	if err := b.Restore(bytes.NewReader(blob)); err != nil {
		t.Fatalf("restore the parent's snapshot: %v", err)
	}
	synthetic := symbol.InternPair(document.ConcatAttrs("flag", "kind"), document.ConcatValues("true", "s:k"))
	wantUnseen := map[symbol.Pair]int{symbol.InternPair("x", "9"): 2, symbol.InternPair("y", "s:hello"): 1, synthetic: 4}
	if len(b.unseen) != len(wantUnseen) {
		t.Errorf("unseen = %v, want %v", b.unseen, wantUnseen)
	}
	for sp, n := range wantUnseen {
		if b.unseen[sp] != n {
			t.Errorf("unseen[%v] = %d, want %d", symPairs([]symbol.Pair{sp}), b.unseen[sp], n)
		}
	}
	if b.version != 7 || b.generation != 7 || b.table == nil || b.table.M != 3 ||
		!b.table.Covers(document.Pair{Attr: "c", Val: "3"}) || b.table.Covers(document.Pair{Attr: "x", Val: "9"}) {
		t.Errorf("restored version %d generation %d table %v", b.version, b.generation, b.table)
	}
	if b.spec == nil || !slices.Equal(b.spec.Components, []string{"flag", "kind"}) || !b.baselineSet || b.baselineRepl != 1.5 {
		t.Errorf("restored state differs from what the parent saved: %+v", b)
	}

	var buf bytes.Buffer
	if err := b.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var back, orig parentAssignerState
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("decode this commit's snapshot as the parent would: %v", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&orig); err != nil {
		t.Fatal(err)
	}
	if len(back.Unseen) != len(orig.Unseen) {
		t.Errorf("unseen written = %v, parent wrote %v", back.Unseen, orig.Unseen)
	}
	for p, n := range orig.Unseen {
		if back.Unseen[p] != n {
			t.Errorf("unseen[%v] written = %d, parent wrote %d", p, back.Unseen[p], n)
		}
	}
	if back.Version != orig.Version || back.BaselineRepl != orig.BaselineRepl || back.Table.M != orig.Table.M {
		t.Errorf("snapshot written = %+v, parent wrote %+v", back, orig)
	}
}

// fnv64 is FNV-1a over s reduced to a non-negative int — the hash
// HashPairsRouting computed over a built key string before pairHash.
func fnv64(s string) int {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return int(h % (1 << 31))
}

// TestPairHashPinned pins hash routing's pair → joiner function: it
// must stay fnv64(p.Key()), or two processes of different builds would
// send one pair to different joiners (and BenchmarkAblationRouting's
// history would stop meaning anything).
func TestPairHashPinned(t *testing.T) {
	n := 0
	for _, dataset := range []string{"nbData", "rwData"} {
		gen, _ := datagen.ByName(dataset, 3)
		for _, d := range gen.Window(1500) {
			for _, p := range d.Pairs() {
				if got, want := pairHash(p), fnv64(p.Key()); got != want {
					t.Fatalf("pairHash(%v) = %d, fnv64(Key) = %d", p, got, want)
				}
				n++
			}
		}
	}
	for _, p := range []document.Pair{{}, {Attr: "a"}, {Val: "v"}, {Attr: "ü.x", Val: "s:\uE000"}} {
		if got, want := pairHash(p), fnv64(p.Key()); got != want {
			t.Errorf("pairHash(%q) = %d, fnv64(Key) = %d", p, got, want)
		}
	}
	if n < 10000 {
		t.Fatalf("only %d generated pairs checked", n)
	}
}

// TestHashTargetsParity holds hash routing's target lists to the
// reference construction: the sorted set of pair hashes.
func TestHashTargetsParity(t *testing.T) {
	for _, m := range []int{4, 70} {
		cfg := testConfig()
		cfg.M, cfg.Routing = m, HashPairsRouting
		b := newAssignerBolt(cfg, 0)
		b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"joiner": m}})
		gen, _ := datagen.ByName("rwData", 5)
		for _, d := range append(gen.Window(500), document.New(9999, nil)) {
			seen := make(map[int]bool)
			var want []int
			for _, p := range d.Pairs() {
				if h := fnv64(p.Key()) % m; !seen[h] {
					seen[h] = true
					want = append(want, h)
				}
			}
			sort.Ints(want)
			got, broadcast := b.targets(d)
			if !slices.Equal(got, want) || broadcast {
				t.Fatalf("m=%d doc %d: hash targets %v (broadcast %v), reference %v", m, d.ID, got, broadcast, want)
			}
		}
	}
}

func BenchmarkHashTargets(b *testing.B) {
	cfg := testConfig()
	cfg.M, cfg.Routing = 4, HashPairsRouting
	bolt := newAssignerBolt(cfg, 0)
	bolt.Prepare(&topology.TaskContext{Parallelism: map[string]int{"joiner": 4}})
	gen, _ := datagen.ByName("rwData", 5)
	docs := gen.Window(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bolt.hashTargets(docs[i%len(docs)])
	}
}
