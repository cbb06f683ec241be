package core

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/metrics"
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

// refDeltaGate is the reference δ gate: string-keyed counts over the
// whole stream, pruned with one string lookup per entry when a table is
// adopted.
type refDeltaGate struct {
	delta  int
	table  *partition.Table
	spec   *expansion.Expansion
	unseen map[document.Pair]int
}

// window counts the uncovered pairs of one window's documents and
// returns its update requests: for every pair that reached δ in the
// window, the window's lowest-ID document carrying it, each document
// once, in ascending ID.
func (g *refDeltaGate) window(docs []document.Document) []document.Document {
	count := make(map[document.Pair]int)
	first := make(map[document.Pair]document.Document)
	for _, d := range docs {
		td, ok := g.spec.Apply(d)
		if !ok {
			continue
		}
		for _, p := range refUncovered(g.table, td) {
			if f, seen := first[p]; !seen || d.ID < f.ID {
				first[p] = d
			}
			count[p]++
		}
	}
	byID := make(map[uint64]document.Document)
	for p, n := range count {
		if g.unseen[p] < g.delta && g.unseen[p]+n >= g.delta {
			byID[first[p].ID] = first[p]
		}
		g.unseen[p] += n
	}
	var out []document.Document
	for _, d := range byID {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (g *refDeltaGate) adopt(table *partition.Table) {
	g.table = table
	for p := range g.unseen {
		if table.Covers(p) {
			delete(g.unseen, p)
		}
	}
}

// unseenStrings is the merger's δ counts keyed by strings.
func unseenStrings(b *mergerBolt) map[document.Pair]int {
	out := make(map[document.Pair]int, len(b.unseen))
	for sp, n := range b.unseen {
		a, v := symbol.PairStrings(sp)
		out[document.Pair{Attr: a, Val: v}] = n
	}
	return out
}

// TestDeltaUpdateParity runs two assigners with δ = 3 over three
// windows routed under the first window's table; their verdicts go
// through the merger, whose control message carries the additive table
// both adopt at each window boundary. The table each control message
// carries, and the merger's δ counts after it, must be the reference's:
// the window's update requests folded into the previous table in
// ascending document ID.
func TestDeltaUpdateParity(t *testing.T) {
	const size, m, tasks = 800, 4, 2
	for _, dataset := range []string{"nbData", "rwData"} {
		gen, _ := datagen.ByName(dataset, 11)
		table, spec := PlanPartitions(gen.Window(size), m, nil, ExpansionAuto)
		cfg := testConfig()
		cfg.M, cfg.Delta, cfg.Assigners = m, 3, tasks
		var bolts [tasks]*assignerBolt
		for i := range bolts {
			bolts[i] = routedAssigner(cfg, i, table, spec)
		}
		merger := newMergerBolt(cfg)
		merger.table, merger.spec, merger.version, merger.generation = table, spec, 1, 1
		mc := &fakeCollector{}
		ref := &refDeltaGate{delta: 3, table: table, spec: spec, unseen: make(map[document.Pair]int)}
		total := 0
		for w := 1; w <= 3; w++ {
			docs := gen.Window(size)
			var cols [tasks]*fakeCollector
			for task := range cols {
				cols[task] = &fakeCollector{}
			}
			for i, d := range docs {
				bolts[i%tasks].Execute(docTuple(w, d), cols[i%tasks])
			}
			merger.Execute(reportTuple(w, 0, false), mc)
			for task := range bolts {
				bolts[task].Execute(wendTuple(w), cols[task])
				merger.Execute(verdictTuple(cols[task].byStream(streamVerdict)[0].values["msg"].(verdictMsg)), mc)
			}
			updates := ref.window(docs)
			total += len(updates)
			controls := mc.byStream(streamControl)
			ctl := controls[len(controls)-1].values["msg"].(controlMsg)
			if len(updates) > 0 {
				want := ref.table.Clone()
				for _, d := range updates {
					if td, ok := spec.Apply(d); ok {
						want.AddDocument(td)
					}
				}
				if ctl.Table == nil {
					t.Fatalf("%s window %d: %d update requests, no table", dataset, w, len(updates))
				}
				for i := range want.Partitions {
					if got, want := ctl.Table.Partitions[i].Sorted(), want.Partitions[i].Sorted(); !slices.Equal(got, want) {
						t.Fatalf("%s window %d: partition %d = %v, reference %v", dataset, w, i, got, want)
					}
				}
				ref.adopt(want)
			}
			events := mc.byStream(streamMergerEvents)
			if got := events[len(events)-1].values["msg"].(mergerEventMsg).Stats.Updates; got != len(updates) {
				t.Errorf("%s window %d: %d update requests, reference %d", dataset, w, got, len(updates))
			}
			if got := unseenStrings(merger); !maps.Equal(got, ref.unseen) {
				t.Fatalf("%s window %d: %d unseen pairs after the fold, reference %d", dataset, w, len(got), len(ref.unseen))
			}
			for task := range bolts {
				bolts[task].Execute(controlTuple(ctl), cols[task])
			}
		}
		if total == 0 {
			t.Errorf("%s: no update request in three windows — the δ gate went unexercised", dataset)
		}
	}
}

// TestMergerSnapshotKeepsDynamics round-trips the symbol-keyed δ counts
// and the θ baseline through the string-keyed snapshot, and a restored
// merger re-sends control(cut) with the full table, and its next
// message to the creators.
func TestMergerSnapshotKeepsDynamics(t *testing.T) {
	cfg := testConfig()
	b := newMergerBolt(cfg)
	decideInitial(t, b, &fakeCollector{})
	b.unseen[symbol.InternPair("x", "9")] = 2
	b.unseen[symbol.InternPair("y", "s:hello")] = 1
	b.baseline = &metrics.WindowStats{Documents: 2, Deliveries: 3, PerJoiner: []int{2, 1, 0}}
	var buf bytes.Buffer
	if err := b.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := newMergerBolt(cfg)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(unseenStrings(restored), unseenStrings(b)) {
		t.Errorf("restored unseen = %v, want %v", unseenStrings(restored), unseenStrings(b))
	}
	if !reflect.DeepEqual(restored.baseline, b.baseline) ||
		restored.version != 1 || restored.generation != 1 || !restored.table.Covers(intPair2("a", 1)) {
		t.Errorf("restored merger = %+v", restored)
	}
	c := &fakeCollector{}
	restored.Recover(c)
	controls := c.byStream(streamControl)
	if len(controls) != 1 {
		t.Fatalf("Recover sent %d control messages, want 1", len(controls))
	}
	if ctl := controls[0].values["msg"].(controlMsg); ctl.Window != 0 || ctl.Table == nil || ctl.Version != 1 || ctl.Generation != 1 {
		t.Errorf("re-sent control = %+v, want control(0) with the table", ctl)
	}
	if nexts := c.byStream(streamNext); len(nexts) != 1 || nexts[0].values["msg"].(nextMsg).Window != 0 {
		t.Errorf("Recover sent the creators %v, want control(0)'s next message", nexts)
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
