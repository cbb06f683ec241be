package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"slices"
	"testing"

	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/symbol"
	"repro/internal/topology"
)

// fakeCollector records emissions for bolt unit tests.
type fakeCollector struct {
	emitted []emission
}

type emission struct {
	stream string
	task   int // -1 for non-direct
	values topology.Values
}

func (f *fakeCollector) Emit(v topology.Values) { f.EmitTo(topology.DefaultStream, v) }
func (f *fakeCollector) EmitTo(stream string, v topology.Values) {
	f.emitted = append(f.emitted, emission{stream: stream, task: -1, values: v})
}
func (f *fakeCollector) EmitDirect(stream string, task int, v topology.Values) {
	f.emitted = append(f.emitted, emission{stream: stream, task: task, values: v})
}

func (f *fakeCollector) byStream(stream string) []emission {
	var out []emission
	for _, e := range f.emitted {
		if e.stream == stream {
			out = append(out, e)
		}
	}
	return out
}

func docTuple(w int, d document.Document) topology.Tuple {
	return topology.Tuple{Stream: streamDocs, Values: topology.Values{"doc": d, "window": w}}
}

func wendTuple(w int) topology.Tuple {
	return topology.Tuple{Stream: streamWindowEnd, Values: topology.Values{"window": w}}
}

func testConfig() Config {
	cfg, err := Config{
		M: 3, Creators: 1, Assigners: 1, WindowSize: 4, Windows: 2,
		Source: &replaySource{},
	}.withDefaults()
	if err != nil {
		panic(err)
	}
	return cfg
}

// --- creator ---------------------------------------------------------

func TestCreatorFirstWindowComputes(t *testing.T) {
	cfg := testConfig()
	b := newCreatorBolt(cfg, 0)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"assigner": 1}})
	c := &fakeCollector{}
	b.Execute(docTuple(0, document.MustParse(1, `{"a":1}`)), c)
	b.Execute(wendTuple(0), c)
	got := c.byStream(streamCreatorWindow)
	if len(got) != 1 {
		t.Fatalf("creatorWindow emissions = %d", len(got))
	}
	msg := got[0].values["msg"].(creatorWindowMsg)
	if !msg.Computing || msg.Window != 0 {
		t.Errorf("first window must compute: %+v", msg)
	}
}

func controlTuple(ctl controlMsg) topology.Tuple {
	return topology.Tuple{Stream: streamControl, Values: topology.Values{"msg": ctl}}
}

func nextTuple(w int, computeNext bool) topology.Tuple {
	return topology.Tuple{Stream: streamNext, Values: topology.Values{"msg": nextMsg{Window: w, ComputeNext: computeNext}}}
}

func verdictTuple(v verdictMsg) topology.Tuple {
	return topology.Tuple{Stream: streamVerdict, Values: topology.Values{"msg": v}}
}

// routedVerdict is task's verdict for window w, one document per
// target list, each routed to those joiners.
func routedVerdict(m, w, task int, targets ...[]int) verdictMsg {
	v := verdictMsg{Window: w, Task: task, Stats: *metrics.NewWindowStats(m)}
	for _, ts := range targets {
		v.Stats.RecordDelivery(ts, len(ts) == m)
	}
	return v
}

// uncoveredVerdict is task's verdict for window w in which every pair
// of every document went uncovered.
func uncoveredVerdict(m, w, task int, docs ...document.Document) verdictMsg {
	v := verdictMsg{Window: w, Task: task, Stats: *metrics.NewWindowStats(m)}
	index := make(map[symbol.Pair]int)
	for _, d := range docs {
		v.count(index, d.InternedPairs(), d)
	}
	return v
}

func reportTuple(w, task int, computing bool) topology.Tuple {
	return topology.Tuple{Stream: streamCreatorWindow, Values: topology.Values{
		"msg": creatorWindowMsg{Window: w, Task: task, Computing: computing},
	}}
}

func groupsTuple(w, task int, groups ...partition.AssocGroup) topology.Tuple {
	return topology.Tuple{Stream: streamLocalGroups, Values: topology.Values{
		"msg": localGroupsMsg{Window: w, Task: task, Groups: groups},
	}}
}

// TestCreatorWaitsForDecisions: a creator closes window w only once it
// holds control(w-1), and computes when that message says so.
func TestCreatorWaitsForDecisions(t *testing.T) {
	cfg := testConfig()
	cfg.Assigners = 2
	b := newCreatorBolt(cfg, 0)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"assigner": 2}})
	c := &fakeCollector{}
	b.Execute(wendTuple(0), c) // window 0 needs no control message
	if len(c.byStream(streamCreatorWindow)) != 1 {
		t.Fatal("window 0 must close immediately")
	}
	b.Execute(wendTuple(1), c)
	b.Execute(wendTuple(2), c)
	if len(c.byStream(streamCreatorWindow)) != 1 {
		t.Fatal("window 1 closed before control(0)")
	}
	b.Execute(nextTuple(0, false), c)
	got := c.byStream(streamCreatorWindow)
	if len(got) != 2 {
		t.Fatalf("window 1 did not close on control(0), or window 2 closed without control(1): %d reports", len(got))
	}
	if msg := got[1].values["msg"].(creatorWindowMsg); msg.Window != 1 || msg.Computing {
		t.Errorf("report after control(0) = %+v, want window 1 not computing", msg)
	}
	b.Execute(nextTuple(1, true), c)
	got = c.byStream(streamCreatorWindow)
	if len(got) != 3 {
		t.Fatalf("window 2 did not close on control(1): %d reports", len(got))
	}
	if msg := got[2].values["msg"].(creatorWindowMsg); msg.Window != 2 || !msg.Computing {
		t.Errorf("report after control(1) asked for θ = %+v, want window 2 computing", msg)
	}
}

// TestCreatorMigrationKeepsNextDecision: at a rescale frontier a
// creator holds control(w)'s verdict for window w+1, and nothing
// re-sends it, so its migration snapshot must carry it.
func TestCreatorMigrationKeepsNextDecision(t *testing.T) {
	cfg := testConfig()
	b := newCreatorBolt(cfg, 0)
	c := &fakeCollector{}
	b.Execute(wendTuple(0), c)
	b.Execute(nextTuple(0, true), c)
	var buf bytes.Buffer
	if err := b.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	moved := newCreatorBolt(cfg, 0)
	if err := moved.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	moved.Execute(wendTuple(1), c)
	got := c.byStream(streamCreatorWindow)
	if len(got) != 2 {
		t.Fatalf("migrated creator did not close window 1: %d reports", len(got))
	}
	if msg := got[1].values["msg"].(creatorWindowMsg); msg.Window != 1 || !msg.Computing {
		t.Errorf("report after migration = %+v, want window 1 computing", msg)
	}
}

func TestCreatorRespondsToExpansion(t *testing.T) {
	cfg := testConfig()
	b := newCreatorBolt(cfg, 0)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"assigner": 1}})
	c := &fakeCollector{}
	b.Execute(docTuple(0, document.MustParse(1, `{"a":1,"b":2}`)), c)
	b.Execute(wendTuple(0), c)
	b.Execute(topology.Tuple{Stream: streamExpansion, Values: topology.Values{
		"msg": expansionMsg{Window: 0, Spec: nil},
	}}, c)
	got := c.byStream(streamLocalGroups)
	if len(got) != 1 {
		t.Fatalf("localGroups emissions = %d", len(got))
	}
	msg := got[0].values["msg"].(localGroupsMsg)
	if len(msg.Groups) == 0 {
		t.Error("no groups computed from the buffered sample")
	}
	// The buffer must be released.
	if len(b.buffers) != 0 {
		t.Errorf("buffers not cleared: %v", len(b.buffers))
	}
}

func TestCreatorCompetitorShipsDocsAsGroups(t *testing.T) {
	cfg := testConfig()
	cfg.Partitioner = partition.DisjointSets{}
	b := newCreatorBolt(cfg, 0)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"assigner": 1}})
	c := &fakeCollector{}
	b.Execute(docTuple(0, document.MustParse(1, `{"a":1,"b":2}`)), c)
	b.Execute(docTuple(0, document.MustParse(2, `{"a":1}`)), c)
	b.Execute(wendTuple(0), c)
	b.Execute(topology.Tuple{Stream: streamExpansion, Values: topology.Values{
		"msg": expansionMsg{Window: 0, Spec: nil},
	}}, c)
	msg := c.byStream(streamLocalGroups)[0].values["msg"].(localGroupsMsg)
	if len(msg.Groups) != 2 {
		t.Fatalf("competitor groups = %d, want one per document", len(msg.Groups))
	}
	for _, g := range msg.Groups {
		if g.Load != 1 {
			t.Errorf("competitor group load = %d, want 1", g.Load)
		}
	}
}

// --- merger ----------------------------------------------------------

func TestMergerTwoRoundProtocol(t *testing.T) {
	cfg := testConfig()
	cfg.Creators = 2
	b := newMergerBolt(cfg)
	c := &fakeCollector{}
	// First creator reports; nothing happens yet.
	b.Execute(reportTuple(0, 0, true), c)
	if len(c.byStream(streamExpansion)) != 0 {
		t.Fatal("expansion sent before all creators reported")
	}
	b.Execute(reportTuple(0, 1, true), c)
	if len(c.byStream(streamExpansion)) != 1 {
		t.Fatal("expansion round not started")
	}
	// Local groups from both creators and the assigner's verdict
	// complete the round.
	g := partition.AssocGroup{Pairs: partition.NewPairSet(intPair2("a", 1)), Load: 2, Docs: []uint64{1, 2}}
	b.Execute(groupsTuple(0, 0, g), c)
	b.Execute(verdictTuple(verdictMsg{Window: 0, Task: 0}), c)
	if len(c.byStream(streamControl)) != 0 {
		t.Fatal("control sent before all groups arrived")
	}
	g2 := partition.AssocGroup{Pairs: partition.NewPairSet(intPair2("b", 2)), Load: 1, Docs: []uint64{3}}
	b.Execute(groupsTuple(0, 1, g2), c)
	controls := c.byStream(streamControl)
	if len(controls) != 1 {
		t.Fatalf("controls = %d, want 1", len(controls))
	}
	msg := controls[0].values["msg"].(controlMsg)
	if msg.Version != 1 || msg.Window != 0 || msg.Recomputed || msg.Table == nil {
		t.Fatalf("initial control msg = %+v", msg)
	}
	if !msg.Table.Covers(intPair2("a", 1)) || !msg.Table.Covers(intPair2("b", 2)) {
		t.Error("table does not cover the consolidated pairs")
	}
}

// TestMergerNonComputingWindowIsQuiet: a window that neither computes
// nor carries updates waits for its verdicts, then sends one control
// message without a table, and leaves no round state behind.
func TestMergerNonComputingWindowIsQuiet(t *testing.T) {
	cfg := testConfig()
	b := newMergerBolt(cfg)
	c := &fakeCollector{}
	b.Execute(reportTuple(1, 0, false), c)
	if len(c.emitted) != 0 {
		t.Errorf("emissions before the verdict: %v", c.emitted)
	}
	b.Execute(verdictTuple(verdictMsg{Window: 1, Task: 0}), c)
	if n := len(c.byStream(streamExpansion)); n != 0 {
		t.Errorf("expansion round on a quiet window: %d", n)
	}
	controls := c.byStream(streamControl)
	if len(controls) != 1 {
		t.Fatalf("controls = %d, want 1", len(controls))
	}
	if msg := controls[0].values["msg"].(controlMsg); msg.Table != nil || msg.ComputeNext || msg.Window != 1 {
		t.Errorf("quiet window's control = %+v", msg)
	}
	if len(b.rounds) != 0 {
		t.Error("round state leaked")
	}
}

// decideInitial runs window 0's computation round on a one-creator
// merger, with a table covering a=1.
func decideInitial(t *testing.T, b *mergerBolt, c *fakeCollector) {
	t.Helper()
	b.Execute(reportTuple(0, 0, true), c)
	g := partition.AssocGroup{Pairs: partition.NewPairSet(intPair2("a", 1)), Load: 1, Docs: []uint64{1}}
	b.Execute(groupsTuple(0, 0, g), c)
	for task := 0; task < b.cfg.Assigners; task++ {
		b.Execute(verdictTuple(verdictMsg{Window: 0, Task: task}), c)
	}
	if n := len(c.byStream(streamControl)); n != 1 {
		t.Fatalf("controls after window 0 = %d, want 1", n)
	}
}

// TestMergerCoalescesUpdates: the merger counts uncovered pairs over
// every assigner's verdict, and a pair reaching δ in a window makes the
// window's lowest-ID document carrying it an update request. The
// requests fold into one new table version, sent in that window's
// control message; a window without one keeps the table.
func TestMergerCoalescesUpdates(t *testing.T) {
	cfg := testConfig()
	cfg.Assigners, cfg.Delta = 2, 2
	b := newMergerBolt(cfg)
	c := &fakeCollector{}
	decideInitial(t, b, c)
	y8a, y8b := document.MustParse(10, `{"y":8}`), document.MustParse(11, `{"y":8}`)
	z9a, z9b := document.MustParse(9, `{"z":9}`), document.MustParse(13, `{"z":9}`)
	w7 := document.MustParse(12, `{"w":7}`)
	// y=8 reaches δ at task 1 alone, z=9 only across both tasks, w=7
	// not at all.
	b.Execute(verdictTuple(uncoveredVerdict(cfg.M, 1, 1, y8a, y8b, z9b)), c)
	b.Execute(verdictTuple(uncoveredVerdict(cfg.M, 1, 0, z9a, w7)), c)
	if n := len(c.byStream(streamControl)); n != 1 {
		t.Fatalf("updates broadcast before the window was decided: controls = %d", n)
	}
	b.Execute(reportTuple(1, 0, false), c)
	controls := c.byStream(streamControl)
	if len(controls) != 2 {
		t.Fatalf("controls = %d, want 2", len(controls))
	}
	msg := controls[1].values["msg"].(controlMsg)
	if msg.Version != 2 || msg.Generation != 1 || msg.Window != 1 || msg.Recomputed || msg.Table == nil {
		t.Fatalf("update control msg = %+v", msg)
	}
	if !msg.Table.Covers(intPair2("z", 9)) || !msg.Table.Covers(intPair2("y", 8)) || !msg.Table.Covers(intPair2("a", 1)) {
		t.Error("coalesced updates missing from the table")
	}
	if msg.Table.Covers(intPair2("w", 7)) {
		t.Error("a pair below δ was added to the table")
	}
	if ev := c.byStream(streamMergerEvents)[1].values["msg"].(mergerEventMsg); ev.Stats.Updates != 2 || !ev.NewTable {
		t.Errorf("event(1) = %+v, want 2 update requests and a new table", ev)
	}
	// A window without updates keeps the table.
	b.Execute(reportTuple(2, 0, false), c)
	b.Execute(verdictTuple(verdictMsg{Window: 2, Task: 0}), c)
	b.Execute(verdictTuple(verdictMsg{Window: 2, Task: 1}), c)
	if msg := c.byStream(streamControl)[2].values["msg"].(controlMsg); msg.Table != nil || msg.Version != 2 {
		t.Errorf("control without updates = %+v, want no table at version 2", msg)
	}
	// w=7's second occurrence, a window later, reaches δ.
	b.Execute(reportTuple(3, 0, false), c)
	b.Execute(verdictTuple(uncoveredVerdict(cfg.M, 3, 0, document.MustParse(30, `{"w":7}`))), c)
	b.Execute(verdictTuple(verdictMsg{Window: 3, Task: 1}), c)
	if msg := c.byStream(streamControl)[3].values["msg"].(controlMsg); msg.Table == nil || !msg.Table.Covers(intPair2("w", 7)) || msg.Version != 3 {
		t.Errorf("control(3) = %+v, want w=7 added at version 3", msg)
	}
	if len(b.unseen) != 0 {
		t.Errorf("covered pairs still counted: %v", b.unseen)
	}
}

// TestMergerOneControlPerWindow: one control message per window, sent
// only once every assigner's verdict is in — a verdict delivered twice
// counts once — and asking the next window to compute when the
// window's summed routing degraded beyond θ; a window that did not
// degrade does not.
func TestMergerOneControlPerWindow(t *testing.T) {
	cfg := testConfig()
	cfg.Assigners = 3
	b := newMergerBolt(cfg)
	c := &fakeCollector{}
	decideInitial(t, b, c)
	// Window 1, the first routed under the table, is the θ baseline:
	// replication 1.
	b.Execute(reportTuple(1, 0, false), c)
	for task := 0; task < 3; task++ {
		b.Execute(verdictTuple(routedVerdict(cfg.M, 1, task, []int{task})), c)
	}
	// Window 2 replicates every document three times.
	b.Execute(reportTuple(2, 0, false), c)
	b.Execute(verdictTuple(routedVerdict(cfg.M, 2, 0, []int{0, 1, 2})), c)
	b.Execute(verdictTuple(routedVerdict(cfg.M, 2, 0, []int{0, 1, 2})), c)
	b.Execute(verdictTuple(routedVerdict(cfg.M, 2, 1, []int{0, 1, 2})), c)
	if n := len(c.byStream(streamControl)); n != 2 {
		t.Fatalf("duplicate verdict counted: controls = %d before the third task's verdict", n)
	}
	b.Execute(verdictTuple(routedVerdict(cfg.M, 2, 2, []int{0, 1, 2})), c)
	controls := c.byStream(streamControl)
	if len(controls) != 3 {
		t.Fatalf("controls = %d, want one per window", len(controls))
	}
	if msg := controls[1].values["msg"].(controlMsg); msg.ComputeNext {
		t.Errorf("control(1) = %+v, the baseline window must not recompute", msg)
	}
	if msg := controls[2].values["msg"].(controlMsg); !msg.ComputeNext || msg.Window != 2 {
		t.Errorf("control(2) = %+v, want ComputeNext", msg)
	}
	events := c.byStream(streamMergerEvents)
	if len(events) != 3 {
		t.Fatalf("merger events = %d, want one per control message", len(events))
	}
	if ev := events[2].values["msg"].(mergerEventMsg); ev.Stats.Documents != 3 || ev.Stats.Deliveries != 9 || !ev.Stats.Repartitioned {
		t.Errorf("event(2) stats = %+v, want 3 documents, 9 deliveries, repartitioned", ev.Stats)
	}
	b.Execute(reportTuple(3, 0, true), c)
	for task := 0; task < 3; task++ {
		b.Execute(verdictTuple(verdictMsg{Window: 3, Task: task}), c)
	}
	b.Execute(groupsTuple(3, 0), c)
	controls = c.byStream(streamControl)
	if len(controls) != 4 {
		t.Fatalf("controls = %d, want 4", len(controls))
	}
	if msg := controls[3].values["msg"].(controlMsg); msg.ComputeNext || !msg.Recomputed || msg.Table == nil || msg.Version != 2 || msg.Generation != 2 {
		t.Errorf("control(3) = %+v, want a recomputed table of generation 2 and no further computation", msg)
	}
	// The creators get each control message's verdict on the next
	// window, and no table.
	nexts := c.byStream(streamNext)
	if len(nexts) != len(controls) {
		t.Fatalf("next messages = %d, want one per control message (%d)", len(nexts), len(controls))
	}
	for i, e := range nexts {
		ctl := controls[i].values["msg"].(controlMsg)
		if msg := e.values["msg"].(nextMsg); msg != (nextMsg{Window: ctl.Window, ComputeNext: ctl.ComputeNext}) {
			t.Errorf("next message %d = %+v, control message %+v", i, msg, ctl)
		}
	}
}

// TestConsecutiveRepartitionsComputeTwice: windows 2 and 3 both degrade
// beyond θ against window 1's baseline, so the following windows 3 and
// 4 are both computation windows. Merger and creator are wired back to
// back.
func TestConsecutiveRepartitionsComputeTwice(t *testing.T) {
	cfg := testConfig()
	merger := newMergerBolt(cfg)
	creator := newCreatorBolt(cfg, 0)
	creator.Prepare(&topology.TaskContext{})
	mc, cc := &fakeCollector{}, &fakeCollector{}
	// pump delivers every new emission between the two bolts.
	sentM, sentC := 0, 0
	pump := func() {
		for sentM < len(mc.emitted) || sentC < len(cc.emitted) {
			for ; sentC < len(cc.emitted); sentC++ {
				e := cc.emitted[sentC]
				merger.Execute(topology.Tuple{Stream: e.stream, Values: e.values}, mc)
			}
			for ; sentM < len(mc.emitted); sentM++ {
				e := mc.emitted[sentM]
				if e.stream == streamNext || e.stream == streamExpansion {
					creator.Execute(topology.Tuple{Stream: e.stream, Values: e.values}, cc)
				}
			}
		}
	}
	for w := 0; w < 7; w++ {
		targets := []int{0}
		if w == 2 || w == 3 {
			targets = []int{0, 1, 2}
		}
		creator.Execute(docTuple(w, document.MustParse(uint64(w+1), `{"a":1}`)), cc)
		creator.Execute(wendTuple(w), cc)
		merger.Execute(verdictTuple(routedVerdict(cfg.M, w, 0, targets)), mc)
		pump()
	}
	var computing []int
	for _, e := range cc.byStream(streamCreatorWindow) {
		if msg := e.values["msg"].(creatorWindowMsg); msg.Computing {
			computing = append(computing, msg.Window)
		}
	}
	if !slices.Equal(computing, []int{0, 3, 4}) {
		t.Errorf("computation windows = %v, want [0 3 4]", computing)
	}
	var recomputed []int
	for _, e := range mc.byStream(streamControl) {
		if msg := e.values["msg"].(controlMsg); msg.Recomputed {
			recomputed = append(recomputed, msg.Window)
		}
	}
	if !slices.Equal(recomputed, []int{3, 4}) {
		t.Errorf("recomputed tables in control messages of windows %v, want [3 4]", recomputed)
	}
}

// --- assigner --------------------------------------------------------

func intPair2(a string, v int) document.Pair {
	return document.Pair{Attr: a, Val: document.EncodeInt(int64(v))}
}

func newTable(pairs ...document.Pair) *partition.Table {
	return partition.NewTable([]partition.PairSet{partition.NewPairSet(pairs...), partition.NewPairSet(), partition.NewPairSet()})
}

// deploy hands an assigner a table the way the merger does: window w
// ends and control(w) carries the table.
func deploy(b *assignerBolt, w, version int, table *partition.Table, spec *expansion.Expansion, c topology.Collector) {
	b.Execute(wendTuple(w), c)
	b.Execute(controlTuple(controlMsg{Window: w, Version: version, Table: table, Expansion: spec}), c)
}

func TestAssignerBroadcastsWithoutTable(t *testing.T) {
	cfg := testConfig()
	b := newAssignerBolt(cfg, 0)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"joiner": 3}})
	c := &fakeCollector{}
	b.Execute(docTuple(0, document.MustParse(1, `{"a":1}`)), c)
	if n := len(c.byStream(streamToJoin)); n != 3 {
		t.Errorf("deliveries = %d, want broadcast to 3", n)
	}
}

func TestAssignerRoutesWithTable(t *testing.T) {
	cfg := testConfig()
	b := newAssignerBolt(cfg, 0)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"joiner": 3}})
	c := &fakeCollector{}
	deploy(b, 0, 1, newTable(intPair2("a", 1)), nil, c)
	b.Execute(docTuple(1, document.New(1, []document.Pair{intPair2("a", 1)})), c)
	got := c.byStream(streamToJoin)
	if len(got) != 1 || got[0].task != 0 {
		t.Errorf("routed to %v, want exactly task 0", got)
	}
}

func TestAssignerBarrierBuffersUntilTable(t *testing.T) {
	cfg := testConfig()
	b := newAssignerBolt(cfg, 0)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"joiner": 3}})
	c := &fakeCollector{}
	// Window 0 streams and ends: the barrier engages.
	b.Execute(docTuple(0, document.New(1, []document.Pair{intPair2("a", 1)})), c)
	b.Execute(wendTuple(0), c)
	pre := len(c.byStream(streamToJoin))
	// Window 1 documents arrive while waiting: buffered, not routed.
	b.Execute(docTuple(1, document.New(2, []document.Pair{intPair2("a", 1)})), c)
	if n := len(c.byStream(streamToJoin)); n != pre {
		t.Fatalf("document routed through the barrier: %d > %d", n, pre)
	}
	// control(0) arrives: the buffer drains, the doc routes to the
	// matching partition only.
	b.Execute(controlTuple(controlMsg{Window: 0, Version: 1, Table: newTable(intPair2("a", 1))}), c)
	got := c.byStream(streamToJoin)
	if len(got) != pre+1 {
		t.Fatalf("barrier did not drain: %d", len(got))
	}
	if got[len(got)-1].task != 0 {
		t.Errorf("drained doc routed to task %d, want 0", got[len(got)-1].task)
	}
}

// TestAssignerBarrierEveryWindow: the barrier engages at every
// punctuation, including after a control message without a table, and
// a window's documents wait for the previous window's control message.
func TestAssignerBarrierEveryWindow(t *testing.T) {
	cfg := testConfig()
	b := newAssignerBolt(cfg, 0)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"joiner": 3}})
	c := &fakeCollector{}
	deploy(b, 0, 1, newTable(intPair2("a", 1)), nil, c)
	pre := len(c.byStream(streamToJoin))
	b.Execute(wendTuple(1), c)
	b.Execute(docTuple(2, document.New(9, []document.Pair{intPair2("a", 1)})), c)
	b.Execute(wendTuple(2), c)
	b.Execute(docTuple(3, document.New(10, []document.Pair{intPair2("a", 1)})), c)
	if n := len(c.byStream(streamToJoin)); n != pre {
		t.Fatal("window 2 document routed before control(1)")
	}
	b.Execute(controlTuple(controlMsg{Window: 1, Version: 1}), c)
	if n := len(c.byStream(streamToJoin)); n != pre+1 {
		t.Fatalf("control(1) released %d documents, want window 2's one", len(c.byStream(streamToJoin))-pre)
	}
	if !b.waiting || b.waitWindow != 2 {
		t.Fatal("barrier not re-engaged at punctuation 2")
	}
	b.Execute(controlTuple(controlMsg{Window: 2, Version: 1}), c)
	if n := len(c.byStream(streamToJoin)); n != pre+2 || b.waiting {
		t.Fatalf("control(2) did not release window 3: %d routed, waiting %v", n-pre, b.waiting)
	}
}

// TestAssignerDeltaGate: an assigner decides no δ gate. It counts every
// occurrence of an uncovered pair into the window's verdict, with the
// lowest-ID document carrying the pair, stored once.
func TestAssignerDeltaGate(t *testing.T) {
	cfg := testConfig()
	cfg.Delta = 2
	b := newAssignerBolt(cfg, 0)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"joiner": 3}})
	c := &fakeCollector{}
	deploy(b, 0, 1, newTable(intPair2("a", 1)), nil, c)
	pre := len(c.byStream(streamToJoin))
	b.Execute(docTuple(1, document.New(5, []document.Pair{intPair2("z", 7), intPair2("y", 1)})), c)
	b.Execute(docTuple(1, document.New(6, []document.Pair{intPair2("z", 7)})), c)
	b.Execute(docTuple(1, document.New(7, []document.Pair{intPair2("a", 1)})), c)
	b.Execute(wendTuple(1), c)
	verdicts := c.byStream(streamVerdict)
	v := verdicts[len(verdicts)-1].values["msg"].(verdictMsg)
	z7 := symbol.InternPair("z", intPair2("z", 7).Val)
	y1 := symbol.InternPair("y", intPair2("y", 1).Val)
	// Document 5's pairs in their sorted order, y before z.
	if want := []pairCount{{Pair: y1, N: 1, Doc: 0}, {Pair: z7, N: 2, Doc: 0}}; v.Window != 1 || !slices.Equal(v.Uncovered, want) {
		t.Fatalf("verdict(1) = %+v, want y=1 once and z=7 twice, both first in document 5", v)
	}
	if len(v.Docs) != 1 || v.Docs[0].ID != 5 {
		t.Errorf("verdict(1) documents = %v, want document 5 alone", v.Docs)
	}
	if v.Stats.Documents != 3 || v.Stats.Broadcasts != 2 || v.Stats.Deliveries != 7 || !slices.Equal(v.Stats.PerJoiner, []int{3, 2, 2}) {
		t.Errorf("verdict(1) stats = %+v", v.Stats)
	}
	// Both uncovered documents were broadcast meanwhile.
	if n := len(c.byStream(streamToJoin)) - pre; n != 7 {
		t.Errorf("deliveries = %d, want 2 broadcasts x 3 joiners + 1", n)
	}
}

// TestVerdictGobRoundTrip: a verdict crosses the wire with its pairs as
// strings and arrives with the same counts and documents.
func TestVerdictGobRoundTrip(t *testing.T) {
	v := uncoveredVerdict(3, 4, 1, document.MustParse(8, `{"x":"hello","n":2}`), document.MustParse(9, `{"x":"hello"}`))
	v.Stats.RecordDelivery([]int{0, 2}, false)
	v.GenLow, v.GenHigh = 2, 3
	var buf bytes.Buffer
	RegisterGobTypes()
	var in any = v
	if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
		t.Fatal(err)
	}
	var out any
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if got := out.(verdictMsg); !reflect.DeepEqual(got, v) {
		t.Errorf("round trip = %+v, want %+v", got, v)
	}
}

func TestAssignerEmitsDecisionEveryWindow(t *testing.T) {
	cfg := testConfig()
	b := newAssignerBolt(cfg, 0)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"joiner": 3}})
	c := &fakeCollector{}
	for w := 0; w < 3; w++ {
		b.Execute(docTuple(w, document.New(uint64(w+1), []document.Pair{intPair2("a", 1)})), c)
		b.Execute(wendTuple(w), c)
		b.Execute(controlTuple(controlMsg{Window: w, Version: 1, Table: newTable(intPair2("a", 1))}), c)
	}
	verdicts := c.byStream(streamVerdict)
	if len(verdicts) != 3 {
		t.Fatalf("verdicts = %d, want one per window", len(verdicts))
	}
	for i, e := range verdicts {
		if msg := e.values["msg"].(verdictMsg); msg.Window != i {
			t.Errorf("verdict %d for window %d", i, msg.Window)
		}
	}
}

// TestAssignerStaleTableIgnored: a control message is adopted
// once, at its own punctuation; a duplicate must not replace the table.
func TestAssignerStaleTableIgnored(t *testing.T) {
	cfg := testConfig()
	b := newAssignerBolt(cfg, 0)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"joiner": 3}})
	c := &fakeCollector{}
	deploy(b, 0, 2, newTable(intPair2("a", 1)), nil, c)
	b.Execute(controlTuple(controlMsg{Window: 0, Version: 3, Table: newTable(intPair2("b", 2))}), c)
	if b.version != 2 {
		t.Errorf("version = %d, want 2", b.version)
	}
	if b.table.Covers(intPair2("b", 2)) {
		t.Error("duplicate control adopted")
	}
}
