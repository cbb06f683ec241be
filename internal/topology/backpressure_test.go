package topology

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBoundedMailboxBackpressure drives a spout that emits far faster
// than the sink drains (the sink sleeps per tuple) through a capacity
// of 64: the resident queue must never exceed the bound, yet the run
// still terminates with exact accounting.
func TestBoundedMailboxBackpressure(t *testing.T) {
	const n, capacity = 2000, 64
	b := NewBuilder()
	b.MaxPending(capacity)
	b.SetSpout("src", func(int) Spout { return &intSpout{n: n} }, 1)
	var executed atomic.Int64
	b.SetBolt("sink", func(int) Bolt {
		return boltFunc(func(Tuple, Collector) {
			// Drain ~10x slower than the spout emits.
			time.Sleep(20 * time.Microsecond)
			executed.Add(1)
		})
	}, 2).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stats := topo.Run()
	if got := executed.Load(); got != n {
		t.Errorf("executed = %d, want %d", got, n)
	}
	if stats.Emitted["src"] != n || stats.Executed["sink"] != n {
		t.Errorf("stats = %+v", stats)
	}
	for _, task := range topo.tasks {
		if peak := task.Box.Peak(); peak > capacity {
			t.Errorf("peak queue length %d exceeds capacity %d", peak, capacity)
		}
	}
}

// pingBolt forwards each tuple to the feedback stream until its hop
// budget is spent, exercising a bounded topology with a control cycle.
type pingBolt struct{ stream string }

func (p pingBolt) Prepare(*TaskContext) {}
func (p pingBolt) Cleanup()             {}
func (p pingBolt) Execute(t Tuple, c Collector) {
	hops := t.Values["hops"].(int)
	if hops <= 0 {
		return
	}
	c.EmitTo(p.stream, Values{"hops": hops - 1})
}

// TestCycleComponentsStayUnbounded: MaxPending must not bound the
// mailboxes of components on a feedback cycle — a bounded cycle could
// deadlock against itself — while acyclic components keep the bound.
func TestCycleComponentsStayUnbounded(t *testing.T) {
	b := NewBuilder()
	b.MaxPending(1)
	b.SetSpout("src", func(int) Spout { return &intSpout{n: 50} }, 1)
	// ping <-> pong form the control cycle; sink hangs off ping.
	b.SetBolt("ping", func(int) Bolt { return pingBolt{stream: "fwd"} }, 1).
		ShuffleGrouping("src").
		ShuffleGrouping("pong", "back")
	b.SetBolt("pong", func(int) Bolt { return pingBolt{stream: "back"} }, 1).
		ShuffleGrouping("ping", "fwd")
	b.SetBolt("sink", func(int) Bolt { return boltFunc(func(Tuple, Collector) {}) }, 1).
		ShuffleGrouping("src")

	spec, err := b.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"src": 1, "ping": 0, "pong": 0, "sink": 1}
	for _, comp := range spec {
		if comp.MaxPending != want[comp.ID] {
			t.Errorf("MaxPending[%s] = %d, want %d", comp.ID, comp.MaxPending, want[comp.ID])
		}
	}

	// The run must terminate: tuples bounce ping->pong->ping until the
	// hop budget is spent. With a bounded cycle this would deadlock.
	spoutVals := func() *Builder {
		b2 := NewBuilder()
		b2.MaxPending(1)
		b2.SetSpout("src", func(int) Spout { return &hopSpout{n: 50, hops: 6} }, 1)
		b2.SetBolt("ping", func(int) Bolt { return pingBolt{stream: "fwd"} }, 1).
			ShuffleGrouping("src").
			ShuffleGrouping("pong", "back")
		b2.SetBolt("pong", func(int) Bolt { return pingBolt{stream: "back"} }, 1).
			ShuffleGrouping("ping", "fwd")
		return b2
	}
	topo, err := spoutVals().Build()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Stats, 1)
	go func() { done <- topo.Run() }()
	select {
	case stats := <-done:
		if len(stats.Failures) != 0 {
			t.Errorf("failures: %v", stats.Failures)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cyclic topology with MaxPending(1) did not terminate")
	}
}

// hopSpout emits n tuples carrying a feedback hop budget.
type hopSpout struct{ n, next, hops int }

func (s *hopSpout) Open(*TaskContext) {}
func (s *hopSpout) Close()            {}
func (s *hopSpout) NextTuple(c Collector) bool {
	if s.next >= s.n {
		return false
	}
	c.Emit(Values{"hops": s.hops})
	s.next++
	return true
}

// TestBoltMaxPendingOverride: a per-component override beats the
// builder default.
func TestBoltMaxPendingOverride(t *testing.T) {
	b := NewBuilder()
	b.MaxPending(8)
	b.SetSpout("src", func(int) Spout { return &intSpout{n: 1} }, 1)
	sink, _, _ := newSinkFactory()
	b.SetBolt("wide", sink, 1).ShuffleGrouping("src").MaxPending(0)
	b.SetBolt("narrow", sink, 1).ShuffleGrouping("src").MaxPending(2)
	spec, err := b.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"src": 8, "wide": 0, "narrow": 2}
	for _, comp := range spec {
		if comp.MaxPending != want[comp.ID] {
			t.Errorf("MaxPending[%s] = %d, want %d", comp.ID, comp.MaxPending, want[comp.ID])
		}
	}
	if err := NewBuilder().MaxPending(-1).validate(); err == nil {
		t.Error("negative MaxPending must fail validation")
	}
}

// TestShuffleCursorOverflow seeds the round-robin cursor near the
// int64 boundary: the modulo must be computed in uint64, or the index
// goes negative and panics the receiving task (regression test).
func TestShuffleCursorOverflow(t *testing.T) {
	var rr atomic.Uint64
	rr.Store(math.MaxInt64 - 2)
	const nTasks = 3
	seen := make(map[int]bool)
	for i := 0; i < 8; i++ {
		targets := TargetTasks(Shuffle, nil, Values{}, nTasks, &rr)
		if len(targets) != 1 {
			t.Fatalf("targets = %v", targets)
		}
		if targets[0] < 0 || targets[0] >= nTasks {
			t.Fatalf("cursor overflow produced index %d", targets[0])
		}
		seen[targets[0]] = true
	}
	if len(seen) != nTasks {
		t.Errorf("round-robin across the boundary hit %d of %d tasks", len(seen), nTasks)
	}
}

// TestEmittedCountsDeliveries: emissions on streams nobody subscribes
// to must not inflate the emitted counter, and an All-grouping copy
// counts once per receiving task.
func TestEmittedCountsDeliveries(t *testing.T) {
	b := NewBuilder()
	b.SetSpout("src", func(int) Spout { return &intSpout{n: 5, stream: "nowhere"} }, 1)
	sink, _, _ := newSinkFactory()
	b.SetBolt("sink", sink, 2).ShuffleGrouping("src") // default stream: never fed
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if stats := topo.Run(); stats.Emitted["src"] != 0 {
		t.Errorf("emitted = %d for subscriber-less emissions, want 0", stats.Emitted["src"])
	}

	b2 := NewBuilder()
	b2.SetSpout("src", func(int) Spout { return &intSpout{n: 5} }, 1)
	var mu sync.Mutex
	got := 0
	b2.SetBolt("all", func(int) Bolt {
		return boltFunc(func(Tuple, Collector) { mu.Lock(); got++; mu.Unlock() })
	}, 3).AllGrouping("src")
	topo2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	stats := topo2.Run()
	if stats.Emitted["src"] != 15 {
		t.Errorf("emitted = %d, want 15 delivered copies", stats.Emitted["src"])
	}
	mu.Lock()
	defer mu.Unlock()
	if got != 15 {
		t.Errorf("received = %d, want 15", got)
	}
}
