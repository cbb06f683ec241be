package cluster

import (
	"encoding/gob"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/topology"
)

// windowSpout emits sequential ints in fixed-size windows and reports
// window frontiers, so an elastic rescale can park it between windows.
type windowSpout struct {
	windows, perWindow int
	gap                time.Duration

	window, pos int
}

func (s *windowSpout) Open(*topology.TaskContext) {}
func (s *windowSpout) Close()                     {}
func (s *windowSpout) AtFrontier() bool           { return s.pos == 0 }
func (s *windowSpout) Frontier() int              { return s.window - 1 }
func (s *windowSpout) NextTuple(c topology.Collector) bool {
	if s.window >= s.windows {
		return false
	}
	if s.pos == 0 && s.gap > 0 {
		time.Sleep(s.gap)
	}
	c.Emit(topology.Values{"v": s.window*s.perWindow + s.pos})
	s.pos++
	if s.pos == s.perWindow {
		s.pos = 0
		s.window++
	}
	return s.window < s.windows
}

// migrBolt records every executed value in a shared map (exactly-once
// check) and counts executions in its own state; migration must carry
// the count to the task's new home, where Cleanup folds it into the
// shared total — without state transfer the moved task's pre-move
// count would be lost.
type migrBolt struct {
	mu    *sync.Mutex
	seen  map[int]int
	final *int

	count int
}

func (b *migrBolt) Prepare(*topology.TaskContext) {}
func (b *migrBolt) Execute(t topology.Tuple, _ topology.Collector) {
	v := t.Values["v"].(int)
	b.mu.Lock()
	b.seen[v]++
	b.mu.Unlock()
	b.count++
}
func (b *migrBolt) Cleanup() {
	b.mu.Lock()
	*b.final += b.count
	b.mu.Unlock()
}
func (b *migrBolt) Snapshot(w io.Writer) error { return gob.NewEncoder(w).Encode(b.count) }
func (b *migrBolt) Restore(r io.Reader) error  { return gob.NewDecoder(r).Decode(&b.count) }

// TestElasticRescaleGrowShrink runs a live cluster through a grow
// (2 -> 3, with a joining worker) and a shrink (3 -> 1) mid-stream:
// every value must be executed exactly once, the migrated bolts'
// internal counters must survive their moves, and the final statistics
// must balance.
func TestElasticRescaleGrowShrink(t *testing.T) {
	const windows, perWindow = 80, 25
	const n = windows * perWindow
	mu := &sync.Mutex{}
	seen := make(map[int]int)
	final := 0
	makeBuilder := func() *topology.Builder {
		b := topology.NewBuilder()
		b.SetSpout("src", func(int) topology.Spout {
			return &windowSpout{windows: windows, perWindow: perWindow, gap: time.Millisecond}
		}, 1)
		b.SetBolt("sink", func(int) topology.Bolt {
			return &migrBolt{mu: mu, seen: seen, final: &final}
		}, 4).ShuffleGrouping("src")
		return b
	}
	coord, err := NewCoordinator(2)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 3)
	for i := 0; i < 2; i++ {
		w, err := NewWorker(i, 2, makeBuilder(), coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		go func() { errs <- w.Run() }()
	}
	var stats topology.Stats
	var runErr error
	finished := make(chan struct{})
	go func() {
		stats, runErr = coord.Run()
		close(finished)
	}()

	// Grow 2 -> 3: the joiner idles on its handshake until welcomed.
	j, err := NewJoiningWorker(2, makeBuilder(), coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	go func() { errs <- j.Run() }()
	if err := coord.Rescale(3); err != nil {
		t.Fatalf("rescale 2 -> 3: %v", err)
	}
	table, epoch, err := coord.PlacementInfo()
	if err != nil {
		t.Fatalf("placement info: %v", err)
	}
	if epoch != 1 {
		t.Errorf("epoch after grow = %d, want 1", epoch)
	}
	hosts := make(map[int]bool)
	for _, assign := range table {
		for _, w := range assign {
			hosts[w] = true
		}
	}
	if len(hosts) != 3 {
		t.Errorf("tasks hosted on %d workers after grow, want 3 (table %v)", len(hosts), table)
	}

	// Shrink 3 -> 1: workers 1 and 2 drain, migrate out, and retire;
	// worker 0 keeps the (pinned) spout and inherits every sink task.
	if err := coord.Rescale(1); err != nil {
		t.Fatalf("rescale 3 -> 1: %v", err)
	}
	table, epoch, err = coord.PlacementInfo()
	if err != nil {
		t.Fatalf("placement info: %v", err)
	}
	if epoch != 2 {
		t.Errorf("epoch after shrink = %d, want 2", epoch)
	}
	for comp, assign := range table {
		for task, w := range assign {
			if w != 0 {
				t.Errorf("%s[%d] on worker %d after shrink to 1", comp, task, w)
			}
		}
	}

	<-finished
	if runErr != nil {
		t.Fatalf("coordinator: %v", runErr)
	}
	for i := 0; i < 3; i++ {
		if werr := <-errs; werr != nil {
			t.Errorf("worker: %v", werr)
		}
	}
	if len(stats.Failures) != 0 {
		t.Fatalf("failures: %v", stats.Failures)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Errorf("distinct values executed = %d, want %d", len(seen), n)
	}
	for v, times := range seen {
		if times != 1 {
			t.Errorf("value %d executed %d times", v, times)
		}
	}
	if final != n {
		t.Errorf("migrated state total = %d, want %d (bolt state lost in a move)", final, n)
	}
	if stats.Executed["sink"] != n {
		t.Errorf("executed = %d, want %d", stats.Executed["sink"], n)
	}
	checkLedger(t, stats)
}

// TestRescaleShrinkRejectsPinned: a shrink that would have to evict a
// spout-hosting worker fails before the cluster is touched.
func TestRescaleShrinkRejectsPinned(t *testing.T) {
	mu := &sync.Mutex{}
	seen := make(map[int]int)
	final := 0
	makeBuilder := func() *topology.Builder {
		b := topology.NewBuilder()
		// Two spout tasks -> round-robin pins both workers.
		b.SetSpout("src", func(int) topology.Spout {
			return &windowSpout{windows: 40, perWindow: 10, gap: time.Millisecond}
		}, 2)
		b.SetBolt("sink", func(int) topology.Bolt {
			return &migrBolt{mu: mu, seen: seen, final: &final}
		}, 2).ShuffleGrouping("src")
		return b
	}
	coord, err := NewCoordinator(2)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		w, err := NewWorker(i, 2, makeBuilder(), coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		go func() { errs <- w.Run() }()
	}
	finished := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = coord.Run()
		close(finished)
	}()
	if err := coord.Rescale(1); err == nil {
		t.Error("shrink evicting a spout worker must fail")
	}
	<-finished
	if runErr != nil {
		t.Fatalf("benign rescale failure must not hurt the run: %v", runErr)
	}
	for i := 0; i < 2; i++ {
		if werr := <-errs; werr != nil {
			t.Errorf("worker: %v", werr)
		}
	}
}

// TestPlacementApply: epoch-stamped successor placements.
func TestPlacementApply(t *testing.T) {
	spec := []topology.ComponentSpec{
		{ID: "a", Parallelism: 3},
		{ID: "b", Parallelism: 2},
	}
	p, err := NewPlacement(spec, 2) // a: 0,1,0  b: 1,0
	if err != nil {
		t.Fatal(err)
	}
	if p.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", p.Epoch())
	}
	next, err := p.Apply(1, 3, []Move{{Comp: "a", Task: 2, From: 0, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch() != 1 || next.Workers() != 3 {
		t.Errorf("epoch/workers = %d/%d", next.Epoch(), next.Workers())
	}
	if got := next.WorkerFor("a", 2); got != 2 {
		t.Errorf("moved task on worker %d, want 2", got)
	}
	if got := p.WorkerFor("a", 2); got != 0 {
		t.Errorf("original placement mutated: a[2] on %d", got)
	}
	if _, err := next.Apply(1, 3, nil); err == nil {
		t.Error("non-increasing epoch must fail")
	}
	if _, err := next.Apply(2, 3, []Move{{Comp: "a", Task: 0, From: 9, To: 1}}); err == nil {
		t.Error("move with stale From must fail")
	}
	if _, err := next.Apply(2, 3, []Move{{Comp: "zz", Task: 0, From: 0, To: 1}}); err == nil {
		t.Error("move of unknown component must fail")
	}
}

// TestPlanMoves: departing workers are fully evacuated, the rebalance
// only moves a task when it strictly narrows the spread, and the plan
// is deterministic.
func TestPlanMoves(t *testing.T) {
	loads := []TaskLoad{
		{Comp: "src", Task: 0, Worker: 0, Load: 0, Movable: false},
		{Comp: "sink", Task: 0, Worker: 0, Load: 100, Movable: true},
		{Comp: "sink", Task: 1, Worker: 1, Load: 90, Movable: true},
		{Comp: "sink", Task: 2, Worker: 2, Load: 80, Movable: true},
		{Comp: "sink", Task: 3, Worker: 2, Load: 10, Movable: true},
	}
	// Shrink: worker 2 departs; both its tasks must move to survivors.
	moves := PlanMoves(loads, map[int]bool{2: true}, []int{0, 1})
	evacuated := map[int]bool{}
	for _, m := range moves {
		if m.From == 2 {
			evacuated[m.Task] = true
			if m.To != 0 && m.To != 1 {
				t.Errorf("move %s targets a departing or unknown worker", m)
			}
		}
	}
	if !evacuated[2] || !evacuated[3] {
		t.Errorf("departing worker not fully evacuated: %v", moves)
	}
	// Grow: an empty worker 3 joins; some load must shift to it, and
	// nothing may move between equally-loaded survivors for nothing.
	grow := PlanMoves(loads, nil, []int{0, 1, 2, 3})
	toNew := 0
	for _, m := range grow {
		if m.From == m.To {
			t.Errorf("no-op move %s", m)
		}
		if m.To == 3 {
			toNew++
		}
	}
	if toNew == 0 {
		t.Errorf("grow plan sends nothing to the new worker: %v", grow)
	}
	// Determinism.
	again := PlanMoves(loads, nil, []int{0, 1, 2, 3})
	if len(again) != len(grow) {
		t.Fatalf("plan not deterministic: %v vs %v", grow, again)
	}
	for i := range grow {
		if grow[i] != again[i] {
			t.Errorf("plan not deterministic at %d: %v vs %v", i, grow[i], again[i])
		}
	}
	// Balanced input, no departures: no moves at all.
	if m := PlanMoves([]TaskLoad{
		{Comp: "s", Task: 0, Worker: 0, Load: 10, Movable: true},
		{Comp: "s", Task: 1, Worker: 1, Load: 10, Movable: true},
	}, nil, []int{0, 1}); len(m) != 0 {
		t.Errorf("balanced cluster produced moves: %v", m)
	}
}

// TestStateFrameBinaryRoundTrip: kind=state frames survive the binary
// wire format — sequenced, chunk payload intact, never batched with
// tuples.
func TestStateFrameBinaryRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca := newBinConn(a, true)
	cb := newBinConn(b, false)
	defer ca.close()
	defer cb.close()
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	want := &envelope{
		Kind: frameState, FromWorker: 1, DataSeq: 42, AckSeq: 7,
		Epoch: 3, Window: 11, TargetComp: "sink", TargetTask: 2,
		StateData: payload, StateLast: true,
	}
	go func() {
		if err := ca.send(want); err != nil {
			t.Error(err)
		}
	}()
	got, err := cb.recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != frameState || got.FromWorker != 1 || got.DataSeq != 42 || got.AckSeq != 7 {
		t.Errorf("header mismatch: %+v", got)
	}
	if got.Epoch != 3 || got.Window != 11 || got.TargetComp != "sink" || got.TargetTask != 2 || !got.StateLast {
		t.Errorf("state header mismatch: %+v", got)
	}
	if string(got.StateData) != string(payload) {
		t.Errorf("payload mismatch: %d bytes vs %d", len(got.StateData), len(payload))
	}
	// A batch mixing state with anything is a programming error the
	// wire layer must reject rather than corrupt.
	if err := ca.sendBatch([]*envelope{want, want}); err == nil {
		t.Error("multi-frame state batch must fail")
	}
}
