package cluster

import (
	"encoding/gob"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/topology"
)

// countSpout emits n integers.
type countSpout struct{ n, next int }

func (s *countSpout) Open(*topology.TaskContext) {}
func (s *countSpout) Close()                     {}
func (s *countSpout) NextTuple(c topology.Collector) bool {
	if s.next >= s.n {
		return false
	}
	c.Emit(topology.Values{"v": s.next})
	s.next++
	return true
}

// sumBolt accumulates into a shared sink (works because the test
// workers share this process).
type sumBolt struct {
	mu  *sync.Mutex
	sum *int
	cnt *int
}

func (b *sumBolt) Prepare(*topology.TaskContext) {}
func (b *sumBolt) Cleanup()                      {}
func (b *sumBolt) Execute(t topology.Tuple, _ topology.Collector) {
	b.mu.Lock()
	*b.sum += t.Values["v"].(int)
	*b.cnt++
	b.mu.Unlock()
}

func init() { gob.Register(1) }

func TestPlacementRoundRobin(t *testing.T) {
	spec := []topology.ComponentSpec{
		{ID: "a", Parallelism: 3},
		{ID: "b", Parallelism: 2},
	}
	p, err := NewPlacement(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Global round-robin: a0->w0 a1->w1 a2->w0 b0->w1 b1->w0.
	wants := map[string][]int{"a": {0, 1, 0}, "b": {1, 0}}
	for comp, assign := range wants {
		for task, want := range assign {
			if got := p.WorkerFor(comp, task); got != want {
				t.Errorf("WorkerFor(%s,%d) = %d, want %d", comp, task, got, want)
			}
		}
	}
	if got := p.TasksOn("a", 0); len(got) != 2 {
		t.Errorf("TasksOn(a,0) = %v", got)
	}
	if _, err := NewPlacement(spec, 0); err == nil {
		t.Error("0 workers must fail")
	}
}

func TestPlacementPanicsUnknownTask(t *testing.T) {
	p, _ := NewPlacement([]topology.ComponentSpec{{ID: "a", Parallelism: 1}}, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.WorkerFor("zz", 0)
}

// TestFrameRoundTrip round-trips the richest control-plane envelopes
// over the gob conn: a rescale order (moves, departing workers,
// address book, placement table) and a worker's final statistics.
func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := newConn(a), newConn(b)
	defer ca.close()
	defer cb.close()
	frames := []*envelope{
		{
			Kind:      frameRescale,
			Epoch:     3,
			Workers:   2,
			Moves:     []Move{{Comp: "join", Task: 1, From: 2, To: 0}, {Comp: "sink", Task: 0, From: 2, To: 1}},
			Departing: []int{2},
			Addresses: map[int]string{0: "127.0.0.1:7001", 1: "127.0.0.1:7002"},
			Table:     map[string][]int{"join": {0, 0, 1}, "sink": {1}},
		},
		{
			Kind:     frameDone,
			WorkerID: 1,
			Stats: topology.Stats{
				Emitted:    map[string]int64{"src": 40},
				Executed:   map[string]int64{"sink": 40},
				SentCopies: 40,
				ExecCopies: 40,
				Failures:   []string{"sink[0]@w1: boom"},
			},
		},
	}
	go func() {
		for _, e := range frames {
			if err := ca.send(e); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, want := range frames {
		got, err := cb.recv()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// runSum executes the count->sum topology over the given number of
// workers and checks losslessness.
func runSum(t *testing.T, workers, n, sinkTasks int) topology.Stats {
	t.Helper()
	mu := &sync.Mutex{}
	sum, cnt := 0, 0
	make1 := func() *topology.Builder {
		b := topology.NewBuilder()
		b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: n} }, 1)
		b.SetBolt("sink", func(int) topology.Bolt {
			return &sumBolt{mu: mu, sum: &sum, cnt: &cnt}
		}, sinkTasks).ShuffleGrouping("src")
		return b
	}
	stats, err := Run(make1, workers)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if cnt != n {
		t.Errorf("received %d tuples, want %d", cnt, n)
	}
	if want := n * (n - 1) / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
	return stats
}

func TestSingleWorker(t *testing.T) {
	stats := runSum(t, 1, 100, 2)
	if stats.Executed["sink"] != 100 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestMultiWorkerLossless(t *testing.T) {
	stats := runSum(t, 3, 500, 4)
	if stats.Executed["sink"] != 500 {
		t.Errorf("executed = %d", stats.Executed["sink"])
	}
	if len(stats.Failures) != 0 {
		t.Errorf("failures: %v", stats.Failures)
	}
}

// TestFieldsGroupingAcrossWorkers: equal keys land on the same task even
// when tasks live on different workers.
func TestFieldsGroupingAcrossWorkers(t *testing.T) {
	mu := &sync.Mutex{}
	byKey := make(map[int]map[int]bool)
	make1 := func() *topology.Builder {
		b := topology.NewBuilder()
		b.SetSpout("src", func(int) topology.Spout { return &keyedSpout{n: 200} }, 1)
		b.SetBolt("sink", func(task int) topology.Bolt {
			return &keyRecorder{mu: mu, byKey: byKey, task: task}
		}, 4).FieldsGrouping("src", "key")
		return b
	}
	if _, err := Run(make1, 3); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(byKey) != 10 {
		t.Fatalf("keys seen = %d", len(byKey))
	}
	for key, tasks := range byKey {
		if len(tasks) != 1 {
			t.Errorf("key %d reached %d tasks", key, len(tasks))
		}
	}
}

type keyedSpout struct{ n, next int }

func (s *keyedSpout) Open(*topology.TaskContext) {}
func (s *keyedSpout) Close()                     {}
func (s *keyedSpout) NextTuple(c topology.Collector) bool {
	if s.next >= s.n {
		return false
	}
	c.Emit(topology.Values{"key": s.next % 10, "v": s.next})
	s.next++
	return true
}

type keyRecorder struct {
	mu    *sync.Mutex
	byKey map[int]map[int]bool
	task  int
}

func (b *keyRecorder) Prepare(*topology.TaskContext) {}
func (b *keyRecorder) Cleanup()                      {}
func (b *keyRecorder) Execute(t topology.Tuple, _ topology.Collector) {
	key := t.Values["key"].(int)
	b.mu.Lock()
	if b.byKey[key] == nil {
		b.byKey[key] = make(map[int]bool)
	}
	b.byKey[key][b.task] = true
	b.mu.Unlock()
}

// TestAllGroupingAcrossWorkers: every task receives every tuple.
func TestAllGroupingAcrossWorkers(t *testing.T) {
	mu := &sync.Mutex{}
	perTask := make(map[int]int)
	make1 := func() *topology.Builder {
		b := topology.NewBuilder()
		b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: 50} }, 1)
		b.SetBolt("sink", func(task int) topology.Bolt {
			return &taskCounter{mu: mu, perTask: perTask, task: task}
		}, 3).AllGrouping("src")
		return b
	}
	if _, err := Run(make1, 2); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for task := 0; task < 3; task++ {
		if perTask[task] != 50 {
			t.Errorf("task %d received %d, want 50", task, perTask[task])
		}
	}
}

type taskCounter struct {
	mu      *sync.Mutex
	perTask map[int]int
	task    int
}

func (b *taskCounter) Prepare(*topology.TaskContext) {}
func (b *taskCounter) Cleanup()                      {}
func (b *taskCounter) Execute(topology.Tuple, topology.Collector) {
	b.mu.Lock()
	b.perTask[b.task]++
	b.mu.Unlock()
}

// TestMultiStageAcrossWorkers chains two bolts so tuples cross the wire
// twice.
func TestMultiStageAcrossWorkers(t *testing.T) {
	mu := &sync.Mutex{}
	sum, cnt := 0, 0
	make1 := func() *topology.Builder {
		b := topology.NewBuilder()
		b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: 100} }, 1)
		b.SetBolt("double", func(int) topology.Bolt { return doubleBolt{} }, 2).ShuffleGrouping("src")
		b.SetBolt("sink", func(int) topology.Bolt {
			return &sumBolt{mu: mu, sum: &sum, cnt: &cnt}
		}, 2).ShuffleGrouping("double")
		return b
	}
	if _, err := Run(make1, 3); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if cnt != 100 {
		t.Errorf("count = %d", cnt)
	}
	if want := 2 * (99 * 100 / 2); sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

type doubleBolt struct{}

func (doubleBolt) Prepare(*topology.TaskContext) {}
func (doubleBolt) Cleanup()                      {}
func (doubleBolt) Execute(t topology.Tuple, c topology.Collector) {
	c.Emit(topology.Values{"v": t.Values["v"].(int) * 2})
}

// TestWorkerBoltPanicIsolated: a panicking bolt surfaces in Failures,
// the run still terminates.
func TestWorkerBoltPanicIsolated(t *testing.T) {
	make1 := func() *topology.Builder {
		b := topology.NewBuilder()
		b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: 10} }, 1)
		b.SetBolt("sink", func(int) topology.Bolt { return panicky{} }, 1).ShuffleGrouping("src")
		return b
	}
	stats, err := Run(make1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Failures) != 1 {
		t.Errorf("failures = %v", stats.Failures)
	}
	if stats.Executed["sink"] != 10 {
		t.Errorf("executed = %d", stats.Executed["sink"])
	}
}

type panicky struct{}

func (panicky) Prepare(*topology.TaskContext) {}
func (panicky) Cleanup()                      {}
func (panicky) Execute(t topology.Tuple, _ topology.Collector) {
	if t.Values["v"].(int) == 5 {
		panic("poisoned")
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(0); err == nil {
		t.Error("0 workers must fail")
	}
}

// directWireSpout routes each value directly to task v % 3.
type directWireSpout struct{ n, next int }

func (s *directWireSpout) Open(*topology.TaskContext) {}
func (s *directWireSpout) Close()                     {}
func (s *directWireSpout) NextTuple(c topology.Collector) bool {
	if s.next >= s.n {
		return false
	}
	c.EmitDirect(topology.DefaultStream, s.next%3, topology.Values{"v": s.next})
	s.next++
	return true
}

// TestDirectGroupingAcrossWorkers: EmitDirect targets the right task
// even when that task lives on another worker.
func TestDirectGroupingAcrossWorkers(t *testing.T) {
	mu := &sync.Mutex{}
	byTask := make(map[int][]int)
	make1 := func() *topology.Builder {
		b := topology.NewBuilder()
		b.SetSpout("src", func(int) topology.Spout { return &directWireSpout{n: 30} }, 1)
		b.SetBolt("sink", func(task int) topology.Bolt {
			return &directRecorder{mu: mu, byTask: byTask, task: task}
		}, 3).DirectGrouping("src")
		return b
	}
	if _, err := Run(make1, 3); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for task := 0; task < 3; task++ {
		if len(byTask[task]) != 10 {
			t.Errorf("task %d received %d, want 10", task, len(byTask[task]))
		}
		for _, v := range byTask[task] {
			if v%3 != task {
				t.Errorf("task %d received v=%d", task, v)
			}
		}
	}
}

type directRecorder struct {
	mu     *sync.Mutex
	byTask map[int][]int
	task   int
}

func (b *directRecorder) Prepare(*topology.TaskContext) {}
func (b *directRecorder) Cleanup()                      {}
func (b *directRecorder) Execute(t topology.Tuple, _ topology.Collector) {
	b.mu.Lock()
	b.byTask[b.task] = append(b.byTask[b.task], t.Values["v"].(int))
	b.mu.Unlock()
}

// TestCoordinatorDetectsDeadWorker: a participant that registers and
// then disappears must fail the run, not hang it.
func TestCoordinatorDetectsDeadWorker(t *testing.T) {
	coord, err := NewCoordinator(2)
	if err != nil {
		t.Fatal(err)
	}
	// One real worker...
	b := topology.NewBuilder()
	b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: 5} }, 1)
	b.SetBolt("sink", func(int) topology.Bolt { return panicky{} }, 1).ShuffleGrouping("src")
	w, err := NewWorker(0, 2, b, coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	// ...and one impostor that says hello and vanishes.
	raw, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	if err := c.send(&envelope{Kind: frameHello, WorkerID: 1, DataAddr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	c.close()
	if _, err := coord.Run(); err == nil {
		t.Error("coordinator must fail when a worker disappears")
	}
	// The surviving worker errors out of its control loop.
	if werr := <-done; werr == nil {
		t.Error("worker should report the lost coordinator")
	}
}

func TestDuplicateWorkerIDRejected(t *testing.T) {
	coord, err := NewCoordinator(2)
	if err != nil {
		t.Fatal(err)
	}
	result := make(chan error, 1)
	go func() {
		_, err := coord.Run()
		result <- err
	}()
	for i := 0; i < 2; i++ {
		raw, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := newConn(raw)
		if err := c.send(&envelope{Kind: frameHello, WorkerID: 7, DataAddr: "127.0.0.1:1"}); err != nil {
			t.Fatal(err)
		}
		defer c.close()
	}
	if err := <-result; err == nil {
		t.Error("duplicate worker id must fail the run")
	}
}

func TestWorkersAccessor(t *testing.T) {
	p, _ := NewPlacement([]topology.ComponentSpec{{ID: "a", Parallelism: 1}}, 3)
	if p.Workers() != 3 {
		t.Errorf("Workers = %d", p.Workers())
	}
}

func TestExplicitBindAddresses(t *testing.T) {
	coord, err := NewCoordinatorOn("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	mu := &sync.Mutex{}
	sum, cnt := 0, 0
	b := topology.NewBuilder()
	b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: 10} }, 1)
	b.SetBolt("sink", func(int) topology.Bolt { return &sumBolt{mu: mu, sum: &sum, cnt: &cnt} }, 1).ShuffleGrouping("src")
	w, err := NewWorker(0, 1, b, coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	w.BindAddr = "127.0.0.1:0" // explicit, same semantics
	errs := make(chan error, 1)
	go func() { errs <- w.Run() }()
	if _, err := coord.Run(); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if cnt != 10 {
		t.Errorf("cnt = %d", cnt)
	}
}

func TestBadBindAddress(t *testing.T) {
	coord, err := NewCoordinatorOn("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.ln.Close()
	b := topology.NewBuilder()
	b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: 1} }, 1)
	b.SetBolt("sink", func(int) topology.Bolt { return panicky{} }, 1).ShuffleGrouping("src")
	w, err := NewWorker(0, 1, b, coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	w.BindAddr = "256.0.0.1:99999"
	if err := w.Run(); err == nil {
		t.Error("invalid bind address must fail Run")
	}
}
