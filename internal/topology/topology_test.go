package topology

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// intSpout emits n integers then stops.
type intSpout struct {
	n, next int
	stream  string
}

func (s *intSpout) Open(*TaskContext) {}
func (s *intSpout) Close()            {}
func (s *intSpout) NextTuple(c Collector) bool {
	if s.next >= s.n {
		return false
	}
	stream := s.stream
	if stream == "" {
		stream = DefaultStream
	}
	c.EmitTo(stream, Values{"v": s.next})
	s.next++
	return true
}

// sinkBolt records which task received which values.
type sinkBolt struct {
	mu   *sync.Mutex
	got  map[int][]int // task -> values
	task int
}

func newSinkFactory() (BoltFactory, *sync.Mutex, map[int][]int) {
	mu := &sync.Mutex{}
	got := make(map[int][]int)
	return func(task int) Bolt {
		return &sinkBolt{mu: mu, got: got, task: task}
	}, mu, got
}

func (b *sinkBolt) Prepare(*TaskContext) {}
func (b *sinkBolt) Cleanup()             {}
func (b *sinkBolt) Execute(t Tuple, _ Collector) {
	b.mu.Lock()
	b.got[b.task] = append(b.got[b.task], t.Values["v"].(int))
	b.mu.Unlock()
}

func TestShuffleGroupingEvenAndLossless(t *testing.T) {
	b := NewBuilder()
	b.SetSpout("src", func(int) Spout { return &intSpout{n: 100} }, 1)
	sink, mu, got := newSinkFactory()
	b.SetBolt("sink", sink, 4).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stats := topo.Run()
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for task, vs := range got {
		total += len(vs)
		// Round-robin: exactly 25 each.
		if len(vs) != 25 {
			t.Errorf("task %d received %d tuples, want 25", task, len(vs))
		}
	}
	if total != 100 {
		t.Errorf("total = %d, want 100 (no loss, no duplication)", total)
	}
	if stats.Executed["sink"] != 100 {
		t.Errorf("stats.Executed = %d", stats.Executed["sink"])
	}
}

func TestFieldsGroupingConsistent(t *testing.T) {
	mu := &sync.Mutex{}
	byKey := make(map[int]map[int]bool) // key -> set of receiving tasks
	b := NewBuilder()
	b.SetSpout("src", func(int) Spout { return &keyedSpout{n: 200} }, 1)
	b.SetBolt("sink", func(task int) Bolt {
		return boltFunc(func(tp Tuple, _ Collector) {
			key := tp.Values["key"].(int)
			mu.Lock()
			if byKey[key] == nil {
				byKey[key] = make(map[int]bool)
			}
			byKey[key][task] = true
			mu.Unlock()
		})
	}, 5).FieldsGroupingOn("src", DefaultStream, "key")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo.Run()
	mu.Lock()
	defer mu.Unlock()
	for key, tasks := range byKey {
		if len(tasks) != 1 {
			t.Errorf("key %d reached %d tasks; fields grouping must be consistent", key, len(tasks))
		}
	}
	if len(byKey) != 10 {
		t.Errorf("saw %d keys, want 10", len(byKey))
	}
}

type keyedSpout struct{ n, next int }

func (s *keyedSpout) Open(*TaskContext) {}
func (s *keyedSpout) Close()            {}
func (s *keyedSpout) NextTuple(c Collector) bool {
	if s.next >= s.n {
		return false
	}
	c.Emit(Values{"key": s.next % 10, "v": s.next})
	s.next++
	return true
}

// boltFunc adapts a function to the Bolt interface.
type boltFunc func(t Tuple, c Collector)

func (f boltFunc) Prepare(*TaskContext)         {}
func (f boltFunc) Cleanup()                     {}
func (f boltFunc) Execute(t Tuple, c Collector) { f(t, c) }

func TestAllGroupingReplicates(t *testing.T) {
	b := NewBuilder()
	b.SetSpout("src", func(int) Spout { return &intSpout{n: 10} }, 1)
	sink, mu, got := newSinkFactory()
	b.SetBolt("sink", sink, 3).AllGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo.Run()
	mu.Lock()
	defer mu.Unlock()
	for task := 0; task < 3; task++ {
		if len(got[task]) != 10 {
			t.Errorf("task %d received %d tuples, want 10 (all grouping)", task, len(got[task]))
		}
	}
}

func TestGlobalGroupingSingleTask(t *testing.T) {
	b := NewBuilder()
	b.SetSpout("src", func(int) Spout { return &intSpout{n: 20} }, 1)
	sink, mu, got := newSinkFactory()
	b.SetBolt("sink", sink, 4).GlobalGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo.Run()
	mu.Lock()
	defer mu.Unlock()
	if len(got[0]) != 20 {
		t.Errorf("task 0 received %d, want 20", len(got[0]))
	}
	for task := 1; task < 4; task++ {
		if len(got[task]) != 0 {
			t.Errorf("task %d received %d, want 0", task, len(got[task]))
		}
	}
}

// directSpout emits each value directly to task v % 3.
type directSpout struct{ n, next int }

func (s *directSpout) Open(*TaskContext) {}
func (s *directSpout) Close()            {}
func (s *directSpout) NextTuple(c Collector) bool {
	if s.next >= s.n {
		return false
	}
	c.EmitDirect(DefaultStream, s.next%3, Values{"v": s.next})
	s.next++
	return true
}

func TestDirectGrouping(t *testing.T) {
	b := NewBuilder()
	b.SetSpout("src", func(int) Spout { return &directSpout{n: 30} }, 1)
	sink, mu, got := newSinkFactory()
	b.SetBolt("sink", sink, 3).DirectGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo.Run()
	mu.Lock()
	defer mu.Unlock()
	for task := 0; task < 3; task++ {
		if len(got[task]) != 10 {
			t.Errorf("task %d received %d, want 10", task, len(got[task]))
		}
		for _, v := range got[task] {
			if v%3 != task {
				t.Errorf("task %d received v=%d", task, v)
			}
		}
	}
}

func TestMultiStageChain(t *testing.T) {
	// src -> double -> sink; double multiplies by 2.
	b := NewBuilder()
	b.SetSpout("src", func(int) Spout { return &intSpout{n: 50} }, 1)
	b.SetBolt("double", func(int) Bolt {
		return boltFunc(func(t Tuple, c Collector) {
			c.Emit(Values{"v": t.Values["v"].(int) * 2})
		})
	}, 2).ShuffleGrouping("src")
	sink, mu, got := newSinkFactory()
	b.SetBolt("sink", sink, 1).ShuffleGrouping("double")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo.Run()
	mu.Lock()
	defer mu.Unlock()
	if len(got[0]) != 50 {
		t.Fatalf("sink received %d, want 50", len(got[0]))
	}
	sum := 0
	for _, v := range got[0] {
		sum += v
	}
	if want := 2 * (49 * 50 / 2); sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

// TestFeedbackCycleTerminates exercises the Assigner<->Merger shape: a
// bolt that occasionally sends a tuple back upstream must not deadlock
// or run forever.
func TestFeedbackCycleTerminates(t *testing.T) {
	b := NewBuilder()
	b.SetSpout("src", func(int) Spout { return &intSpout{n: 40} }, 1)
	// "merger" receives feedback and emits a control tuple downstream.
	b.SetBolt("merger", func(int) Bolt {
		return boltFunc(func(tp Tuple, c Collector) {
			if tp.Source == "assigner" {
				c.EmitTo("control", Values{"v": -1})
			}
		})
	}, 1).ShuffleGrouping("assigner", "feedback")
	mu := &sync.Mutex{}
	var controls, data int
	b.SetBolt("assigner", func(int) Bolt {
		return boltFunc(func(tp Tuple, c Collector) {
			mu.Lock()
			defer mu.Unlock()
			if tp.Stream == "control" {
				controls++
				return
			}
			data++
			if v := tp.Values["v"].(int); v%10 == 0 {
				c.EmitTo("feedback", Values{"v": v})
			}
		})
	}, 2).ShuffleGrouping("src").AllGrouping("merger", "control")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo.Run() // must terminate
	mu.Lock()
	defer mu.Unlock()
	if data != 40 {
		t.Errorf("data tuples = %d, want 40", data)
	}
	if controls != 4*2 { // 4 feedback tuples, control all-grouped to 2 tasks
		t.Errorf("control tuples = %d, want 8", controls)
	}
}

func TestBuilderValidation(t *testing.T) {
	cases := []func(*Builder){
		func(b *Builder) { b.SetSpout("s", func(int) Spout { return &intSpout{} }, 0) },
		func(b *Builder) {
			b.SetSpout("s", func(int) Spout { return &intSpout{} }, 1)
			b.SetSpout("s", func(int) Spout { return &intSpout{} }, 1)
		},
		func(b *Builder) {
			b.SetSpout("s", func(int) Spout { return &intSpout{} }, 1)
			b.SetBolt("b", func(int) Bolt { return boltFunc(func(Tuple, Collector) {}) }, 1).ShuffleGrouping("nope")
		},
		func(b *Builder) {
			b.SetSpout("s", func(int) Spout { return &intSpout{} }, 1)
			b.SetBolt("b", func(int) Bolt { return boltFunc(func(Tuple, Collector) {}) }, 1).FieldsGrouping("s")
		},
	}
	for i, setup := range cases {
		b := NewBuilder()
		setup(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("case %d: Build succeeded, want error", i)
		}
	}
}

func TestTaskContextNumTasksOf(t *testing.T) {
	b := NewBuilder()
	b.SetSpout("src", func(int) Spout { return &intSpout{n: 1} }, 1)
	var observed int
	mu := &sync.Mutex{}
	b.SetBolt("sink", func(task int) Bolt {
		return &ctxBolt{mu: mu, observed: &observed}
	}, 3).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo.Run()
	mu.Lock()
	defer mu.Unlock()
	if observed != 3 {
		t.Errorf("NumTasksOf(sink) = %d, want 3", observed)
	}
}

type ctxBolt struct {
	mu       *sync.Mutex
	observed *int
}

func (b *ctxBolt) Prepare(ctx *TaskContext) {
	b.mu.Lock()
	*b.observed = ctx.NumTasksOf("sink")
	b.mu.Unlock()
}
func (b *ctxBolt) Cleanup()                 {}
func (b *ctxBolt) Execute(Tuple, Collector) {}

func TestTupleString(t *testing.T) {
	tp := Tuple{Stream: "s", Source: "c", Values: Values{"b": 2, "a": 1}}
	s := tp.String()
	if s != "c/s[0]{a=1, b=2}" {
		t.Errorf("String = %q", s)
	}
}

func TestGroupingKindString(t *testing.T) {
	names := map[GroupingKind]string{
		Shuffle: "shuffle", Fields: "fields", All: "all", Direct: "direct", Global: "global",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %s", int(k), k.String())
		}
	}
	if GroupingKind(99).String() == "" {
		t.Error("unknown grouping must still render")
	}
}

func TestSpoutParallelism(t *testing.T) {
	b := NewBuilder()
	b.SetSpout("src", func(task int) Spout { return &intSpout{n: 10} }, 3)
	sink, mu, got := newSinkFactory()
	b.SetBolt("sink", sink, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo.Run()
	mu.Lock()
	defer mu.Unlock()
	if len(got[0]) != 30 {
		t.Errorf("received %d, want 30 (3 spout tasks x 10)", len(got[0]))
	}
}

func TestEmitDirectOutOfRangeIsIsolated(t *testing.T) {
	b := NewBuilder()
	b.SetSpout("src", func(int) Spout { return &badDirectSpout{} }, 1)
	sink, _, _ := newSinkFactory()
	b.SetBolt("sink", sink, 2).DirectGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stats := topo.Run() // must not crash the process
	if len(stats.Failures) != 1 {
		t.Fatalf("Failures = %v, want exactly one recorded panic", stats.Failures)
	}
}

// panicBolt fails on one poisoned value; the rest of the stream must
// still be processed.
func TestBoltPanicIsolation(t *testing.T) {
	b := NewBuilder()
	b.SetSpout("src", func(int) Spout { return &intSpout{n: 10} }, 1)
	mu := &sync.Mutex{}
	processed := 0
	b.SetBolt("sink", func(int) Bolt {
		return boltFunc(func(tp Tuple, _ Collector) {
			if tp.Values["v"].(int) == 5 {
				panic("poisoned tuple")
			}
			mu.Lock()
			processed++
			mu.Unlock()
		})
	}, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stats := topo.Run()
	mu.Lock()
	defer mu.Unlock()
	if processed != 9 {
		t.Errorf("processed = %d, want 9", processed)
	}
	if len(stats.Failures) != 1 {
		t.Errorf("Failures = %v", stats.Failures)
	}
}

type badDirectSpout struct{ fired bool }

func (s *badDirectSpout) Open(*TaskContext) {}
func (s *badDirectSpout) Close()            {}
func (s *badDirectSpout) NextTuple(c Collector) bool {
	if s.fired {
		return false
	}
	s.fired = true
	c.EmitDirect(DefaultStream, 7, Values{"v": 1})
	return true
}

func TestStatsCounters(t *testing.T) {
	b := NewBuilder()
	b.SetSpout("src", func(int) Spout { return &intSpout{n: 5} }, 1)
	b.SetBolt("mid", func(int) Bolt {
		return boltFunc(func(t Tuple, c Collector) { c.Emit(t.Values) })
	}, 1).ShuffleGrouping("src")
	sink, _, _ := newSinkFactory()
	b.SetBolt("sink", sink, 1).ShuffleGrouping("mid")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stats := topo.Run()
	if stats.Emitted["src"] != 5 || stats.Executed["mid"] != 5 || stats.Executed["sink"] != 5 {
		t.Errorf("stats = %+v", stats)
	}
}

func ExampleBuilder() {
	b := NewBuilder()
	b.SetSpout("numbers", func(int) Spout { return &intSpout{n: 3} }, 1)
	b.SetBolt("print", func(int) Bolt {
		return boltFunc(func(t Tuple, _ Collector) {
			fmt.Println(t.Values["v"])
		})
	}, 1).ShuffleGrouping("numbers")
	topo, _ := b.Build()
	topo.Run()
	// Output:
	// 0
	// 1
	// 2
}

// TestSequentialHost: under the round-robin and priority schedules
// every edge delivers in the order it was sent and every copy executes
// once, and a seed replays the same interleaving.
func TestSequentialHost(t *testing.T) {
	run := func(seed int64) (trace []string) {
		fifo := func(task int) Bolt {
			next, last := 0, map[int]int{}
			return boltFunc(func(tp Tuple, c Collector) {
				v := tp.Values["v"].(int)
				if l, ok := last[tp.SourceTask]; ok && v <= l {
					t.Errorf("seed %d: task %d got %d after %d from %s[%d]", seed, task, v, l, tp.Source, tp.SourceTask)
				}
				last[tp.SourceTask] = v
				trace = append(trace, fmt.Sprint(tp.Source, tp.SourceTask, task, v))
				c.Emit(Values{"v": next})
				next++
			})
		}
		b := NewBuilder()
		b.SetSpout("src", func(int) Spout { return &intSpout{n: 50} }, 2)
		b.SetBolt("relay", fifo, 3).ShuffleGrouping("src")
		b.SetBolt("sink", fifo, 2).AllGrouping("relay")
		stats, err := RunSequential(b, SeededSchedule(seed))
		if err != nil || stats.Executed["sink"] != 200 {
			t.Fatalf("seed %d: executed %v, %v", seed, stats.Executed, err)
		}
		return trace
	}
	for seed := int64(0); seed < 20; seed++ {
		if !slices.Equal(run(seed), run(seed)) {
			t.Errorf("seed %d replays a different interleaving", seed)
		}
	}
}
