package core

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// TestMixedGenerationWindowReported: the collector names every window
// whose assigner partials span more than one table generation — routed
// by two assigners under different generations (window 2) or by one
// under two (window 4) — counts them, and Run fails on them.
func TestMixedGenerationWindowReported(t *testing.T) {
	cfg := testConfig()
	cfg.Assigners = 2
	cfg.Telemetry = telemetry.NewRegistry()
	var report Report
	collector := newCollectorBolt(cfg, &report)
	collector.Prepare(&topology.TaskContext{})
	gens := map[int][2][2]int{ // window -> per task {genLow, genHigh}
		0: {{0, 0}, {0, 0}},
		1: {{1, 1}, {1, 1}},
		2: {{2, 2}, {1, 1}},
		3: {{2, 2}, {2, 2}},
		4: {{2, 3}, {2, 3}},
		5: {{3, 3}, {3, 3}},
	}
	for w := 0; w <= 5; w++ {
		for task, g := range gens[w] {
			collector.Execute(topology.Tuple{Stream: streamAssignerStats, Values: topology.Values{"msg": assignerStatsMsg{
				Window: w, Task: task, Documents: 1, PerJoiner: make([]int, cfg.M), GenLow: g[0], GenHigh: g[1],
			}}}, nil)
		}
		for j := 0; j < cfg.M; j++ {
			collector.Execute(topology.Tuple{Stream: streamJoinerStats, Values: topology.Values{"msg": joinerStatsMsg{Window: w, Task: j}}}, nil)
		}
		collector.Execute(topology.Tuple{Stream: streamMergerEvents, Values: topology.Values{"msg": mergerEventMsg{Window: w}}}, nil)
	}
	collector.Cleanup()
	if want := []int{2, 4}; !slices.Equal(report.MixedTableWindows, want) {
		t.Errorf("MixedTableWindows = %v, want %v", report.MixedTableWindows, want)
	}
	if got := cfg.Telemetry.Snapshot().Counter("partition_mixed_generation_windows_total"); got != 2 {
		t.Errorf("partition_mixed_generation_windows_total = %d, want 2", got)
	}
	if _, err := checked(&report, nil); err == nil {
		t.Error("a run with mixed-generation windows must fail")
	}
}

// TestSingleAssignerRoutesEachWindowUnderOneGeneration: an undisturbed
// single-assigner run with repartitions mixes no window.
func TestSingleAssignerRoutesEachWindowUnderOneGeneration(t *testing.T) {
	reg := telemetry.NewRegistry()
	report, err := NewRunner(Config{
		M: 4, Creators: 2, Assigners: 1,
		WindowSize: 300, Windows: 8,
		Theta:  0.02,    // low enough that some window recomputes
		Delta:  1 << 30, // no δ updates
		Source: datagen.NewNoBench(7),
	}, WithTelemetry(reg)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.MixedTableWindows) != 0 {
		t.Errorf("MixedTableWindows = %v on an undisturbed single-assigner run (%d repartitions, %d tables)",
			report.MixedTableWindows, report.Repartitions, report.TableVersions)
	}
	if got := report.Telemetry.Counter("partition_mixed_generation_windows_total"); got != 0 {
		t.Errorf("partition_mixed_generation_windows_total = %d, want 0", got)
	}
	if report.Repartitions == 0 {
		t.Errorf("no repartition in %d table versions: the run adopted no recomputed table", report.TableVersions)
	}
}

// stepHost runs the real bolts of buildTopology(cfg) on one goroutine,
// routing every emission by the subscriptions of the topology's Spec,
// with shuffle groupings dealt round-robin per edge as the runtime
// does. Each step delivers one queued tuple to every task in turn; the
// hold function may keep a task's queued tuple back, which is how a
// test writes an adversarial schedule. Per-source FIFO order is kept.
type stepHost struct {
	t      *testing.T
	specs  []topology.ComponentSpec
	bolts  map[string][]topology.Bolt
	queues map[string][][]topology.Tuple
	rr     map[string]int
	hold   func(comp string, task int, queue []topology.Tuple, i int) bool
}

func newStepHost(t *testing.T, cfg Config, report *Report) *stepHost {
	specs, err := buildTopology(cfg, report).Spec()
	if err != nil {
		t.Fatal(err)
	}
	h := &stepHost{t: t, specs: specs, bolts: map[string][]topology.Bolt{}, queues: map[string][][]topology.Tuple{}, rr: map[string]int{}}
	par := map[string]int{}
	for _, s := range specs {
		par[s.ID] = s.Parallelism
	}
	for _, s := range specs {
		if s.IsSpout {
			continue
		}
		h.queues[s.ID] = make([][]topology.Tuple, s.Parallelism)
		for task := 0; task < s.Parallelism; task++ {
			var b topology.Bolt
			switch s.ID {
			case "creator":
				b = newCreatorBolt(cfg, task)
			case "merger":
				b = newMergerBolt(cfg)
			case "assigner":
				b = newAssignerBolt(cfg, task)
			case "joiner":
				b = newJoinerBolt(cfg, task)
			case "collector":
				b = newCollectorBolt(cfg, report)
			default:
				t.Fatalf("unknown component %q", s.ID)
			}
			b.Prepare(&topology.TaskContext{Component: s.ID, Task: task, NumTasks: s.Parallelism, Parallelism: par})
			h.bolts[s.ID] = append(h.bolts[s.ID], b)
		}
	}
	return h
}

// hostCollector routes one task's emissions.
type hostCollector struct {
	h    *stepHost
	comp string
	task int
}

func (c hostCollector) Emit(v topology.Values) { c.EmitTo(topology.DefaultStream, v) }
func (c hostCollector) EmitTo(stream string, v topology.Values) {
	c.h.emit(c.comp, c.task, stream, -1, v)
}
func (c hostCollector) EmitDirect(stream string, task int, v topology.Values) {
	c.h.emit(c.comp, c.task, stream, task, v)
}

func (h *stepHost) emit(src string, srcTask int, stream string, direct int, v topology.Values) {
	t := topology.Tuple{Stream: stream, Source: src, SourceTask: srcTask, Values: v}
	for _, s := range h.specs {
		for _, sub := range s.Subs {
			if sub.Source != src || sub.Stream != stream || (sub.Grouping == topology.Direct) != (direct >= 0) {
				continue
			}
			var targets []int
			switch sub.Grouping {
			case topology.Shuffle:
				key := src + "/" + stream + "/" + s.ID
				targets = []int{h.rr[key] % s.Parallelism}
				h.rr[key]++
			case topology.Direct:
				targets = []int{direct}
			case topology.Global:
				targets = []int{0}
			case topology.All:
				for i := 0; i < s.Parallelism; i++ {
					targets = append(targets, i)
				}
			default:
				h.t.Fatalf("grouping %v not hosted", sub.Grouping)
			}
			for _, task := range targets {
				h.queues[s.ID][task] = append(h.queues[s.ID][task], t)
			}
		}
	}
}

// run emits the whole stream from the reader, then steps until every
// queue is empty, and finally cleans every bolt up.
func (h *stepHost) run(cfg Config) {
	reader := newReaderSpout(cfg)
	reader.Open(&topology.TaskContext{Component: "reader"})
	for reader.NextTuple(hostCollector{h: h, comp: "reader"}) {
	}
	for steps := 0; ; steps++ {
		if steps > 1<<22 {
			h.t.Fatal("step host made no progress")
		}
		delivered := false
		for _, s := range h.specs {
			for task, q := range h.queues[s.ID] {
				i := 0
				for i < len(q) && h.hold != nil && h.hold(s.ID, task, q, i) {
					i++
				}
				if i == len(q) {
					continue
				}
				t := q[i]
				h.queues[s.ID][task] = append(q[:i:i], q[i+1:]...)
				h.bolts[s.ID][task].Execute(t, hostCollector{h: h, comp: s.ID, task: task})
				delivered = true
			}
		}
		if !delivered {
			break
		}
	}
	for _, s := range h.specs {
		for task, q := range h.queues[s.ID] {
			if len(q) > 0 {
				h.t.Fatalf("the schedule holds %d tuples back from %s[%d] forever", len(q), s.ID, task)
			}
		}
	}
	for _, s := range h.specs {
		for _, b := range h.bolts[s.ID] {
			b.Cleanup()
		}
	}
}

// runStepped runs cfg over docs on a step host with the given hold
// policy, and returns how often each pair was produced and the report.
func runStepped(t *testing.T, cfg Config, docs []document.Document, hold func(comp string, task int, queue []topology.Tuple, i int) bool) (map[join.Pair]int, *Report) {
	t.Helper()
	got := map[join.Pair]int{}
	cfg.Source = &replaySource{docs: docs}
	cfg.OnResult = func(r join.Result) {
		got[join.Pair{LeftID: min(r.Left, r.Right), RightID: max(r.Left, r.Right)}]++
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	report := &Report{}
	h := newStepHost(t, cfg, report)
	h.hold = hold
	h.run(cfg)
	return got, report
}

// exactlyOnce reports how many of the oracle's pairs were not produced
// exactly once, and whether anything beyond them was produced.
func exactlyOnce(got map[join.Pair]int, want []join.Pair) (wrong int, extra bool) {
	for _, p := range want {
		if got[p] != 1 {
			wrong++
		}
	}
	return wrong, len(got) != len(want)
}

// TestAdversarialControlDelivery replays the interleaving that lost
// pairs: every tuple from the merger to assigner 1 is held back while
// assigner 1 has a reader tuple queued, so its peers' θ verdicts and
// tables reach it only after it has seen the rest of the stream.
// Lock-step control makes assigner 1 wait for each window's control
// message anyway, so the run stays exact and no window mixes table
// generations.
func TestAdversarialControlDelivery(t *testing.T) {
	for _, tc := range []struct {
		dataset string
		seed    int64
		m       int
		theta   float64
	}{
		{"nbData", 1, 8, 0.2},
		{"rwData", 2, 16, 0.05},
	} {
		t.Run(tc.dataset, func(t *testing.T) {
			gen, _ := datagen.ByName(tc.dataset, tc.seed)
			const windowSize, windows = 200, 8
			var docs []document.Document
			for w := 0; w < windows; w++ {
				docs = append(docs, gen.Window(windowSize)...)
			}
			cfg := Config{M: tc.m, Creators: 2, Assigners: 2, WindowSize: windowSize, Windows: windows, Theta: tc.theta}
			got, report := runStepped(t, cfg, docs, func(comp string, task int, q []topology.Tuple, i int) bool {
				if comp != "assigner" || task != 1 || q[i].Source != "merger" {
					return false
				}
				return slices.ContainsFunc(q, func(t topology.Tuple) bool { return t.Source == "reader" })
			})
			want := join.Oracle(docs, windowSize)
			if wrong, extra := exactlyOnce(got, want); wrong > 0 || extra {
				t.Errorf("%d of %d oracle pairs missing or duplicated, %d pairs produced", wrong, len(want), len(got))
			}
			if len(report.MixedTableWindows) != 0 {
				t.Errorf("windows %v routed under more than one table generation", report.MixedTableWindows)
			}
			if report.Repartitions == 0 {
				t.Error("no repartition: the schedule went unexercised")
			}
			t.Logf("%d pairs, %d repartitions, %d tables", len(want), report.Repartitions, report.TableVersions)
		})
	}
}

// TestControlPlaneDeterministic: with one control message per window,
// repartitions, table versions, routing statistics and the join result
// are functions of the input and the configuration — five in-process
// runs and one run on three TCP workers agree, and the pairs are the
// oracle's.
func TestControlPlaneDeterministic(t *testing.T) {
	for _, tc := range []struct {
		dataset string
		m       int
	}{
		{"nbData", 4},
		{"rwData", 16},
	} {
		t.Run(tc.dataset, func(t *testing.T) {
			const windowSize, windows = 250, 6
			gen, _ := datagen.ByName(tc.dataset, 7)
			var docs []document.Document
			for w := 0; w < windows; w++ {
				docs = append(docs, gen.Window(windowSize)...)
			}
			want := oraclePairs(docs, windowSize)
			cfg := Config{M: tc.m, Creators: 2, Assigners: 3, WindowSize: windowSize, Windows: windows, Delta: 3, Theta: 0.05}
			var first *Report
			for run := 0; run < 6; run++ {
				var opts []Option
				if run == 5 {
					opts = append(opts, WithWorkers(3))
				}
				got, report := runAndCollect(t, cfg, docs, opts...)
				if !maps.Equal(got, want) {
					t.Fatalf("run %d: %d pairs, oracle %d", run, len(got), len(want))
				}
				if first == nil {
					first = report
					if report.Repartitions == 0 {
						t.Fatalf("no repartition in %d tables: θ went unexercised", report.TableVersions)
					}
					continue
				}
				if report.Repartitions != first.Repartitions || report.TableVersions != first.TableVersions ||
					report.DocsJoined != first.DocsJoined || report.JoinPairs != first.JoinPairs ||
					!reflect.DeepEqual(report.Run, first.Run) {
					t.Errorf("run %d differs from run 0:\n%s\n%s", run, report, first)
				}
			}
		})
	}
}
