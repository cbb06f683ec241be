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

// TestMixedGenerationWindowReported: the merger spans the generations
// of every assigner's verdict, and the collector names every window
// routed under more than one table generation — by two assigners under
// different generations (window 2) or by one under two (window 4) —
// counts them, and Run fails on them.
func TestMixedGenerationWindowReported(t *testing.T) {
	cfg := testConfig()
	cfg.Assigners = 2
	cfg.Telemetry = telemetry.NewRegistry()
	merger := newMergerBolt(cfg)
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
	mc := &fakeCollector{}
	for w := 0; w <= 5; w++ {
		merger.Execute(reportTuple(w, 0, false), mc)
		for task, g := range gens[w] {
			v := routedVerdict(cfg.M, w, task, []int{0})
			v.GenLow, v.GenHigh = g[0], g[1]
			merger.Execute(verdictTuple(v), mc)
		}
		for j := 0; j < cfg.M; j++ {
			collector.Execute(topology.Tuple{Stream: streamJoinerStats, Values: topology.Values{"msg": joinerStatsMsg{Window: w, Task: j}}}, nil)
		}
	}
	for _, e := range mc.byStream(streamMergerEvents) {
		collector.Execute(topology.Tuple{Stream: e.stream, Values: e.values}, nil)
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

// runStepped runs cfg over docs on the sequential host under sched,
// and returns how often each pair was produced and the report.
func runStepped(t *testing.T, cfg Config, docs []document.Document, sched topology.Schedule) (map[join.Pair]int, *Report) {
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
	if report.Topology, err = topology.RunSequential(buildTopology(cfg, report), sched); err != nil {
		t.Fatal(err)
	}
	return got, report
}

// holding is the seed-0 schedule over the ready units that held lets
// through: held(u, ready) keeps u back, and must let one unit through.
func holding(held func(u topology.Unit, ready []topology.Unit) bool) topology.Schedule {
	base := topology.SeededSchedule(0)
	return func(ready []topology.Unit) int {
		var free []topology.Unit
		var at []int
		for i, u := range ready {
			if !held(u, ready) {
				free, at = append(free, u), append(at, i)
			}
		}
		return at[base(free)]
	}
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
// pairs: the merger → assigner 1 edge is not picked while the reader →
// assigner 1 edge is ready, so its peers' θ verdicts and tables reach
// it only after it has seen the rest of the stream. Lock-step control
// makes assigner 1 wait for each window's control message anyway, so
// the run stays exact and no window mixes table generations.
func TestAdversarialControlDelivery(t *testing.T) {
	for _, tc := range []struct {
		dataset string
		seed    int64
		m       int
		theta   float64
		delta   int
	}{
		// δ = 8: with θ and δ counted over the whole stream, nbData's
		// tables absorb its new pairs at δ = 3 and never degrade past θ.
		{"nbData", 1, 8, 0.2, 8},
		{"rwData", 2, 16, 0.05, 3},
	} {
		t.Run(tc.dataset, func(t *testing.T) {
			const windowSize, windows = 200, 8
			gen, _ := datagen.ByName(tc.dataset, tc.seed)
			docs := drawWindows(gen, windows, windowSize)
			cfg := Config{M: tc.m, Creators: 2, Assigners: 2, WindowSize: windowSize, Windows: windows, Theta: tc.theta, Delta: tc.delta}
			assigner1 := topology.TaskID{Component: "assigner", Task: 1}
			fromReader := func(u topology.Unit) bool { return u.Target == assigner1 && u.Source.Component == "reader" }
			got, report := runStepped(t, cfg, docs, holding(func(u topology.Unit, ready []topology.Unit) bool {
				return u.Target == assigner1 && u.Source.Component == "merger" && slices.ContainsFunc(ready, fromReader)
			}))
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

// sameRun reports whether two runs agree on everything the control
// plane decides.
func sameRun(a, b *Report) bool {
	return a.Repartitions == b.Repartitions && a.TableVersions == b.TableVersions &&
		a.DocsJoined == b.DocsJoined && a.JoinPairs == b.JoinPairs && reflect.DeepEqual(a.Run, b.Run)
}

// TestControlPlaneDeterministic: with one control message per window,
// repartitions, table versions, routing statistics and the join result
// are functions of the input and the configuration — five in-process
// runs and one run on three TCP workers agree with the sequential
// host's seed-0 run, and the pairs are the oracle's.
func TestControlPlaneDeterministic(t *testing.T) {
	for _, tc := range []struct {
		dataset string
		m       int
		delta   int
	}{
		// δ = 5 keeps a θ recomputation in nbData's six windows.
		{"nbData", 4, 5},
		{"rwData", 16, 3},
	} {
		t.Run(tc.dataset, func(t *testing.T) {
			deadline(t, clusterDeadline)
			const windowSize, windows = 250, 6
			gen, _ := datagen.ByName(tc.dataset, 7)
			docs := drawWindows(gen, windows, windowSize)
			cfg := Config{M: tc.m, Creators: 2, Assigners: 3, WindowSize: windowSize, Windows: windows, Delta: tc.delta, Theta: 0.05}
			stepped, ref := runStepped(t, cfg, docs, topology.SeededSchedule(0))
			if wrong, extra := exactlyOnce(stepped, join.Oracle(docs, windowSize)); wrong > 0 || extra {
				t.Fatalf("sequential run: %d oracle pairs missing or duplicated, %d pairs produced", wrong, len(stepped))
			}
			if ref.Repartitions == 0 {
				t.Fatalf("no repartition in %d tables: θ went unexercised", ref.TableVersions)
			}
			want := oraclePairs(docs, windowSize)
			for run := 0; run < 6; run++ {
				var opts []Option
				if run == 5 {
					opts = append(opts, WithWorkers(3))
				}
				got, report := runAndCollect(t, cfg, docs, opts...)
				if !maps.Equal(got, want) {
					t.Fatalf("run %d: %d pairs, oracle %d", run, len(got), len(want))
				}
				if !sameRun(report, ref) {
					t.Errorf("run %d differs from the sequential seed-0 run:\n%s\n%s", run, report, ref)
				}
			}
		})
	}
}

// TestControlPlaneScheduleSweep runs the pipeline on the sequential
// host under the seed-0 round-robin and 199 priority schedules, which
// starve an edge for as long as another stays ready: the delay that
// lets an assigner route a window under another table generation than
// its peers, which a uniform random pick rarely produces. Every
// schedule must join every oracle pair exactly once, route no window
// under two generations, fail no task, and reach the same control-plane
// decisions.
func TestControlPlaneScheduleSweep(t *testing.T) {
	const seeds = 200
	for _, in := range []struct {
		name, dataset string
		cfg           Config
	}{
		// δ = 5 keeps a θ recomputation in nbData's four windows.
		{"nbData", "nbData", Config{M: 4, Creators: 2, Assigners: 3, WindowSize: 100, Windows: 4, Theta: 0.05, Delta: 5}},
		{"rwData", "rwData", Config{M: 16, Creators: 2, Assigners: 3, WindowSize: 100, Windows: 4, Theta: 0.05, Delta: 3}},
		// One assigner, θ low enough that some window recomputes, no δ.
		{"singleAssigner", "nbData", Config{M: 4, Creators: 2, Assigners: 1, WindowSize: 100, Windows: 4, Theta: 0.02, Delta: 1 << 30}},
	} {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			gen, _ := datagen.ByName(in.dataset, 7)
			docs := drawWindows(gen, in.cfg.Windows, in.cfg.WindowSize)
			want := join.Oracle(docs, in.cfg.WindowSize)
			var ref *Report
			for seed := int64(0); seed < seeds; seed++ {
				got, report := runStepped(t, in.cfg, docs, topology.SeededSchedule(seed))
				if wrong, extra := exactlyOnce(got, want); wrong > 0 || extra {
					t.Errorf("seed %d: %d of %d oracle pairs missing or duplicated, %d pairs produced", seed, wrong, len(want), len(got))
				}
				if len(report.MixedTableWindows) != 0 {
					t.Errorf("seed %d: windows %v routed under more than one table generation", seed, report.MixedTableWindows)
				}
				if len(report.Topology.Failures) != 0 {
					t.Errorf("seed %d: failures %v", seed, report.Topology.Failures)
				}
				if ref == nil {
					ref = report
					if ref.Repartitions == 0 {
						t.Fatalf("no repartition in %d tables: θ went unexercised", ref.TableVersions)
					}
				} else if !sameRun(report, ref) {
					t.Errorf("seed %d differs from seed 0:\n%s\n%s", seed, report, ref)
				}
			}
		})
	}
}
