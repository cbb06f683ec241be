package core

import (
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// TestMixedGenerationWindowReported replays, at bolt level, the
// interleaving ROADMAP item 1 suspects behind the silent pair loss: a
// recomputed table reaches one assigner in time for window 2 and is
// held back for the other past window 2's punctuation, so the two route
// that window under different table generations. The collector must
// name exactly that window — and a window one assigner alone routes
// under two generations (a recomputed table adopted mid-window).
func TestMixedGenerationWindowReported(t *testing.T) {
	cfg := testConfig()
	cfg.Assigners = 2
	cfg.Telemetry = telemetry.NewRegistry()
	var report Report
	collector := newCollectorBolt(cfg, &report)
	collector.Prepare(&topology.TaskContext{})

	var assigners [2]*assignerBolt
	var cols [2]*fakeCollector
	for i := range assigners {
		assigners[i] = newAssignerBolt(cfg, i)
		assigners[i].Prepare(&topology.TaskContext{Parallelism: map[string]int{"joiner": cfg.M}})
		cols[i] = &fakeCollector{}
	}
	nextID := uint64(0)
	routeDoc := func(task, window int) {
		nextID++
		assigners[task].Execute(docTuple(window, document.MustParse(nextID, `{"a":1}`)), cols[task])
	}
	table := func(task, version, window int, recomputed bool) {
		msg := newTableMsg(version, intPair2("a", 1))
		msg.Window, msg.Recomputed = window, recomputed
		assigners[task].Execute(topology.Tuple{Stream: streamTable, Values: topology.Values{"msg": msg}}, cols[task])
	}

	// Window 0 is routed without a table (generation 0) and ends at the
	// deployment barrier, which the initial table releases.
	for task := range assigners {
		routeDoc(task, 0)
		assigners[task].Execute(wendTuple(0), cols[task])
		table(task, 1, 0, false)
	}
	// Window 1: generation 1 everywhere.
	for task := range assigners {
		routeDoc(task, 1)
		assigners[task].Execute(wendTuple(1), cols[task])
	}
	// The table recomputed from window 1 reaches assigner 0 before
	// window 2 and assigner 1 only after window 2's punctuation.
	table(0, 2, 1, true)
	for task := range assigners {
		routeDoc(task, 2)
		assigners[task].Execute(wendTuple(2), cols[task])
	}
	table(1, 2, 1, true)
	// Window 3: generation 2 everywhere.
	for task := range assigners {
		routeDoc(task, 3)
		assigners[task].Execute(wendTuple(3), cols[task])
	}
	// Window 4: both adopt the next recomputed table between two of
	// their documents — the same two generations at each task.
	for task := range assigners {
		routeDoc(task, 4)
		table(task, 3, 3, true)
		routeDoc(task, 4)
		assigners[task].Execute(wendTuple(4), cols[task])
	}
	// Window 5: an additive δ table mid-window extends the generation.
	for task := range assigners {
		routeDoc(task, 5)
		table(task, 4, -1, false)
		routeDoc(task, 5)
		assigners[task].Execute(wendTuple(5), cols[task])
	}

	for _, col := range cols {
		for _, e := range col.byStream(streamAssignerStats) {
			collector.Execute(topology.Tuple{Stream: streamAssignerStats, Values: e.values}, nil)
		}
	}
	for w := 0; w <= 5; w++ {
		for j := 0; j < cfg.M; j++ {
			collector.Execute(topology.Tuple{Stream: streamJoinerStats, Values: topology.Values{"msg": joinerStatsMsg{Window: w, Task: j}}}, nil)
		}
	}
	collector.Cleanup()
	if want := []int{2, 4}; !slices.Equal(report.MixedTableWindows, want) {
		t.Errorf("MixedTableWindows = %v, want %v", report.MixedTableWindows, want)
	}
	if got := cfg.Telemetry.Snapshot().Counter("partition_mixed_generation_windows_total"); got != 2 {
		t.Errorf("partition_mixed_generation_windows_total = %d, want 2", got)
	}
}

// TestSingleAssignerRoutesEachWindowUnderOneGeneration: with one
// assigner every recomputed table is awaited at the deployment barrier,
// so an undisturbed run mixes no window, repartitions included.
func TestSingleAssignerRoutesEachWindowUnderOneGeneration(t *testing.T) {
	reg := telemetry.NewRegistry()
	report, err := NewRunner(Config{
		M: 4, Creators: 2, Assigners: 1,
		WindowSize: 300, Windows: 8,
		Theta:  0.02,    // low enough that some window recomputes
		Delta:  1 << 30, // no δ updates: they make the repartition count timing-dependent
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
