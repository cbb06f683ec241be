package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// resultKey identifies a delivered result by everything a consumer can
// rely on: the pair (oriented low id first — which document a joiner
// sees second depends on assigner interleaving) and the merged
// content. Merged.ID is left out: it numbers one task's materialised
// results.
func resultKey(r join.Result) string {
	l, h := r.Left, r.Right
	if l > h {
		l, h = h, l
	}
	return fmt.Sprintf("%d|%d|%v", l, h, r.Merged.Pairs())
}

// oracleResults is join.Oracle's result multiset, each pair with its
// merged document.
func oracleResults(docs []document.Document, windowSize int) map[string]int {
	byID := make(map[uint64]document.Document, len(docs))
	for _, d := range docs {
		byID[d.ID] = d
	}
	want := make(map[string]int)
	for _, p := range join.Oracle(docs, windowSize) {
		merged := document.Merge(0, byID[p.LeftID], byID[p.RightID])
		want[resultKey(join.Result{Left: p.LeftID, Right: p.RightID, Merged: merged})]++
	}
	return want
}

// TestResultMultisetParity: whatever the runtime (in-process, three TCP
// workers), the results handed to OnResult — merged documents included
// — are exactly the single-process join's, each once.
func TestResultMultisetParity(t *testing.T) {
	const (
		windowSize = 150
		windows    = 4
	)
	for _, dataset := range []string{"rwData", "nbData"} {
		gen, ok := datagen.ByName(dataset, 33)
		if !ok {
			t.Fatalf("no dataset %s", dataset)
		}
		docs := gen.Window(windowSize * windows)
		want := oracleResults(docs, windowSize)
		if len(want) == 0 {
			t.Fatalf("%s: oracle produced no results", dataset)
		}
		for _, workers := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", dataset, workers), func(t *testing.T) {
				var mu sync.Mutex
				got := make(map[string]int)
				cfg := Config{
					M: 4, WindowSize: windowSize, Windows: windows,
					Source: &replaySource{docs: docs},
					OnResult: func(r join.Result) {
						mu.Lock()
						got[resultKey(r)]++
						mu.Unlock()
					},
				}
				var opts []Option
				if workers > 0 {
					opts = append(opts, WithWorkers(workers))
				}
				report, err := NewRunner(cfg, opts...).Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(report.Topology.Failures) > 0 {
					t.Fatalf("failures: %v", report.Topology.Failures)
				}
				for k, n := range want {
					if got[k] != n {
						t.Errorf("result %s delivered %d times, oracle %d", k, got[k], n)
					}
				}
				for k, n := range got {
					if want[k] == 0 {
						t.Errorf("spurious result %s (%d times)", k, n)
					}
				}
			})
		}
	}
}

// TestMaterialisedEqualsOwned holds the pair-first invariant on the
// live counters: with a consumer attached every owned pair is
// materialised exactly once and nothing else is; with none, nothing is
// materialised and the pair count does not move. The probe finds every
// replica of a pair, so partners is the larger number.
func TestMaterialisedEqualsOwned(t *testing.T) {
	run := func(consume bool) (*Report, int) {
		var delivered int
		var mu sync.Mutex
		cfg := Config{
			M: 4, Creators: 2, Assigners: 2,
			WindowSize: 120, Windows: 3,
			Source: datagen.NewServerLog(7),
		}
		if consume {
			cfg.OnResult = func(join.Result) {
				mu.Lock()
				delivered++
				mu.Unlock()
			}
		}
		report, err := NewRunner(cfg, WithTelemetry(telemetry.NewRegistry())).Run()
		if err != nil {
			t.Fatal(err)
		}
		return report, delivered
	}

	with, delivered := run(true)
	snap := with.Telemetry
	pairs := snap.SumCounter("join_pairs_total")
	if results := snap.SumCounter("join_results_total"); results != pairs || pairs != int64(with.JoinPairs) || delivered != with.JoinPairs {
		t.Errorf("join_results_total = %d, join_pairs_total = %d, Report.JoinPairs = %d, delivered = %d; want all equal",
			results, pairs, with.JoinPairs, delivered)
	}
	if partners := snap.SumCounter("join_probe_partners_total"); partners <= pairs {
		t.Errorf("join_probe_partners_total = %d, want more than the %d owned pairs at M=4 replication", partners, pairs)
	}
	if n := snap.SumCounter("join_ownerless_pairs_total"); n != 0 {
		t.Errorf("join_ownerless_pairs_total = %d", n)
	}

	without, _ := run(false)
	if results := without.Telemetry.SumCounter("join_results_total"); results != 0 {
		t.Errorf("no consumer, yet join_results_total = %d", results)
	}
	if without.JoinPairs != with.JoinPairs || without.JoinPairs == 0 {
		t.Errorf("Report.JoinPairs = %d without a consumer, %d with one", without.JoinPairs, with.JoinPairs)
	}
}

// tojoinTuple is what an assigner sends a joiner.
func tojoinTuple(w int, d document.Document, targets ...int) topology.Tuple {
	return topology.Tuple{Stream: streamToJoin, Values: topology.Values{"doc": d, "window": w, "targets": targets}}
}

// TestJoinerOwnerlessPairIsLoud: two joinable documents whose target
// lists share no joiner cannot both be on this task by the routing
// rules. The pair is not claimed (every holder claiming it would
// duplicate it), it is counted under its own name, and Execute panics
// so the runtime lists the task under Report.Topology.Failures.
func TestJoinerOwnerlessPairIsLoud(t *testing.T) {
	cfg := testConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	var delivered int
	cfg.OnResult = func(join.Result) { delivered++ }
	b := newJoinerBolt(cfg, 0)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"assigner": 1}})
	c := &fakeCollector{}

	b.Execute(tojoinTuple(0, document.MustParse(1, `{"a":1}`), 0, 1), c)
	// Joinable with 1, and owned here: 0 is the lowest common target.
	b.Execute(tojoinTuple(0, document.MustParse(2, `{"a":1,"b":2}`), 0, 2), c)
	if b.pairs != 1 || delivered != 1 {
		t.Fatalf("pairs = %d, delivered = %d before the bad tuple; want 1, 1", b.pairs, delivered)
	}

	// The target list omits the receiving task 0: document 3 shares
	// joiner 2 with document 2 (not ours, silently), nothing with 1.
	var failure any
	func() {
		defer func() { failure = recover() }()
		b.Execute(tojoinTuple(0, document.MustParse(3, `{"a":1,"c":3}`), 2), c)
	}()
	if failure == nil || !strings.Contains(fmt.Sprint(failure), "1 join pair(s) share no target joiner") {
		t.Fatalf("Execute recovered %v, want the ownerless-pair failure", failure)
	}
	if b.pairs != 1 || delivered != 1 {
		t.Errorf("pairs = %d, delivered = %d after the bad tuple; the ownerless pair must not be claimed", b.pairs, delivered)
	}
	snap := cfg.Telemetry.Snapshot()
	if got := snap.Counter(telemetry.Name("join_ownerless_pairs_total", "task", "0")); got != 1 {
		t.Errorf("join_ownerless_pairs_total = %d, want 1", got)
	}
	// The failure is reported once; the task keeps working.
	b.Execute(tojoinTuple(0, document.MustParse(4, `{"b":2}`), 0), c)
	if b.pairs != 2 || delivered != 2 {
		t.Errorf("pairs = %d, delivered = %d after recovery; want 2, 2", b.pairs, delivered)
	}
}
