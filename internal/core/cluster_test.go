package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/join"
)

// TestClusterRunMatchesOracle runs the full system across three
// TCP-connected workers and checks the exact join result.
func TestClusterRunMatchesOracle(t *testing.T) {
	docs := drawWindows(datagen.NewServerLog(77), 3, 80)
	var mu sync.Mutex
	got := make(map[join.Pair]bool)
	cfg := Config{
		M: 4, Creators: 2, Assigners: 2, WindowSize: 80, Windows: 3,
		Source: &replaySource{docs: docs},
		OnResult: func(r join.Result) {
			p := join.Pair{LeftID: r.Left, RightID: r.Right}
			if p.LeftID > p.RightID {
				p.LeftID, p.RightID = p.RightID, p.LeftID
			}
			mu.Lock()
			if got[p] {
				mu.Unlock()
				t.Errorf("pair (%d,%d) duplicated", p.LeftID, p.RightID)
				return
			}
			got[p] = true
			mu.Unlock()
		},
	}
	report, err := NewRunner(cfg, WithWorkers(3)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Topology.Failures) > 0 {
		t.Fatalf("failures: %v", report.Topology.Failures)
	}
	mu.Lock()
	defer mu.Unlock()
	checkPairSets(t, got, oraclePairs(docs, 80))
	if len(report.Run.Windows) != 3 {
		t.Errorf("windows = %d", len(report.Run.Windows))
	}
}

// TestClusterRunSingleWorker: degenerate cluster must behave like the
// in-process runtime.
func TestClusterRunSingleWorker(t *testing.T) {
	cfg := Config{M: 3, Creators: 1, Assigners: 2, WindowSize: 60, Windows: 2, Source: datagen.NewNoBench(9)}
	report, err := NewRunner(cfg, WithWorkers(1)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.JoinPairs == 0 {
		t.Error("no join pairs produced")
	}
	if len(report.Run.Windows) != 2 {
		t.Errorf("windows = %d", len(report.Run.Windows))
	}
}

// TestClusterAndLocalAgree: identical configuration and data must yield
// identical join-pair counts on both runtimes.
func TestClusterAndLocalAgree(t *testing.T) {
	mkDocs := func() []document.Document {
		docs := drawWindows(datagen.NewServerLog(101), 2, 100)
		return docs
	}
	baseCfg := func(docs []document.Document) Config {
		return Config{M: 4, Creators: 2, Assigners: 2, WindowSize: 100, Windows: 2, Source: &replaySource{docs: docs}}
	}
	local, err := NewRunner(baseCfg(mkDocs())).Run()
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := NewRunner(baseCfg(mkDocs()), WithWorkers(2)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if local.JoinPairs != clustered.JoinPairs {
		t.Errorf("local pairs = %d, cluster pairs = %d", local.JoinPairs, clustered.JoinPairs)
	}
	if local.JoinPairs == 0 {
		t.Error("empty result")
	}
}

// TestBoundedMailboxesDoNotHang runs the pipeline on three TCP workers
// with mailboxes small enough that the joiners' fill up. A full mailbox
// must only slow the run down: every run completes before its deadline
// with exactly the oracle's pairs. A hung run fails with a dump of every
// goroutine, which shows the blocked locks and mailboxes.
func TestBoundedMailboxesDoNotHang(t *testing.T) {
	const windows, size, deadline = 8, 1200, 2 * time.Minute
	for _, dataset := range []string{"rwData", "nbData"} {
		gen, _ := datagen.ByName(dataset, 7)
		docs := drawWindows(gen, windows, size)
		want := oraclePairs(docs, size)
		for _, pending := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/max-pending=%d", dataset, pending), func(t *testing.T) {
				cfg := Config{M: 8, WindowSize: size, Windows: windows, MaxPending: pending}
				type result struct {
					got    map[join.Pair]bool
					dups   int
					report *Report
					err    error
				}
				done := make(chan result, 1)
				go func() {
					got, dups, report, err := collectPairs(cfg, docs, WithWorkers(3))
					done <- result{got, dups, report, err}
				}()
				select {
				case r := <-done:
					if r.err != nil {
						t.Fatal(r.err)
					}
					if len(r.report.Topology.Failures) > 0 {
						t.Fatalf("topology failures: %v", r.report.Topology.Failures)
					}
					if r.dups > 0 {
						t.Errorf("%d pairs produced more than once", r.dups)
					}
					checkPairSets(t, r.got, want)
				case <-time.After(deadline):
					buf := make([]byte, 1<<24)
					buf = buf[:runtime.Stack(buf, true)]
					t.Fatalf("run did not finish within %s; goroutines:\n%s", deadline, buf)
				}
			})
		}
	}
}
