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

// clusterDeadline bounds one cluster test or subtest: far beyond what
// any of them takes under the race detector on two cores, far below go
// test's own timeout.
const clusterDeadline = 5 * time.Minute

// deadline fails the running test, and the test binary with it, if the
// test has not finished within d, with a dump of every goroutine that
// shows the blocked locks and mailboxes: a hung run then names itself
// instead of stalling the package until go test's timeout.
func deadline(t *testing.T, d time.Duration) {
	timer := time.AfterFunc(d, func() {
		buf := make([]byte, 1<<24)
		buf = buf[:runtime.Stack(buf, true)]
		panic(fmt.Sprintf("%s did not finish within %s; goroutines:\n%s", t.Name(), d, buf))
	})
	t.Cleanup(func() { timer.Stop() })
}

// TestBoundedMailboxesDoNotHang runs the pipeline on three TCP workers
// with mailboxes small enough that the joiners' fill up. A full mailbox
// must only slow the run down: every run completes before its deadline
// with exactly the oracle's pairs.
func TestBoundedMailboxesDoNotHang(t *testing.T) {
	const windows, size = 8, 1200
	for _, dataset := range []string{"rwData", "nbData"} {
		gen, _ := datagen.ByName(dataset, 7)
		docs := drawWindows(gen, windows, size)
		want := oraclePairs(docs, size)
		for _, pending := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/max-pending=%d", dataset, pending), func(t *testing.T) {
				deadline(t, 2*time.Minute)
				cfg := Config{M: 8, WindowSize: size, Windows: windows, MaxPending: pending}
				got, dups, report, err := collectPairs(cfg, docs, WithWorkers(3))
				if err != nil {
					t.Fatal(err)
				}
				if len(report.Topology.Failures) > 0 {
					t.Fatalf("topology failures: %v", report.Topology.Failures)
				}
				if dups > 0 {
					t.Errorf("%d pairs produced more than once", dups)
				}
				checkPairSets(t, got, want)
			})
		}
	}
}
