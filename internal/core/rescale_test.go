package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/telemetry"
)

// pacedSource stretches a replayed stream in time so mid-run control
// actions (rescales) have room to land before the stream runs out.
type pacedSource struct {
	inner *replaySource
	gap   time.Duration
}

func (s *pacedSource) Name() string { return "paced" }
func (s *pacedSource) Window(n int) []document.Document {
	time.Sleep(s.gap)
	return s.inner.Window(n)
}

// TestElasticRescaleChaosParity is the elastic-rescale acceptance
// test: a 3-worker cluster run grows to 5 and shrinks to 2 mid-stream
// — with every data link severed while the shrink migration streams —
// and must still produce exactly the single-node oracle's pair set,
// each pair exactly once, with zero source replay.
func TestElasticRescaleChaosParity(t *testing.T) {
	deadline(t, clusterDeadline)
	const windows, windowSize = 20, 60
	docs := drawWindows(datagen.NewServerLog(41), windows, windowSize)

	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	got := make(map[join.Pair]bool)
	dups := 0

	var proxMu sync.Mutex
	proxies := make(map[int]*cluster.ChaosProxy)
	severAll := func() {
		proxMu.Lock()
		defer proxMu.Unlock()
		for _, p := range proxies {
			p.SeverAll()
		}
	}

	windowDone := make(chan int, windows)
	cfg := Config{
		M: 4, Creators: 2, Assigners: 2,
		WindowSize: windowSize, Windows: windows,
		Source: &pacedSource{inner: &replaySource{docs: docs}, gap: 10 * time.Millisecond},
		OnResult: func(res join.Result) {
			p := join.Pair{LeftID: res.Left, RightID: res.Right}
			if p.LeftID > p.RightID {
				p.LeftID, p.RightID = p.RightID, p.LeftID
			}
			mu.Lock()
			if got[p] {
				dups++
			}
			got[p] = true
			mu.Unlock()
		},
	}
	r := NewRunner(cfg,
		WithWorkers(3),
		WithElastic(),
		WithTelemetry(reg),
		WithChaos(&Chaos{OnProxy: func(id int, p *cluster.ChaosProxy) {
			proxMu.Lock()
			proxies[id] = p
			proxMu.Unlock()
		}}),
		// The policy here only reports window completions to the driver;
		// the driver issues explicit rescales so it can assert on their
		// outcomes.
		WithRescalePolicy(func(w int, _ bool) int {
			select {
			case windowDone <- w:
			default:
			}
			return 0
		}),
	)

	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		<-windowDone // at least one full window flowed on 3 workers
		if err := r.Rescale(5); err != nil {
			t.Errorf("rescale 3 -> 5: %v", err)
			return
		}
		// Shrink while an adversary severs every data link: migration
		// chunks ride the resend buffers, so the severed links must
		// replay them on the redialled connections.
		shrinkDone := make(chan error, 1)
		go func() { shrinkDone <- r.Rescale(2) }()
		severAll()
		time.Sleep(5 * time.Millisecond)
		severAll()
		if err := <-shrinkDone; err != nil {
			t.Errorf("rescale 5 -> 2: %v", err)
			return
		}
		table, epoch, err := r.PlacementInfo()
		if err != nil {
			t.Errorf("placement info: %v", err)
			return
		}
		if epoch != 2 {
			t.Errorf("epoch after two rescales = %d, want 2", epoch)
		}
		hosts := make(map[int]bool)
		for _, assign := range table {
			for _, w := range assign {
				hosts[w] = true
			}
		}
		if len(hosts) != 2 {
			t.Errorf("tasks hosted on %d workers after shrink, want 2 (table %v)", len(hosts), table)
		}
	}()

	report, err := r.Run()
	<-driverDone
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Topology.Failures) > 0 {
		t.Fatalf("topology failures: %v", report.Topology.Failures)
	}

	want := oraclePairs(docs, windowSize)
	mu.Lock()
	defer mu.Unlock()
	checkPairSets(t, got, want)
	if dups != 0 {
		t.Errorf("%d join pairs delivered more than once", dups)
	}
	if report.JoinPairs != len(want) {
		t.Errorf("report.JoinPairs = %d, want %d", report.JoinPairs, len(want))
	}

	// The whole point: elastic rescale never re-reads the source.
	if n, ok := report.Telemetry.Counters["source_replays_total"]; !ok {
		t.Error("source_replays_total not registered")
	} else if n != 0 {
		t.Errorf("source_replays_total = %d, want 0", n)
	}
	var migrations, migBytes int64
	for name, v := range report.Telemetry.Counters {
		if strings.HasPrefix(name, "cluster_migrations_total") {
			migrations += v
		}
		if strings.HasPrefix(name, "cluster_migration_bytes_total") {
			migBytes += v
		}
	}
	if migrations == 0 {
		t.Error("no task migrations recorded across two rescales")
	}
	if migBytes == 0 {
		t.Error("no migration bytes recorded")
	}
	if n := report.Telemetry.Counters["cluster_rescales_total"]; n != 2 {
		t.Errorf("cluster_rescales_total = %d, want 2", n)
	}
	if e := report.Telemetry.Gauges["cluster_epoch"]; e != 2 {
		t.Errorf("cluster_epoch gauge = %g, want 2", e)
	}
}

// TestRescalePolicyAutoGrow: the θ-fold path — a policy verdict alone
// (no explicit Rescale call) grows the cluster.
func TestRescalePolicyAutoGrow(t *testing.T) {
	deadline(t, clusterDeadline)
	const windows, windowSize = 16, 50
	docs := drawWindows(datagen.NewServerLog(7), windows, windowSize)
	reg := telemetry.NewRegistry()
	var fired sync.Once
	cfg := Config{
		M: 4, Creators: 2, Assigners: 2,
		WindowSize: windowSize, Windows: windows,
		Source: &pacedSource{inner: &replaySource{docs: docs}, gap: 8 * time.Millisecond},
	}
	r := NewRunner(cfg,
		WithWorkers(2),
		WithElastic(),
		WithTelemetry(reg),
		WithRescalePolicy(func(w int, _ bool) int {
			grow := 0
			fired.Do(func() { grow = 3 })
			return grow
		}),
	)
	report, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Topology.Failures) > 0 {
		t.Fatalf("topology failures: %v", report.Topology.Failures)
	}
	want := oraclePairs(docs, windowSize)
	if report.JoinPairs != len(want) {
		t.Errorf("report.JoinPairs = %d, want %d", report.JoinPairs, len(want))
	}
	// The policy fires asynchronously; with the paced stream the grow
	// lands well before the run ends, recorded by the rescale counter.
	if n := report.Telemetry.Counters["cluster_rescales_total"]; n != 1 {
		t.Errorf("cluster_rescales_total = %d, want 1", n)
	}
}

// TestRescaleValidation: option combinations that cannot work fail
// loudly, and Rescale without a live run is a plain error.
func TestRescaleValidation(t *testing.T) {
	src := func() Config { return Config{Source: &replaySource{}} }
	if _, err := NewRunner(src(), WithElastic()).Run(); err == nil {
		t.Error("WithElastic without WithWorkers must fail")
	}
	if _, err := NewRunner(src(), WithWorkers(2),
		WithRescalePolicy(func(int, bool) int { return 0 })).Run(); err == nil {
		t.Error("WithRescalePolicy without WithElastic must fail")
	}
	r := NewRunner(src(), WithWorkers(2), WithElastic())
	if err := r.Rescale(3); err == nil {
		t.Error("Rescale before Run must fail")
	}
	if _, _, err := r.PlacementInfo(); err == nil {
		t.Error("PlacementInfo before Run must fail")
	}
}
