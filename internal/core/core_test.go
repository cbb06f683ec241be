package core

import (
	"maps"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/partition"
)

// replaySource replays a fixed document list as a generator, so a run
// can be compared against a single-node oracle over the same documents.
type replaySource struct {
	docs []document.Document
	pos  int
}

func (s *replaySource) Name() string { return "replay" }
func (s *replaySource) Window(n int) []document.Document {
	out := make([]document.Document, 0, n)
	for i := 0; i < n && s.pos < len(s.docs); i++ {
		out = append(out, s.docs[s.pos])
		s.pos++
	}
	return out
}

// drawWindows draws n windows of size documents from gen.
func drawWindows(gen datagen.Generator, n, size int) []document.Document {
	var docs []document.Document
	for w := 0; w < n; w++ {
		docs = append(docs, gen.Window(size)...)
	}
	return docs
}

// oraclePairs is join.Oracle's result as a set.
func oraclePairs(docs []document.Document, windowSize int) map[join.Pair]bool {
	want := make(map[join.Pair]bool)
	for _, p := range join.Oracle(docs, windowSize) {
		want[p] = true
	}
	return want
}

// runAndCollect executes the system over the docs and returns the
// produced pair set plus the report.
func runAndCollect(t *testing.T, cfg Config, docs []document.Document, opts ...Option) (map[join.Pair]bool, *Report) {
	t.Helper()
	got, dups, report, err := collectPairs(cfg, docs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Topology.Failures) > 0 {
		t.Fatalf("topology failures: %v", report.Topology.Failures)
	}
	if dups > 0 {
		t.Errorf("%d pairs produced more than once", dups)
	}
	return got, report
}

// collectPairs executes the system over the docs and returns the
// produced pair set, how many results repeated a pair already
// produced, and the report. It calls no testing.T method, so it may
// run on any goroutine.
func collectPairs(cfg Config, docs []document.Document, opts ...Option) (map[join.Pair]bool, int, *Report, error) {
	var mu sync.Mutex
	got := make(map[join.Pair]bool)
	dups := 0
	cfg.Source = &replaySource{docs: docs}
	cfg.OnResult = func(r join.Result) {
		p := join.Pair{LeftID: min(r.Left, r.Right), RightID: max(r.Left, r.Right)}
		mu.Lock()
		if got[p] {
			dups++
		}
		got[p] = true
		mu.Unlock()
	}
	report, err := NewRunner(cfg, opts...).Run()
	mu.Lock()
	defer mu.Unlock()
	return got, dups, report, err
}

// TestSystemExactJoinServerLog is the central end-to-end test: the
// distributed system must produce exactly the single-node join result,
// each pair exactly once, on the rwData surrogate.
func TestSystemExactJoinServerLog(t *testing.T) {
	docs := drawWindows(datagen.NewServerLog(17), 4, 120)
	cfg := Config{M: 4, Creators: 2, Assigners: 3, WindowSize: 120, Windows: 4}
	got, report := runAndCollect(t, cfg, docs)
	want := oraclePairs(docs, 120)
	checkPairSets(t, got, want)
	if report.JoinPairs != len(want) {
		t.Errorf("report.JoinPairs = %d, want %d", report.JoinPairs, len(want))
	}
	if len(report.Run.Windows) != 4 {
		t.Errorf("windows = %d, want 4", len(report.Run.Windows))
	}
}

// TestSystemExactJoinNoBench repeats the exactness check on the diverse
// synthetic dataset with expansion enabled.
func TestSystemExactJoinNoBench(t *testing.T) {
	docs := drawWindows(datagen.NewNoBench(23), 3, 80)
	cfg := Config{M: 4, Creators: 2, Assigners: 2, WindowSize: 80, Windows: 3, Expansion: ExpansionAuto}
	got, _ := runAndCollect(t, cfg, docs)
	want := oraclePairs(docs, 80)
	checkPairSets(t, got, want)
}

// TestSystemExactJoinAllPartitioners: completeness must hold for the
// competitors too.
func TestSystemExactJoinAllPartitioners(t *testing.T) {
	for _, p := range []partition.Partitioner{partition.SetCover{}, partition.DisjointSets{}} {
		docs := drawWindows(datagen.NewServerLog(31), 3, 100)
		cfg := Config{M: 4, Creators: 2, Assigners: 2, WindowSize: 100, Windows: 3, Partitioner: p}
		got, _ := runAndCollect(t, cfg, docs)
		want := oraclePairs(docs, 100)
		if len(got) != len(want) {
			t.Errorf("%s: got %d pairs, want %d", p.Name(), len(got), len(want))
		}
	}
}

func checkPairSets(t *testing.T, got, want map[join.Pair]bool) {
	t.Helper()
	for p := range want {
		if !got[p] {
			t.Errorf("missing join pair (%d,%d)", p.LeftID, p.RightID)
		}
	}
	for p := range got {
		if !want[p] {
			t.Errorf("spurious join pair (%d,%d)", p.LeftID, p.RightID)
		}
	}
}

// TestSystemEnginesAgree: whatever the local join engine, the full
// system produces exactly the single-node oracle's pair set.
func TestSystemEnginesAgree(t *testing.T) {
	docs := drawWindows(datagen.NewServerLog(5), 2, 80)
	want := oraclePairs(docs, 80)
	for _, eng := range []string{"FPJ", "NLJ", "HBJ"} {
		cfg := Config{M: 3, Creators: 1, Assigners: 2, WindowSize: 80, Windows: 2, Engine: eng}
		got, _ := runAndCollect(t, cfg, docs)
		if !maps.Equal(got, want) {
			t.Errorf("%s produced %d pairs that differ from the oracle's %d", eng, len(got), len(want))
		}
	}
}

func TestRunStatsShape(t *testing.T) {
	cfg := Config{M: 4, WindowSize: 150, Windows: 3, Source: datagen.NewServerLog(2)}
	report, err := NewRunner(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(report.Run.Windows); got != 3 {
		t.Fatalf("windows = %d", got)
	}
	for i, w := range report.Run.Windows {
		if w.Documents != 150 {
			t.Errorf("window %d documents = %d, want 150", i, w.Documents)
		}
		if r := w.Replication(); r < 1 || r > 4 {
			t.Errorf("window %d replication = %g out of [1,4]", i, r)
		}
		if l := w.MaxProcessingLoad(); l <= 0 || l > 1 {
			t.Errorf("window %d max load = %g", i, l)
		}
		if g := w.LoadBalance(); g < 0 || g > 1 {
			t.Errorf("window %d gini = %g", i, g)
		}
	}
	if report.TableVersions == 0 {
		t.Error("no table versions broadcast")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewRunner(Config{}).Run(); err == nil {
		t.Error("missing Source must error")
	}
	if _, err := NewRunner(Config{Source: datagen.NewServerLog(1), Engine: "nope"}).Run(); err == nil {
		t.Error("bad engine must error")
	}
}

func TestExpansionModeString(t *testing.T) {
	if ExpansionAuto.String() != "auto" || ExpansionOff.String() != "off" || ExpansionForced.String() != "forced" {
		t.Error("mode names")
	}
	if ExpansionMode(9).String() == "" {
		t.Error("unknown mode must render")
	}
}

func TestReportString(t *testing.T) {
	cfg := Config{M: 2, WindowSize: 50, Windows: 1, Source: datagen.NewServerLog(3)}
	report, err := NewRunner(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.String() == "" {
		t.Error("empty report string")
	}
}

// TestDeltaUpdatesReduceBroadcasts: with updates enabled, recurring
// unseen pairs get folded into the partitions, so later windows
// broadcast less than they would without any table.
func TestDeltaUpdatesReduceBroadcasts(t *testing.T) {
	gen := datagen.NewServerLog(13)
	// A single assigner makes the δ counting global, so the test is
	// deterministic rather than dependent on which assigner sees the
	// recurring pair.
	cfg := Config{M: 4, Creators: 2, Assigners: 1, WindowSize: 300, Windows: 6, Delta: 2, Source: gen}
	report, err := NewRunner(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	first := report.Run.Windows[0]
	last := report.Run.Windows[len(report.Run.Windows)-1]
	// Window 0 has no table at all: everything broadcasts.
	if first.Broadcasts != first.Documents {
		t.Errorf("window 0 broadcasts = %d, want all %d", first.Broadcasts, first.Documents)
	}
	if last.Broadcasts >= last.Documents {
		t.Errorf("last window still broadcasts everything (%d/%d)", last.Broadcasts, last.Documents)
	}
	if report.TableVersions < 2 {
		t.Errorf("TableVersions = %d; δ updates should add versions", report.TableVersions)
	}
}

func TestPipelineQuickJoin(t *testing.T) {
	p, err := NewPipeline("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProcessJSON([]byte(`{"User":"A","Severity":"Warning"}`)); err != nil {
		t.Fatal(err)
	}
	res, err := p.ProcessJSON([]byte(`{"User":"A","MsgId":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	if !res[0].Merged.HasAttr("MsgId") || !res[0].Merged.HasAttr("Severity") {
		t.Errorf("merged = %v", res[0].Merged)
	}
	docs, pairs := p.Tumble()
	if docs != 2 || pairs != 1 {
		t.Errorf("Tumble = %d,%d", docs, pairs)
	}
	if p.Size() != 0 {
		t.Error("window not evicted")
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := NewPipeline("bogus"); err == nil {
		t.Error("bogus engine must fail")
	}
	p, _ := NewPipeline("NLJ")
	if _, err := p.ProcessJSON([]byte(`{`)); err == nil {
		t.Error("bad JSON must fail")
	}
}

func TestPlanPartitionsAndRoute(t *testing.T) {
	gen := datagen.NewNoBench(4)
	docs := gen.Window(200)
	table, spec := PlanPartitions(docs, 8, nil, ExpansionAuto)
	if spec == nil {
		t.Fatal("NoBench must trigger expansion (Boolean attribute)")
	}
	if table.NonEmpty() < 4 {
		t.Errorf("non-empty partitions = %d", table.NonEmpty())
	}
	// Routing any sample doc reaches at least one machine.
	targets, _ := RouteDocument(table, spec, docs[0])
	if len(targets) == 0 {
		t.Error("no targets for sample document")
	}
}

// TestHashPairsRoutingExact: the related-work hash-routing baseline
// must also produce the exact join result.
func TestHashPairsRoutingExact(t *testing.T) {
	docs := drawWindows(datagen.NewServerLog(55), 3, 100)
	cfg := Config{M: 5, Creators: 2, Assigners: 2, WindowSize: 100, Windows: 3, Routing: HashPairsRouting}
	got, report := runAndCollect(t, cfg, docs)
	checkPairSets(t, got, oraclePairs(docs, 100))
	// Hash routing never broadcasts; replication is bounded by the
	// number of pairs per document.
	for i, w := range report.Run.Windows {
		if w.Broadcasts != 0 {
			t.Errorf("window %d: hash routing broadcast %d docs", i, w.Broadcasts)
		}
	}
}

func TestRoutingString(t *testing.T) {
	if PartitionRouting.String() != "partition" || HashPairsRouting.String() != "hash-pairs" {
		t.Error("routing names")
	}
	if Routing(9).String() == "" {
		t.Error("unknown routing must render")
	}
}
