package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/state"
	"repro/internal/symbol"
	"repro/internal/telemetry"
)

func qdoc(t testing.TB, id uint64, js string) document.Document {
	t.Helper()
	d, err := document.Parse(id, []byte(js))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestQuerySetSharingAndTelemetry: window sizes within the share factor
// share one window state, visible through the shared-tree gauges, and a
// size beyond it gets its own; per-query counters carry query labels
// and are dropped with the query.
func TestQuerySetSharingAndTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	qs := NewQuerySet(QuerySetConfig{Telemetry: reg})
	for _, id := range []string{"a", "b"} {
		if err := qs.Register(id, join.QuerySpec{WindowDocs: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if err := qs.Register("c", join.QuerySpec{WindowDocs: 50}); err != nil {
		t.Fatal(err)
	}
	if err := qs.Register("far", join.QuerySpec{WindowDocs: 1000}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if g := snap.Gauge("queryset_window_groups"); g != 2 {
		t.Errorf("window groups gauge = %g, want 2", g)
	}
	if g := snap.Gauge("queryset_shared_window_groups"); g != 1 {
		t.Errorf("shared groups gauge = %g, want 1", g)
	}
	if g := snap.Gauge("queryset_queries_active"); g != 4 {
		t.Errorf("active gauge = %g, want 3", g)
	}

	// Two joining docs produce one result for a and b, delivered once
	// each; counters are labelled per query.
	var delivered []string
	qs.Ingest(qdoc(t, 1, `{"x":1,"l":"a"}`), nil)
	qs.Ingest(qdoc(t, 2, `{"x":1,"r":"b"}`), func(id string, r join.Result) {
		delivered = append(delivered, id)
	})
	if len(delivered) != 4 {
		t.Errorf("delivered to %v, want one result each for a, b, c, far", delivered)
	}
	snap = reg.Snapshot()
	for _, q := range []string{"a", "b", "c", "far"} {
		name := telemetry.Name("query_results_total", "query", q)
		if snap.Counter(name) != 1 {
			t.Errorf("%s = %d, want 1", name, snap.Counter(name))
		}
		name = telemetry.Name("query_docs_matched_total", "query", q)
		if snap.Counter(name) != 1 {
			t.Errorf("%s = %d, want 1", name, snap.Counter(name))
		}
	}
	// Each state's join series carries the label of the class that
	// opened it: one result per state, however many classes read it.
	for _, label := range []string{"FPJ/w100", "FPJ/w1000"} {
		if n := snap.Counter(telemetry.Name("join_results_total", "window", label)); n != 1 {
			t.Errorf("join_results_total{window=%s} = %d, want 1", label, n)
		}
	}

	// Deleting a query retires its labelled series; deleting the last
	// query of a state retires the state's join series too.
	qs.Unregister("c")
	qs.Unregister("far")
	snap = reg.Snapshot()
	if _, ok := snap.Counters[telemetry.Name("query_results_total", "query", "c")]; ok {
		t.Error("c's counter series survived unregister")
	}
	found := false
	for name := range snap.Counters {
		if telemetry.BaseName(name) == "join_results_total" {
			found = true
		}
	}
	if !found {
		t.Error("shared state's join series vanished with c (wrong state dropped)")
	}
	if _, ok := snap.Counters[telemetry.Name("join_results_total", "window", "FPJ/w1000")]; ok {
		t.Error("far's state join series survived its last query")
	}
	if g := reg.Snapshot().Gauge("queryset_window_groups"); g != 1 {
		t.Errorf("window groups after unregister = %g, want 1", g)
	}
}

// TestQuerySetAdmission: the MaxQueries cap rejects with
// ErrTooManyQueries and counts rejections.
func TestQuerySetAdmission(t *testing.T) {
	reg := telemetry.NewRegistry()
	qs := NewQuerySet(QuerySetConfig{MaxQueries: 2, Telemetry: reg})
	if err := qs.Register("a", join.QuerySpec{}); err != nil {
		t.Fatal(err)
	}
	if err := qs.Register("b", join.QuerySpec{}); err != nil {
		t.Fatal(err)
	}
	err := qs.Register("c", join.QuerySpec{})
	if !errors.Is(err, ErrTooManyQueries) {
		t.Fatalf("err = %v, want ErrTooManyQueries", err)
	}
	if n := reg.Snapshot().Counter("queryset_queries_rejected_total"); n != 1 {
		t.Errorf("rejected counter = %d", n)
	}
	// Deleting frees a slot.
	qs.Unregister("a")
	if err := qs.Register("c", join.QuerySpec{}); err != nil {
		t.Fatal(err)
	}
}

// TestQuerySetForcedTumbleGuard: MaxWindowDocs evicts unbounded manual
// windows and surfaces it in telemetry.
func TestQuerySetForcedTumbleGuard(t *testing.T) {
	reg := telemetry.NewRegistry()
	qs := NewQuerySet(QuerySetConfig{MaxWindowDocs: 2, Telemetry: reg})
	qs.Register("q", join.QuerySpec{})
	for i := 1; i <= 5; i++ {
		qs.Ingest(qdoc(t, uint64(i), `{"k":1}`), nil)
	}
	st, _ := qs.Status("q")
	if st.Windows != 2 || st.WindowDocs != 1 {
		t.Errorf("status = %+v, want 2 forced windows and fill 1", st)
	}
	if n := reg.Snapshot().Counter("queryset_forced_tumbles_total"); n != 2 {
		t.Errorf("forced tumbles counter = %d, want 2", n)
	}
}

// TestQuerySetConcurrentLifecycle: register/ingest/unregister under
// concurrency — every surviving query sees its exact result multiset
// (run with -race).
func TestQuerySetConcurrentLifecycle(t *testing.T) {
	qs := NewQuerySet(QuerySetConfig{})
	var mu sync.Mutex
	got := make(map[string]int)
	deliver := func(id string, r join.Result) {
		mu.Lock()
		got[id]++
		mu.Unlock()
	}
	// A stable query that must observe every join result.
	if err := qs.Register("stable", join.QuerySpec{WindowDocs: 1000}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churners register and tear down throwaway queries.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("churn-%d-%d", g, i)
				if err := qs.Register(id, join.QuerySpec{WindowDocs: 1000}); err != nil {
					t.Error(err)
					return
				}
				qs.Unregister(id)
			}
		}(g)
	}
	// One ingester streams documents while the churners run. These
	// pairwise conflict on seq and share no attribute with the join
	// stream below, so they contribute zero results.
	const docs = 300
	for i := 1; i <= docs; i++ {
		qs.IngestJSON([]byte(fmt.Sprintf(`{"seq":%d}`, i)), deliver)
	}
	close(stop)
	wg.Wait()
	// A second stream that joins: all docs {"k":1} only.
	for i := 0; i < 10; i++ {
		qs.IngestJSON([]byte(`{"k":1}`), deliver)
	}
	mu.Lock()
	defer mu.Unlock()
	// The 10 identical docs pairwise join among themselves and with
	// nothing else: C(10,2) = 45 results for stable.
	if got["stable"] != 45 {
		t.Errorf("stable results = %d, want 45", got["stable"])
	}
	// No ghost results: every delivery went to a query that was
	// registered at delivery time; churners may have caught some, but
	// only under their own ids.
	for id, n := range got {
		if id != "stable" && n < 0 {
			t.Errorf("impossible count for %s: %d", id, n)
		}
	}
}

// TestRunnerQueryFanout: a Runner hosts a QuerySet — topology results
// fan out to matching standing queries through their filters.
func TestRunnerQueryFanout(t *testing.T) {
	qs := NewQuerySet(QuerySetConfig{})
	if err := qs.Register("all", join.QuerySpec{WindowDocs: 150}); err != nil {
		t.Fatal(err)
	}
	if err := qs.Register("sev", join.QuerySpec{WindowDocs: 150,
		Filters: []document.Pair{{Attr: "Severity", Val: document.EncodeString("Warning")}}}); err != nil {
		t.Fatal(err)
	}
	if err := qs.Register("off-window", join.QuerySpec{WindowDocs: 99}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := make(map[string]int)
	var direct int
	cfg := Config{M: 4, WindowSize: 150, Windows: 3, Source: datagen.NewServerLog(2),
		OnResult: func(join.Result) { mu.Lock(); direct++; mu.Unlock() }}
	report, err := NewRunner(cfg, WithQueryFanout(qs, func(id string, r join.Result) {
		mu.Lock()
		got[id]++
		mu.Unlock()
	})).Run()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if report.JoinPairs == 0 {
		t.Fatal("run produced no pairs; fanout test vacuous")
	}
	if direct != report.JoinPairs {
		t.Errorf("OnResult fired %d times, want %d (fanout must not displace it)", direct, report.JoinPairs)
	}
	if got["all"] != report.JoinPairs {
		t.Errorf("all = %d, want every pair (%d)", got["all"], report.JoinPairs)
	}
	if got["sev"] == 0 || got["sev"] >= got["all"] {
		t.Errorf("sev = %d of %d, want non-empty strict subset", got["sev"], got["all"])
	}
	if got["off-window"] != 0 {
		t.Errorf("off-window = %d, want 0 (different window config)", got["off-window"])
	}
}

// TestQuerySetShedsOverBudget drives the degradation ladder to rung 4
// without a spill store: two private manual windows cannot both be
// relieved by the per-ingest forced tumble, so accounted bytes stay
// over 2x budget and Ingest starts refusing with ErrOverloaded.
func TestQuerySetShedsOverBudget(t *testing.T) {
	reg := telemetry.NewRegistry()
	qs := NewQuerySet(QuerySetConfig{Telemetry: reg, MemoryBudget: 1})
	// Manual windows (WindowDocs 0) are private per query: two groups.
	if err := qs.Register("a", join.QuerySpec{}); err != nil {
		t.Fatal(err)
	}
	if err := qs.Register("b", join.QuerySpec{}); err != nil {
		t.Fatal(err)
	}
	var shed, forced bool
	for i := 0; i < 20; i++ {
		err := qs.Ingest(qdoc(t, uint64(i+1), fmt.Sprintf(`{"k%d":1}`, i)), nil)
		if errors.Is(err, ErrOverloaded) {
			shed = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if qs.PressureLevel() >= join.PressureTumble {
			forced = true
		}
	}
	if !shed {
		t.Fatal("governor never shed despite 1-byte budget")
	}
	_ = forced
	snap := reg.Snapshot()
	if snap.Counter("state_shed_total") == 0 {
		t.Error("state_shed_total stayed zero")
	}
	if snap.Counter("state_forced_tumbles_total") == 0 {
		t.Error("rung 3 never fired before shedding")
	}
	if snap.Gauge("state_pressure_level") < float64(join.PressureShed) {
		t.Errorf("pressure gauge = %g, want >= %d", snap.Gauge("state_pressure_level"), int(join.PressureShed))
	}
}

// TestQuerySetShedsBeforeParsing: admission comes before work. While
// the governor sheds, a refused JSON document is not parsed — its
// never-seen values do not reach the symbol table, and the id it would
// have taken stays free.
func TestQuerySetShedsBeforeParsing(t *testing.T) {
	qs := NewQuerySet(QuerySetConfig{MemoryBudget: 1})
	for _, id := range []string{"a", "b"} { // two private windows: rung 3 cannot relieve both
		if err := qs.Register(id, join.QuerySpec{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; qs.PressureLevel() < join.PressureShed; i++ {
		if i == 20 {
			t.Fatal("governor never shed despite 1-byte budget")
		}
		if err := qs.IngestJSON([]byte(fmt.Sprintf(`{"admit%d":1}`, i)), nil); err != nil && !errors.Is(err, ErrOverloaded) {
			t.Fatal(err)
		}
	}
	vals, attrs, next := symbol.ValCount(), symbol.AttrCount(), qs.nextDoc
	for i := 0; i < 50; i++ {
		line := fmt.Sprintf(`{"refused-attr-%d":"refused-value-%d"}`, i, i)
		if err := qs.IngestJSON([]byte(line), nil); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("ingest %d under shed = %v, want ErrOverloaded", i, err)
		}
	}
	if got := symbol.ValCount(); got != vals {
		t.Errorf("refused documents interned %d values", got-vals)
	}
	if got := symbol.AttrCount(); got != attrs {
		t.Errorf("refused documents interned %d attributes", got-attrs)
	}
	if qs.nextDoc != next {
		t.Errorf("refused documents took %d ids", qs.nextDoc-next)
	}
	// A malformed document is refused the same way, not diagnosed.
	if err := qs.IngestJSON([]byte(`{"broken`), nil); !errors.Is(err, ErrOverloaded) {
		t.Errorf("malformed ingest under shed = %v, want ErrOverloaded", err)
	}
}

// TestQuerySetSpillAndDrain: with a spill store, a tight budget moves
// window groups to disk and Tumble transparently reloads them — the
// delayed results arrive, none are lost, and spill telemetry counts.
func TestQuerySetSpillAndDrain(t *testing.T) {
	reg := telemetry.NewRegistry()
	qs := NewQuerySet(QuerySetConfig{
		Telemetry:    reg,
		MemoryBudget: 2048,
		SpillStore:   state.NewMemStore(),
	})
	if err := qs.Register("q", join.QuerySpec{}); err != nil {
		t.Fatal(err)
	}
	// Reference: the same stream through an ungoverned set.
	refQS := NewQuerySet(QuerySetConfig{})
	if err := refQS.Register("q", join.QuerySpec{}); err != nil {
		t.Fatal(err)
	}
	const n = 60
	docs := make([]document.Document, n)
	for i := range docs {
		docs[i] = qdoc(t, uint64(i+1), fmt.Sprintf(`{"shared":1,"uniq%d":%d}`, i, i))
	}
	count := func(qsrc *QuerySet) int {
		total := 0
		deliver := func(string, join.Result) { total++ }
		for _, d := range docs {
			err := qsrc.Ingest(d, deliver)
			// The admission-control contract: a shed ingest was NOT
			// applied, so the client drains pressure and retries the
			// same document — no duplicates, no loss.
			for retries := 0; errors.Is(err, ErrOverloaded) && retries < 5; retries++ {
				qsrc.DrainSpilled(deliver)
				err = qsrc.Ingest(d, deliver)
			}
			if err != nil {
				s := reg.Snapshot()
				t.Fatalf("%v (mem=%d level=%v spills=%d fails=%d reloads=%d)", err, qsrc.MemBytes(), qsrc.PressureLevel(),
					s.Counter("state_spill_panes_total"), s.Counter("state_spill_failures_total"), s.Counter("state_spill_reloads_total"))
			}
		}
		qsrc.DrainSpilled(deliver)
		if _, _, err := qsrc.Tumble("q", deliver); err != nil {
			t.Fatal(err)
		}
		return total
	}
	want := count(refQS)
	got := count(qs)
	if want == 0 {
		t.Fatal("reference produced no results; test vacuous")
	}
	if got != want {
		t.Fatalf("governed query set delivered %d results, want %d", got, want)
	}
	snap := reg.Snapshot()
	if snap.Counter("state_spill_panes_total") == 0 {
		t.Error("no group spills despite tight budget")
	}
	if snap.Counter("state_spill_reloads_total") == 0 {
		t.Error("no spilled groups reloaded")
	}
}
