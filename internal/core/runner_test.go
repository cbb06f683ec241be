package core

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/telemetry"
)

// TestRunnerLocalTelemetry: the unified Runner on the in-process
// runtime must populate Report.Telemetry with numbers consistent with
// the classic Report fields.
func TestRunnerLocalTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := Config{
		M: 4, Creators: 2, Assigners: 2,
		WindowSize: 80, Windows: 3,
		Source: datagen.NewServerLog(7),
	}
	report, err := NewRunner(cfg, WithTelemetry(reg)).Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := report.Telemetry
	if got := snap.SumCounter("join_pairs_total"); got != int64(report.JoinPairs) {
		t.Errorf("join_pairs_total = %d, report.JoinPairs = %d", got, report.JoinPairs)
	}
	if got := snap.Counter("collector_join_pairs_total"); got != int64(report.JoinPairs) {
		t.Errorf("collector_join_pairs_total = %d, report.JoinPairs = %d", got, report.JoinPairs)
	}
	if got := snap.SumCounter("partition_deliveries_total"); got != int64(report.DocsJoined) {
		t.Errorf("partition_deliveries_total = %d, report.DocsJoined = %d", got, report.DocsJoined)
	}
	// Topology executors must report per-component counters matching
	// the substrate's own accounting.
	for comp, n := range report.Topology.Executed {
		series := telemetry.Name("topology_tuples_executed_total", "component", comp)
		if got := snap.Counter(series); got != n {
			t.Errorf("%s = %d, substrate = %d", series, got, n)
		}
	}
	if got := snap.Counter("collector_windows_completed_total"); got != 3 {
		t.Errorf("windows completed = %d, want 3", got)
	}
	if snap.Gauge("partition_global_replication") <= 0 {
		t.Error("global replication gauge not set")
	}
	// Nobody consumes this run's results, so none is materialised (the
	// consumer half of the invariant: TestMaterialisedEqualsOwned).
	if got := snap.SumCounter("join_results_total"); got != 0 {
		t.Errorf("join_results_total = %d without a result consumer, want 0", got)
	}
	if h, ok := snap.Histograms[telemetry.Name("join_probe_seconds", "task", "0")]; !ok || h.Count == 0 {
		t.Error("probe latency histogram empty for joiner task 0")
	}
}

// TestRunnerTelemetryOff: without WithTelemetry the report carries an
// empty snapshot and the run still works (nil-instrument path).
func TestRunnerTelemetryOff(t *testing.T) {
	cfg := Config{
		M: 3, Creators: 1, Assigners: 2,
		WindowSize: 50, Windows: 2,
		Source: datagen.NewServerLog(9),
	}
	report, err := NewRunner(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Telemetry.Counters) != 0 {
		t.Errorf("telemetry off must yield empty snapshot, got %d counters",
			len(report.Telemetry.Counters))
	}
	if report.JoinPairs == 0 {
		t.Error("run produced no pairs")
	}
}

// TestRunnerMetricsEndpoint scrapes the run's /metrics endpoint.
func TestRunnerMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := Config{
		M: 3, Creators: 1, Assigners: 2,
		WindowSize: 50, Windows: 2,
		Source: datagen.NewServerLog(11),
	}
	// The endpoint closes when Run returns; grab the address via the
	// registry-backed server by serving ourselves after the run — the
	// in-run endpoint is exercised with a scrape during a cluster run in
	// the parity test. Here assert the option validates and the run
	// completes with the endpoint attached.
	if _, err := NewRunner(cfg, WithMetricsAddr("127.0.0.1:0")).Run(); err == nil {
		t.Fatal("WithMetricsAddr without telemetry must fail")
	}
	report, err := NewRunner(cfg,
		WithTelemetry(reg), WithMetricsAddr("127.0.0.1:0")).Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.JoinPairs == 0 {
		t.Error("run produced no pairs")
	}
	// Post-run, the same registry still renders for scrapes.
	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "# TYPE join_pairs_total counter") {
		t.Errorf("scrape missing join counters:\n%.400s", body)
	}
}

// TestRunnerOptionValidation: cluster-only options must be rejected on
// the in-process path.
func TestRunnerOptionValidation(t *testing.T) {
	cfg := Config{Source: datagen.NewServerLog(1)}
	if _, err := NewRunner(cfg, WithChaos(&Chaos{})).Run(); err == nil {
		t.Error("WithChaos without WithWorkers must fail")
	}
	if _, err := NewRunner(cfg, WithWorkerTelemetry(func(int) *telemetry.Registry { return nil })).Run(); err == nil {
		t.Error("WithWorkerTelemetry without WithWorkers must fail")
	}
}
