package core

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/telemetry"
)

// parityConfig is the shared workload of the telemetry parity test: the
// same stream is run once in process and once over 4 TCP workers.
func parityConfig() Config {
	return Config{
		M: 4, Creators: 2, Assigners: 2,
		WindowSize: 80, Windows: 3,
		Source: datagen.NewServerLog(21),
	}
}

// TestClusterTelemetryParity runs the same workload on the in-process
// runtime and across 4 chaos-delayed TCP workers, each worker with its
// own registry (the multi-process deployment shape), and checks that
// the per-worker scraped counters sum to the single-process picture:
// the joins, the deliveries crossing the assigner→joiner hop, and the
// transport's frames-minus-retries accounting all have to line up.
func TestClusterTelemetryParity(t *testing.T) {
	localReg := telemetry.NewRegistry()
	localReport, err := NewRunner(parityConfig(), WithTelemetry(localReg)).Run()
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	regs := make([]*telemetry.Registry, workers)
	for i := range regs {
		regs[i] = telemetry.NewRegistry()
	}
	var (
		mu      sync.Mutex
		cws     []*cluster.Worker
		scraped string
	)
	scrapeDone := make(chan struct{})
	go func() {
		// Scrape worker 0's live endpoint mid-run, as an external
		// Prometheus would: poll until the worker has bound its port,
		// then GET /metrics.
		defer close(scrapeDone)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			mu.Lock()
			var w *cluster.Worker
			if len(cws) > 0 {
				w = cws[0]
			}
			mu.Unlock()
			if w != nil {
				if addr := w.ScrapeAddr(); addr != "" {
					resp, err := http.Get("http://" + addr + "/metrics")
					if err == nil {
						body, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						mu.Lock()
						scraped = string(body)
						mu.Unlock()
						return
					}
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	clusterReport, err := NewRunner(parityConfig(),
		WithWorkers(workers),
		WithWorkerTelemetry(func(i int) *telemetry.Registry { return regs[i] }),
		WithChaos(&Chaos{Delay: 200 * time.Microsecond}),
		WithWorkerHook(func(i int, w *cluster.Worker) {
			if i == 0 {
				w.MetricsAddr = "127.0.0.1:0"
			}
			mu.Lock()
			cws = append(cws, w)
			mu.Unlock()
		}),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	<-scrapeDone

	// Report.Telemetry is the merge of the four per-worker registries;
	// cross-check it against a hand-rolled merge so the sum really is
	// "what the scrapes add up to".
	snaps := make([]telemetry.Snapshot, workers)
	for i, reg := range regs {
		snaps[i] = reg.Snapshot()
		if len(snaps[i].Counters) == 0 {
			t.Errorf("worker %d registry is empty", i)
		}
	}
	merged := telemetry.Merge(snaps...)
	snap := clusterReport.Telemetry
	for series, v := range merged.Counters {
		if snap.Counters[series] != v {
			t.Errorf("Report.Telemetry[%s] = %d, scraped sum = %d",
				series, snap.Counters[series], v)
		}
	}

	// Join results: deterministic across runtimes, so the summed worker
	// counters must equal both the cluster's report and the
	// single-process snapshot.
	if clusterReport.JoinPairs != localReport.JoinPairs {
		t.Fatalf("cluster pairs = %d, local pairs = %d",
			clusterReport.JoinPairs, localReport.JoinPairs)
	}
	if got := snap.SumCounter("join_pairs_total"); got != int64(localReport.JoinPairs) {
		t.Errorf("summed join_pairs_total = %d, single-process pairs = %d",
			got, localReport.JoinPairs)
	}
	if got, want := snap.Counter("collector_join_pairs_total"),
		localReg.Snapshot().Counter("collector_join_pairs_total"); got != want {
		t.Errorf("collector_join_pairs_total = %d, single-process = %d", got, want)
	}

	// Deliveries: every (document, joiner) delivery crosses the
	// assigner→joiner hop, most over real sockets here; the assigners'
	// summed counters must agree with the joiner-side document count the
	// collector aggregated.
	if got := snap.SumCounter("partition_deliveries_total"); got != int64(clusterReport.DocsJoined) {
		t.Errorf("summed partition_deliveries_total = %d, cluster DocsJoined = %d",
			got, clusterReport.DocsJoined)
	}

	// Transport accounting. Each sendToPeer invocation spends exactly
	// one non-retry frame, so frames - retries is the number of remote
	// copies handed to the data plane; it is bounded by the total copies
	// and must be positive (4 workers cannot be colocated).
	frames := snap.SumCounter("cluster_frames_sent_total")
	retries := snap.SumCounter("cluster_send_retries_total")
	copies := snap.SumCounter("cluster_copies_sent_total")
	remote := frames - retries
	if remote <= 0 || remote > copies {
		t.Errorf("frames-retries = %d-%d = %d, want in (0, %d]", frames, retries, remote, copies)
	}
	if got := snap.SumCounter("cluster_copies_executed_total"); got != copies {
		t.Errorf("copies executed = %d, sent = %d (must drain exactly)", got, copies)
	}
	if dropped := snap.SumCounter("cluster_copies_dropped_total"); dropped != 0 {
		t.Errorf("dropped %d copies in a sever-free run", dropped)
	}
	if copies != clusterReport.Topology.SentCopies {
		t.Errorf("telemetry copies = %d, coordinator stats = %d",
			copies, clusterReport.Topology.SentCopies)
	}

	// Per-component execution counts: the worker-labelled series must
	// sum to the coordinator's per-component totals.
	for comp, want := range clusterReport.Topology.Executed {
		var got int64
		for i := 0; i < workers; i++ {
			got += snap.Counter(telemetry.Name("topology_tuples_executed_total",
				"component", comp, "worker", fmt.Sprint(i)))
		}
		if got != want {
			t.Errorf("executed[%s] = %d, coordinator = %d", comp, got, want)
		}
	}

	// Execute latency: the workers observe topology_execute_seconds under
	// the in-process runtime's own series names (no worker label), one
	// observation per executed tuple, so the merged histograms cover the
	// same components as a single-process run and count what the
	// coordinator counted.
	executeSeries := func(s telemetry.Snapshot) []string {
		var names []string
		for name := range s.Histograms {
			if strings.HasPrefix(name, "topology_execute_seconds") {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		return names
	}
	if got, want := executeSeries(snap), executeSeries(localReg.Snapshot()); !slices.Equal(got, want) {
		t.Errorf("cluster execute-latency series = %v, single-process = %v", got, want)
	}
	for comp, want := range clusterReport.Topology.Executed {
		h := snap.Histograms[telemetry.Name("topology_execute_seconds", "component", comp)]
		if h.Count != want {
			t.Errorf("topology_execute_seconds{component=%s} count = %d, executed = %d", comp, h.Count, want)
		}
	}
	for comp, want := range localReport.Topology.Executed {
		h := localReg.Snapshot().Histograms[telemetry.Name("topology_execute_seconds", "component", comp)]
		if h.Count != want {
			t.Errorf("single-process topology_execute_seconds{component=%s} count = %d, executed = %d", comp, h.Count, want)
		}
	}

	// The mid-run scrape must have seen real Prometheus exposition from
	// worker 0.
	mu.Lock()
	body := scraped
	mu.Unlock()
	if body == "" {
		t.Fatal("mid-run scrape of worker 0 never succeeded")
	}
	if !strings.Contains(body, "# TYPE cluster_frames_sent_total counter") ||
		!strings.Contains(body, `worker="0"`) {
		t.Errorf("scrape body missing transport series:\n%.400s", body)
	}
}
