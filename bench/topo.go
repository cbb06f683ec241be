package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/telemetry"
)

// startupGrace holds the first Window() pull for this long after
// Runner.Run was called, and is counted in setup_s. At HEAD a data
// frame that reaches a cluster worker before its mailboxes are
// installed is dropped and compensated (ROADMAP item 1); the grace
// keeps that known start-up bug out of every performance sample. A run
// that still loses results is reported as failed, never hidden.
const startupGrace = 250 * time.Millisecond

// topoResult is what a topology child prints for its parent.
type topoResult struct {
	Err       string   `json:"err,omitempty"`
	SetupS    float64  `json:"setup_s"`
	MeasuredS float64  `json:"measured_s"`
	PeakRSSMB float64  `json:"peak_rss_mb"`
	Failures  []string `json:"failures,omitempty"`
	// WindowPairs is the delivered pair count per window, bucketed by
	// the later document's id.
	WindowPairs []int `json:"window_pairs"`
	// ResultUS is, per document that joined, the microseconds from the
	// reader's first pull to the document's first result reaching
	// OnResult.
	ResultUS []int64 `json:"result_us"`
	// Layer holds the count rows of a traced round.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// gracedSource is the benchmark's datagen.Generator wrapper: it feeds
// the NDJSON input through datagen.NewReaderSource (the sfj-topology
// -input path), applies the start-up grace and stamps each window
// pull, and its onResult is the run's Config.OnResult.
type gracedSource struct {
	inner    *datagen.ReaderSource
	runStart time.Time

	ready    atomic.Int64   // ns after runStart of the first pull
	pulledAt []atomic.Int64 // per window, ns after runStart
	pulls    int

	perDoc  []atomic.Int32 // results whose later document is id
	firstAt []atomic.Int64 // ns after runStart of id's first result
}

func newGracedSource(inner *datagen.ReaderSource, window, docs int) *gracedSource {
	return &gracedSource{
		inner:    inner,
		pulledAt: make([]atomic.Int64, docs/window+1),
		perDoc:   make([]atomic.Int32, docs+1),
		firstAt:  make([]atomic.Int64, docs+1),
	}
}

func (s *gracedSource) Name() string { return s.inner.Name() }

func (s *gracedSource) Window(n int) []document.Document {
	if s.pulls == 0 {
		time.Sleep(startupGrace - time.Since(s.runStart))
		s.ready.Store(int64(time.Since(s.runStart)))
	}
	if s.pulls < len(s.pulledAt) {
		s.pulledAt[s.pulls].Store(int64(time.Since(s.runStart)))
	}
	s.pulls++
	return s.inner.Window(n)
}

// onResult runs on joiner goroutines; per-document slots keep them off
// one another's cache lines.
func (s *gracedSource) onResult(r join.Result) {
	id := r.Right
	if id >= uint64(len(s.perDoc)) {
		return
	}
	s.perDoc[id].Add(1)
	if s.firstAt[id].Load() == 0 {
		s.firstAt[id].CompareAndSwap(0, int64(time.Since(s.runStart)))
	}
}

// childTopo runs one round of a topology workload in this (fresh)
// process and prints a topoResult.
func childTopo(w workload, inputPath string, traced bool) {
	res := runTopoOnce(w, inputPath, traced)
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
}

func runTopoOnce(w workload, inputPath string, traced bool) topoResult {
	f, err := os.Open(inputPath)
	if err != nil {
		return topoResult{Err: err.Error()}
	}
	defer f.Close()
	reader := datagen.NewReaderSource(w.Name, f)
	src := newGracedSource(reader, w.Window, w.Docs)
	cfg := core.Config{
		M:          w.M,
		Delta:      w.Delta,
		WindowSize: w.Window,
		Windows:    w.Docs / w.Window,
		Source:     src,
		OnResult:   src.onResult,
	}
	var opts []core.Option
	if w.Workers > 0 {
		opts = append(opts, core.WithWorkers(w.Workers))
	}
	var reg *telemetry.Registry
	var depth *depthPoller
	if traced {
		reg = telemetry.NewRegistry()
		opts = append(opts, core.WithTelemetry(reg))
		depth = pollMailboxDepth(reg)
	}

	src.runStart = time.Now()
	report, err := core.NewRunner(cfg, opts...).Run()
	end := time.Since(src.runStart)
	maxDepth := depth.stop()

	res := topoResult{
		SetupS:    time.Duration(src.ready.Load()).Seconds(),
		MeasuredS: (end - time.Duration(src.ready.Load())).Seconds(),
	}
	if rss, rerr := peakRSSMB(os.Getpid()); rerr == nil {
		res.PeakRSSMB = rss
	}
	switch {
	case err != nil:
		res.Err = err.Error()
		return res
	case reader.Err() != nil:
		res.Err = reader.Err().Error()
		return res
	}
	res.Failures = report.Topology.Failures
	res.WindowPairs = make([]int, cfg.Windows)
	var lagMS []float64
	for id := 1; id <= w.Docs; id++ {
		n := int(src.perDoc[id].Load())
		if n == 0 {
			continue
		}
		win := (id - 1) / w.Window
		res.WindowPairs[win] += n
		res.ResultUS = append(res.ResultUS, (src.firstAt[id].Load()-src.ready.Load())/1000)
		// The same counted from the pull of the document's own window.
		lagMS = append(lagMS, float64(src.firstAt[id].Load()-src.pulledAt[win].Load())/1e6)
	}
	if traced {
		res.Layer = topoLayerCounts(w, report, end, maxDepth)
		res.Layer["topology.result_lag_p50_ms"] = orZero(percentile(lagMS, 0.50))
		res.Layer["topology.result_lag_p99_ms"] = orZero(percentile(lagMS, 0.99))
	}
	return res
}

// depthPoller samples the mailbox-depth gauges while a traced round
// runs: they are instantaneous, so the end-of-run snapshot reads 0.
type depthPoller struct {
	quit chan struct{}
	done chan float64
}

func pollMailboxDepth(reg *telemetry.Registry) *depthPoller {
	p := &depthPoller{quit: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		var deepest float64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				p.done <- deepest
				return
			case <-tick.C:
				for series, v := range reg.Snapshot().Gauges {
					base := telemetry.BaseName(series)
					if (base == "topology_mailbox_depth" || base == "cluster_mailbox_depth") && v > deepest {
						deepest = v
					}
				}
			}
		}
	}()
	return p
}

func (p *depthPoller) stop() float64 {
	if p == nil {
		return 0
	}
	close(p.quit)
	return <-p.done
}

// topoLayerCounts derives the count rows from the traced run's report
// and telemetry snapshot.
func topoLayerCounts(w workload, report *core.Report, wall time.Duration, maxDepth float64) map[string]float64 {
	snap := report.Telemetry
	docs := float64(w.Docs)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var executed int64
	for _, n := range report.Topology.Executed {
		executed += n
	}
	out := map[string]float64{
		"partition.replication":      report.Run.AvgReplication(),
		"partition.gini":             report.Run.AvgLoadBalance(),
		"partition.max_load":         report.Run.AvgMaxProcessingLoad(),
		"partition.repartition_rate": report.Run.RepartitionRate(),
		"partition.broadcast_share": ratio(float64(snap.SumCounter("partition_broadcasts_total")),
			float64(snap.SumCounter("partition_documents_total"))),
		"topology.tuples_per_doc": float64(executed) / docs,
		"topology.blocked_ms": float64(snap.SumCounter("topology_backpressure_blocked_ns_total")+
			snap.SumCounter("cluster_backpressure_blocked_ns_total")) / 1e6,
		"topology.mailbox_depth_max": maxDepth,
		"core.docs_joined_per_doc":   float64(report.DocsJoined) / docs,
		"core.table_versions":        float64(report.TableVersions),
	}
	// Busy share: the component that is busy while the others are not
	// is the bottleneck. Cluster workers do not register
	// topology_execute_seconds at HEAD, so these read 0 on cluster-rw.
	for _, comp := range []string{"creator", "merger", "assigner", "joiner", "collector"} {
		h := snap.Histograms[telemetry.Name("topology_execute_seconds", "component", comp)]
		out["topology.busy_share."+comp] = float64(h.SumNS) / float64(wall)
	}
	frames := float64(snap.SumCounter("cluster_frames_sent_total"))
	hits := float64(snap.SumCounter("cluster_dict_hits_total"))
	misses := float64(snap.SumCounter("cluster_dict_misses_total"))
	var wireData int64
	for series, v := range snap.Counters {
		if telemetry.BaseName(series) == "cluster_wire_bytes_sent_total" && strings.Contains(series, `kind="data"`) {
			wireData += v
		}
	}
	out["cluster.wire_bytes_per_doc"] = float64(wireData) / docs
	out["cluster.frames_per_kdoc"] = frames / (docs / 1000)
	out["cluster.tuples_per_frame"] = ratio(float64(snap.SumCounter("cluster_copies_sent_total")), frames)
	out["cluster.dict_hit_share"] = ratio(hits, hits+misses)
	out["cluster.resent_frames"] = float64(snap.SumCounter("cluster_resent_frames_total"))
	return out
}

// runTopoRound spawns a fresh child of this binary for one round and
// checks its per-window pair counts against the oracle.
func runTopoRound(w workload, inputPath string, oracle []int, traced bool) (*round, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", "-workload", w.Name, "-input", inputPath, "-telemetry="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	r := &round{Traced: traced, AllDocs: w.Docs, Docs: w.Docs, Attempted: len(oracle)}
	if cmd.ProcessState != nil {
		r.CPUMS = float64(cmd.ProcessState.UserTime()+cmd.ProcessState.SystemTime()) / 1e6
	}
	var res topoResult
	if runErr == nil {
		runErr = json.Unmarshal(out, &res)
	}
	if runErr == nil && res.Err != "" {
		runErr = errors.New(res.Err)
	}
	if runErr != nil {
		// The run as a whole failed: every window of it is a failed
		// operation, reported and not a crash of the benchmark.
		r.Failed = r.Attempted
		r.Notes = append(r.Notes, "run failed: "+runErr.Error())
		return r, nil
	}
	r.SetupS, r.MeasuredS, r.PeakRSSMB, r.Layer = res.SetupS, res.MeasuredS, res.PeakRSSMB, res.Layer
	for _, us := range res.ResultUS {
		r.LatencyMS = append(r.LatencyMS, float64(us)/1000)
	}
	if len(res.Failures) > 0 {
		r.Failed = r.Attempted
		r.Notes = append(r.Notes, fmt.Sprintf("Report.Topology.Failures: %v", res.Failures))
		return r, nil
	}
	for i, want := range oracle {
		got := 0
		if i < len(res.WindowPairs) {
			got = res.WindowPairs[i]
		}
		r.PairsMissing += want - got
		if got != want {
			r.Failed++
			r.Notes = append(r.Notes, fmt.Sprintf("window %d: delivered %d pairs, oracle %d", i, got, want))
		}
	}
	return r, nil
}
