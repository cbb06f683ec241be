// Command bench is the repository's one benchmark: end-to-end and
// per-layer metrics for the paths production runs — the in-process
// topology, a 3-worker TCP cluster, and the sfj-serve binary. See
// README.md in this directory for the metric catalogue.
//
//	go run ./bench                       # every workload, end-to-end metrics
//	go run ./bench -trace 1              # every workload, per-layer metrics
//	go run ./bench -workload cluster-rw -seed 7 -seconds 12
//	go run ./bench -selfcheck            # A/A: same build twice, against the bounds
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}, the form the acceptance
// driver reads (it starts the benchmark through bench/run.sh).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
)

// buildDir receives everything the benchmark builds or writes while it
// runs, apart from its result files; outDir receives those.
const (
	buildDir = ".bench_build"
	outDir   = "bench/out"
)

// metricValue is one reported number. Q1, Q3 and N describe the
// per-round values behind it and are left out of the driver's line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"-"`
	Q3    float64 `json:"-"`
	N     int     `json:"-"`
}

// runReport is one run of one workload: a series of rounds.
type runReport struct {
	Env       environment            `json:"env"`
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Seconds   int                    `json:"seconds"`
	Rounds    []*round               `json:"rounds"` // every round made, failed ones too
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload and end with the driver's JSON line (default: all)")
		seed         = flag.Int64("seed", 1, "input seed; the system under test only ever sees the generated NDJSON")
		seconds      = flag.Int("seconds", 12, "measured time per run; rounds repeat until it is reached")
		trace        = flag.Int("trace", 0, "1 = report the per-layer metrics (one untraced and one traced round plus the layer pass) and write bench/out/trace-<workload>.json")
		selfcheck    = flag.Bool("selfcheck", false, "run every workload twice on this build, in alternating order, and fail if an end-to-end median moves by more than its bound in BENCHMARK.json")
		runs         = flag.Int("runs", 3, "with -selfcheck: runs per workload and set, each with its own seed")
		child        = flag.Bool("child", false, "internal: run one round of the topology workload -workload in this process")
		inputPath    = flag.String("input", "", "internal: NDJSON file for -child")
		telemetryOn  = flag.Bool("telemetry", false, "internal: traced round for -child")
	)
	flag.Parse()
	if err := validateCatalog(workloads, endToEnd, perLayer); err != nil {
		fatal(err)
	}
	if *child {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("bench: unknown workload %q", *workloadName))
		}
		childTopo(w, *inputPath, *telemetryOn)
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("bench: -seconds %d < 1", *seconds))
	}
	serveBin, err := buildServe()
	if err != nil {
		fatal(err)
	}
	switch {
	case *selfcheck:
		if err := selfCheck(*seed, *seconds, *runs, serveBin); err != nil {
			fatal(err)
		}
	case *workloadName != "":
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("bench: unknown workload %q", *workloadName))
		}
		rep, err := runWorkload(w, *seed, *seconds, *trace == 1, serveBin)
		if err != nil {
			fatal(err)
		}
		printReport(rep)
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	default:
		failed := 0
		for _, w := range workloads {
			rep, err := runWorkload(w, *seed, *seconds, *trace == 1, serveBin)
			if err != nil {
				fatal(err)
			}
			printReport(rep)
			failed += rep.Failed
		}
		if failed > 0 {
			fatal(fmt.Errorf("bench: %d operations failed", failed))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// buildServe compiles the sfj-serve binary the serve workloads start.
// It is not part of any measured time.
func buildServe() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "sfj-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sfj-serve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/sfj-serve (run from the repository root): %w", err)
	}
	return bin, nil
}

// maxReruns bounds how many failed rounds one run replaces, so that a
// broken build ends the run instead of looping; maxRounds bounds the
// rounds of a run and spaces the seeds of their inputs.
const (
	maxReruns = 2
	maxRounds = 64
)

// roundInput is one round's input with its oracle. Every round of a
// run has an input of its own, generated from the run's seed and the
// round's number: the generators draw a population (users, groups) per
// seed, and rwData's pairs per document differ by ±10 % between
// populations, so a run on a single input would mostly measure which
// population its seed drew. The median over rounds averages that out.
type roundInput struct {
	seed      int64
	in        *input
	perWindow []int
}

func makeRoundInput(w workload, seed int64, i int) (*roundInput, error) {
	ri := &roundInput{seed: seed*maxRounds + int64(i)}
	var err error
	if ri.in, err = makeInput(w.Dataset, ri.seed, w.Docs, w.Window); err != nil {
		return nil, err
	}
	ri.perWindow = oraclePairs(ri.in.docs, w.Window)
	return ri, nil
}

// runRound runs one round in a fresh process of the system under test
// and checks it against the oracle.
func runRound(w workload, ri *roundInput, serveBin string, traced bool) (*round, error) {
	var r *round
	var err error
	switch w.Kind {
	case "topology":
		path := filepath.Join(buildDir, fmt.Sprintf("input-%s-%d.ndjson", w.Name, os.Getpid()))
		if err := os.WriteFile(path, ri.in.ndjson, 0o644); err != nil {
			return nil, err
		}
		defer os.Remove(path)
		r, err = runTopoRound(w, path, ri.perWindow, traced)
	case "serve":
		r, err = runServeRound(w, ri.in, sum(ri.perWindow), serveBin, traced)
	default:
		err = fmt.Errorf("workload has kind %q", w.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	r.InputSeed = ri.seed
	return r, nil
}

// runWorkload makes one run. Untraced, rounds repeat until the measured
// phases add up to the requested seconds; a failed round is reported,
// kept out of the timing sample and replaced. Traced, it makes one
// untraced and one traced round on the same input and then the layer
// pass over that input.
func runWorkload(w workload, seed int64, seconds int, trace bool, serveBin string) (*runReport, error) {
	rep := &runReport{Env: readEnvironment(seed), Workload: w.Name, Trace: trace, Seconds: seconds}
	var clean []*round
	add := func(ri *roundInput, traced bool) error {
		r, err := runRound(w, ri, serveBin, traced)
		if err != nil {
			return err
		}
		rep.Rounds = append(rep.Rounds, r)
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		if r.Failed == 0 {
			clean = append(clean, r)
		}
		return nil
	}
	if trace {
		ri, err := makeRoundInput(w, seed, 0)
		if err != nil {
			return nil, err
		}
		for _, traced := range []bool{false, true} {
			if err := add(ri, traced); err != nil {
				return nil, err
			}
		}
		tr := newTracer(fmt.Sprintf("%s/seed%d", w.Name, seed))
		layer, err := runLayerPass(w, ri.in, tr)
		if err != nil {
			return nil, fmt.Errorf("bench: %s layer pass: %w", w.Name, err)
		}
		rep.Metrics = layerMetrics(rep.Rounds, layer)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(outDir, "trace-"+w.Name+".json"), rep.Env); err != nil {
			return nil, err
		}
	} else {
		measured := 0.0
		for measured < float64(seconds) && len(rep.Rounds)-len(clean) <= maxReruns && len(rep.Rounds) < maxRounds {
			ri, err := makeRoundInput(w, seed, len(rep.Rounds))
			if err != nil {
				return nil, err
			}
			if err := add(ri, false); err != nil {
				return nil, err
			}
			if last := rep.Rounds[len(rep.Rounds)-1]; last.Failed == 0 {
				measured += last.MeasuredS
			}
		}
		rep.Metrics = endToEndMetrics(clean)
	}
	rep.Correct = rep.Failed == 0 && len(clean) > 0
	if err := writeReport(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// endToEndMetrics reduces the clean rounds of a run to the median over
// rounds (latency: see latencyPercentile).
func endToEndMetrics(rounds []*round) map[string]metricValue {
	per := map[string][]float64{}
	for _, r := range rounds {
		per["setup_s"] = append(per["setup_s"], r.SetupS)
		per["docs_per_s"] = append(per["docs_per_s"], r.docsPerS())
		per["cpu_ms_per_kdoc"] = append(per["cpu_ms_per_kdoc"], r.CPUMS/(float64(r.AllDocs)/1000))
		per["peak_rss_mb"] = append(per["peak_rss_mb"], r.PeakRSSMB)
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, m := range endToEnd {
		var v metricValue
		switch m.Name {
		case "ingest_latency_p50_ms":
			v = latencyPercentile(rounds, 0.50)
		case "ingest_latency_p99_ms":
			v = latencyPercentile(rounds, 0.99)
		default:
			v = metricValue{Value: median(per[m.Name]), N: len(per[m.Name])}
			v.Q1, v.Q3 = quartiles(per[m.Name])
		}
		v.Unit = m.Unit
		// JSON has no infinity; a tail made of failed requests is
		// reported as a latency no limit can meet.
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			v.Value = math.MaxFloat32
		}
		out[m.Name] = v
	}
	return out
}

// latencyPercentile is the lower quartile over rounds of each round's
// percentile. Not the median: on a fixed schedule a stall of the
// machine delays every request queued behind it, so one stall reaches
// a round's p99, and the sandbox's stalls come in bursts that last
// several rounds. They only ever add latency, so the better quartile
// tracks the system where the median tracks the bursts (measured on
// serve-single-rw's p99 over twenty runs, the second ten in a burst:
// spread of the median 10 % then 40 %, of the lower quartile 10 % then
// 17 %). When a round alone does not leave ten samples beyond the level
// (serve-batch-nb's p99), the percentile is taken over all rounds'
// samples pooled instead. N is the size of the sample a percentile was
// taken from.
func latencyPercentile(rounds []*round, level float64) metricValue {
	var perRound, pooled []float64
	thinnest := math.MaxInt
	for _, r := range rounds {
		perRound = append(perRound, percentile(r.LatencyMS, level))
		pooled = append(pooled, r.LatencyMS...)
		thinnest = min(thinnest, len(r.LatencyMS))
	}
	var v metricValue
	v.Q1, v.Q3 = quartiles(perRound)
	// With two rounds the quartile rule extrapolates below the better
	// one; the better round is the floor.
	v.Value, v.N = v.Q1, thinnest
	if len(perRound) > 0 {
		v.Value = max(v.Q1, slices.Min(perRound))
	}
	if supported, ok := highestPercentile(thinnest); !ok || supported < level {
		v.Value, v.N = percentile(pooled, level), len(pooled)
	}
	return v
}

// layerMetrics assembles every per-layer metric of a traced run: the
// layer pass's rows, the count rows the rounds observed (the traced
// round wins where both have one), and the tracing overhead. A row no
// source produced on this workload is 0 — the layer was not on its
// path.
func layerMetrics(rounds []*round, pass map[string]float64) map[string]metricValue {
	merged := make(map[string]float64)
	for k, v := range pass {
		merged[k] = v
	}
	var untraced, traced *round
	for _, r := range rounds {
		for k, v := range r.Layer {
			merged[k] = v
		}
		if r.Traced {
			traced = r
		} else {
			untraced = r
		}
	}
	if traced != nil {
		merged["core.pairs_missing"] = float64(traced.PairsMissing)
		if untraced != nil && untraced.MeasuredS > 0 && traced.MeasuredS > 0 {
			merged["telemetry.overhead_share"] = 1 - traced.docsPerS()/untraced.docsPerS()
		}
	}
	out := make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = metricValue{Value: merged[m.Name], Unit: m.Unit, N: 1}
	}
	return out
}

func writeReport(rep *runReport) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if rep.Trace {
		kind = "layers"
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("run-%s-%s-seed%d.json", rep.Workload, kind, rep.Env.Seed)), data, 0o644)
}

// printReport lists every metric of the run by name with its unit, and
// every round made.
func printReport(rep *runReport) {
	fmt.Printf("== %s  seed=%d  trace=%v  rounds=%d  attempted=%d failed=%d correct=%v\n",
		rep.Workload, rep.Env.Seed, rep.Trace, len(rep.Rounds), rep.Attempted, rep.Failed, rep.Correct)
	fmt.Printf("   nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.CPUModel, rep.Env.GoVersion, rep.Env.Commit)
	for i, r := range rep.Rounds {
		fmt.Printf("   round %d: traced=%v setup=%.3fs measured=%.3fs docs/s=%.0f cpu=%.0fms rss=%.1fMB attempted=%d failed=%d\n",
			i+1, r.Traced, r.SetupS, r.MeasuredS, r.docsPerS(), r.CPUMS, r.PeakRSSMB, r.Attempted, r.Failed)
		for _, note := range r.Notes {
			fmt.Printf("      FAILED %s\n", note)
		}
	}
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, m := range defs {
		v := rep.Metrics[m.Name]
		if rep.Trace {
			fmt.Printf("   %-34s %14.4f %-6s\n", m.Name, v.Value, v.Unit)
			continue
		}
		fmt.Printf("   %-24s %12.4f %-6s  q1=%.4f q3=%.4f n=%d\n", m.Name, v.Value, v.Unit, v.Q1, v.Q3, v.N)
		if m.Name == "ingest_latency_p99_ms" {
			if level, ok := highestPercentile(v.N); !ok || level < 0.99 {
				fmt.Printf("      WARNING: %d samples do not leave ten beyond p99\n", v.N)
			}
		}
	}
	// The budget needs the time one document takes end to end, which
	// 1e9/docs_per_s is only where the next request waits for the reply.
	if w, _ := workloadByName(rep.Workload); rep.Trace && w.Kind == "serve" && w.Rate == 0 {
		layerBudget(rep)
	}
}

// layerBudget prints the cross-check of the per-layer rows against the
// end-to-end number: per document, the handler's time in-process plus
// what the socket adds must be the measured time, and the handler's
// own time must be explained by the stages measured on their own.
func layerBudget(rep *runReport) {
	var untraced *round
	for _, r := range rep.Rounds {
		if !r.Traced {
			untraced = r
		}
	}
	if untraced == nil || untraced.MeasuredS == 0 {
		return
	}
	e2e := 1e9 / untraced.docsPerS()
	handler := rep.Metrics["server.handler_ns_per_doc"].Value
	residual := rep.Metrics["unattributed_ns_per_doc"].Value
	fmt.Printf("   budget: measured %.0f ns/doc; attributed stages %.0f + HTTP/loopback %.0f + unattributed %.0f (%.1f%% of measured)\n",
		e2e, handler-residual, e2e-handler, residual, 100*residual/e2e)
}
