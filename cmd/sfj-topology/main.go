// Command sfj-topology runs the complete scale-out stream-join system
// end to end: the Fig. 2 topology (reader, partition creators, merger,
// assigners, joiners) over a generated document stream, printing the
// per-window routing statistics and join counts.
//
// Usage:
//
//	sfj-topology -dataset rwData -m 8 -windows 6 -window-size 1200
//	sfj-topology -dataset nbData -algo DS -theta 0.6
//	sfj-topology -cluster 3            # distribute over 3 TCP workers
//	sfj-topology -input logs.jsonl     # external JSON-lines stream
//	sfj-datagen -n 5000 | sfj-topology -input -
//
// Failover demo — checkpoint into a directory, hard-kill one of the
// workers mid-run, and watch the run recover on the survivors with the
// exact same join result:
//
//	sfj-topology -cluster 4 -recover /tmp/sfj-ckpt -kill-worker 1:300
//
// Elastic rescale demo — start on 3 workers, grow to 5 after window 1
// and shrink to 2 after window 4, migrating operator state at the
// window frontier without replaying the source:
//
//	sfj-topology -cluster 3 -rescale-at 1:+2,4:-3
//
// With -metrics-addr set, a running cluster also accepts on-demand
// rescales: `curl -X POST -d n=5 http://addr/rescale` and inspect the
// live placement at `GET /debug/placement`.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/state"
	"repro/internal/telemetry"
)

func main() {
	var (
		dataset     = flag.String("dataset", "rwData", "dataset: rwData or nbData")
		algo        = flag.String("algo", "AG", "partitioner: AG, SC or DS")
		engine      = flag.String("engine", "FPJ", "local join engine: FPJ, NLJ or HBJ")
		m           = flag.Int("m", 8, "number of partitions / joiners")
		creators    = flag.Int("creators", 2, "partition creator tasks")
		assigners   = flag.Int("assigners", 6, "assigner tasks")
		windows     = flag.Int("windows", 6, "number of windows")
		windowSize  = flag.Int("window-size", 1200, "documents per window")
		theta       = flag.Float64("theta", 0.2, "repartitioning threshold θ")
		delta       = flag.Int("delta", 3, "partition update threshold δ")
		expansion   = flag.String("expansion", "auto", "attribute expansion: auto, off or forced")
		maxPending  = flag.Int("max-pending", 0, "mailbox capacity per task; producers block when full (0 = unbounded)")
		seed        = flag.Int64("seed", 42, "generator seed")
		clusterN    = flag.Int("cluster", 0, "run across N TCP workers in this process (0 = plain in-process)")
		processes   = flag.Bool("processes", false, "with -cluster N: spawn the N workers as separate OS processes")
		workerSpec  = flag.String("worker", "", "internal: run as cluster worker, format id:count:coordinatorAddr")
		input       = flag.String("input", "", "read JSON-lines documents from this file ('-' = stdin) instead of a generator")
		recoverDir  = flag.String("recover", "", "checkpoint operator state into this directory; -cluster runs additionally survive worker failures (requires a generated -dataset)")
		killWorker  = flag.String("kill-worker", "", "fault-injection demo, format id:afterMs — hard-kill that in-process cluster worker after the delay (needs -cluster N and -recover)")
		metricsAddr = flag.String("metrics-addr", "", "expose /metrics + /debug/stats on this address during the run (e.g. 127.0.0.1:9090; with -worker, use :0 per process)")
		heartbeat   = flag.Duration("heartbeat-interval", 0, "with -cluster N: worker liveness heartbeat interval (0 = default 250ms)")
		lease       = flag.Duration("lease-timeout", 0, "with -cluster N: coordinator declares a silent worker dead after this (0 = default 10s; a hung worker then enters checkpoint recovery when -recover is set)")
		rescaleAt   = flag.String("rescale-at", "", "with -cluster N: elastic rescale schedule, comma-separated window:+k/-k entries (e.g. 1:+2,4:-3) — once window N completes, grow/shrink the cluster by k workers via live state migration")
		chaosSeed   = flag.Int64("chaos-seed", 0, "with -cluster N: run behind fault-injecting proxies driven by a deterministic schedule derived from this seed (0 = off)")
		chaosEvents = flag.Int("chaos-events", 6, "with -chaos-seed: number of scheduled fault events")
		verbose     = flag.Bool("v", false, "print per-window statistics")
		spillDir    = flag.String("spill-dir", "", "with -memory-budget: directory receiving spilled joiner buffers; empty meters pressure without the disk rungs")
	)
	var memoryBudget cliflags.ByteSize
	flag.Var(&memoryBudget, "memory-budget", "per-joiner bound on window-state bytes, K/M/G suffixes accepted (e.g. 64M); over it joiners spill buffered future-window documents to -spill-dir and surface pressure gauges — pair with -max-pending so the spout parks instead of growing queues (0 = ungoverned)")
	flag.Parse()

	var gen datagen.Generator
	var reader *datagen.ReaderSource
	// replay opens a fresh copy of a replayable stream for the pair
	// audit; it stays nil for stdin.
	var replay func() datagen.Generator
	if *input != "" {
		f := os.Stdin
		if *input != "-" {
			var err error
			f, err = os.Open(*input)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			defer f.Close()
		}
		reader = datagen.NewReaderSource(*input, f)
		gen = reader
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			path := *input
			replay = func() datagen.Generator {
				data, _ := os.ReadFile(path) // an unreadable copy audits as empty and fails the check
				return datagen.NewReaderSource(path, bytes.NewReader(data))
			}
		}
		*dataset = "input:" + *input
	} else {
		var ok bool
		gen, ok = datagen.ByName(*dataset, *seed)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dataset)
			os.Exit(2)
		}
		name, s := *dataset, *seed
		replay = func() datagen.Generator {
			g, _ := datagen.ByName(name, s)
			return g
		}
	}
	partitioner, err := partition.ByName(*algo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var mode core.ExpansionMode
	switch *expansion {
	case "auto":
		mode = core.ExpansionAuto
	case "off":
		mode = core.ExpansionOff
	case "forced":
		mode = core.ExpansionForced
	default:
		fmt.Fprintf(os.Stderr, "unknown expansion mode %q\n", *expansion)
		os.Exit(2)
	}

	cfg := core.Config{
		M:           *m,
		Creators:    *creators,
		Assigners:   *assigners,
		WindowSize:  *windowSize,
		Windows:     *windows,
		Delta:       *delta,
		Theta:       *theta,
		Partitioner: partitioner,
		Expansion:   mode,
		Engine:      *engine,
		MaxPending:  *maxPending,
		Source:      gen,

		MemoryBudget: memoryBudget.Int64(),
		SpillDir:     *spillDir,
	}
	if *spillDir != "" && memoryBudget == 0 {
		fmt.Fprintln(os.Stderr, "-spill-dir without -memory-budget has no effect; set a budget")
		os.Exit(2)
	}

	if *workerSpec != "" {
		if err := runWorker(*workerSpec, cfg, *metricsAddr, replay); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var opts []core.Option
	var ckptStore state.Store
	if *recoverDir != "" {
		if *input != "" {
			fmt.Fprintln(os.Stderr, "-recover requires a generated -dataset: the reader replays the stream after a failure, which an external -input cannot reproduce")
			os.Exit(2)
		}
		if *processes {
			fmt.Fprintln(os.Stderr, "-recover is not supported with -processes (the in-process runner owns the restart loop)")
			os.Exit(2)
		}
		store, err := state.NewFSStore(*recoverDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ckptStore = store
		name, s := *dataset, *seed
		opts = append(opts, core.WithRecovery(core.Recovery{
			Store: store,
			NewSource: func() datagen.Generator {
				g, _ := datagen.ByName(name, s)
				return g
			},
		}))
	}
	if *killWorker != "" {
		if *clusterN <= 0 || *processes {
			fmt.Fprintln(os.Stderr, "-kill-worker needs an in-process cluster run (-cluster N without -processes)")
			os.Exit(2)
		}
		if ckptStore == nil {
			fmt.Fprintln(os.Stderr, "-kill-worker needs -recover: without checkpoints the kill just fails the run")
			os.Exit(2)
		}
		var victim int
		var afterMs int
		if _, err := fmt.Sscanf(*killWorker, "%d:%d", &victim, &afterMs); err != nil {
			fmt.Fprintf(os.Stderr, "bad -kill-worker spec %q, want id:afterMs\n", *killWorker)
			os.Exit(2)
		}
		killCfg := cfg
		var once sync.Once
		opts = append(opts, core.WithWorkerHook(func(i int, w *cluster.Worker) {
			if i != victim {
				return
			}
			// Only the first attempt's worker is killed; the hook fires
			// again for the recovered placement. The delay counts from
			// the first complete checkpoint cut, so the kill always has
			// state to recover (and the demo is robust to machine speed).
			once.Do(func() {
				go func() {
					for core.CheckpointCut(killCfg, ckptStore) < 0 {
						time.Sleep(2 * time.Millisecond)
					}
					time.Sleep(time.Duration(afterMs) * time.Millisecond)
					fmt.Printf("killing worker %d\n", victim)
					w.Kill()
				}()
			})
		}))
	}
	if *heartbeat > 0 || *lease > 0 {
		if *clusterN <= 0 || *processes {
			fmt.Fprintln(os.Stderr, "-heartbeat-interval/-lease-timeout need an in-process cluster run (-cluster N without -processes)")
			os.Exit(2)
		}
		hb, ls := *heartbeat, *lease
		if hb == 0 {
			hb = 250 * time.Millisecond
		}
		if ls == 0 {
			ls = 10 * time.Second
		}
		opts = append(opts, core.WithHeartbeat(hb, ls))
	}
	if *rescaleAt != "" {
		if *clusterN <= 0 || *processes {
			fmt.Fprintln(os.Stderr, "-rescale-at needs an in-process cluster run (-cluster N without -processes)")
			os.Exit(2)
		}
		policy, err := parseRescaleSchedule(*rescaleAt, *clusterN)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts = append(opts, core.WithElastic(), core.WithRescalePolicy(policy))
	}
	if *chaosSeed != 0 {
		if *clusterN <= 0 || *processes {
			fmt.Fprintln(os.Stderr, "-chaos-seed needs an in-process cluster run (-cluster N without -processes)")
			os.Exit(2)
		}
		// Anchor the schedule to the run's stream: total documents is a
		// lower bound on dispatched copies, so every event actually
		// fires before the stream ends.
		sched := cluster.RandomSchedule(*chaosSeed, *chaosEvents, *clusterN, int64(*windows**windowSize))
		opts = append(opts, core.WithChaos(&core.Chaos{Schedule: &sched}))
		fmt.Printf("chaos schedule: seed=%d events=%d (re-run with the same seed to reproduce the fault sequence)\n",
			*chaosSeed, len(sched.Events))
	}
	if (*metricsAddr != "" || *verbose) && !*processes {
		// -v reads its per-component latency lines from the registry.
		opts = append(opts, core.WithTelemetry(telemetry.NewRegistry()))
	}
	if *metricsAddr != "" && !*processes {
		// With -processes, each spawned worker serves its own endpoint
		// (the flag is re-issued to them) and prints its resolved port.
		opts = append(opts, core.WithMetricsAddr(*metricsAddr))
		fmt.Printf("scrape metrics during the run: curl http://%s/metrics\n", *metricsAddr)
		if *clusterN > 0 && *rescaleAt == "" {
			// A scrape endpoint on a cluster run also serves POST /rescale
			// and GET /debug/placement; publish the live-rescale handle so
			// they work on demand.
			opts = append(opts, core.WithElastic())
			fmt.Printf("rescale on demand: curl -X POST -d n=5 http://%s/rescale\n", *metricsAddr)
		}
	}

	expected := startAudit(replay, *windows, *windowSize)
	var report *core.Report
	switch {
	case *clusterN > 0 && *processes:
		if *input != "" {
			fmt.Fprintln(os.Stderr, "-processes requires a named -dataset (external -input cannot be shared across processes)")
			os.Exit(2)
		}
		fmt.Printf("running %s/%s over %d worker processes: m=%d windows=%d x %d docs\n",
			*dataset, *algo, *clusterN, *m, *windows, *windowSize)
		if err := runProcesses(*clusterN); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	case *clusterN > 0:
		fmt.Printf("running %s/%s over %d TCP workers: m=%d windows=%d x %d docs\n",
			*dataset, *algo, *clusterN, *m, *windows, *windowSize)
		report, err = core.NewRunner(cfg, append(opts, core.WithWorkers(*clusterN))...).Run()
	default:
		fmt.Printf("running %s/%s in process: m=%d windows=%d x %d docs\n",
			*dataset, *algo, *m, *windows, *windowSize)
		report, err = core.NewRunner(cfg, opts...).Run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *verbose {
		for i, w := range report.Run.Windows {
			fmt.Printf("  window %d: %s\n", i, w)
		}
		for _, comp := range []string{"creator", "merger", "assigner", "joiner"} {
			h, ok := report.Telemetry.Histograms[telemetry.Name("topology_execute_seconds", "component", comp)]
			if ok && h.Count > 0 {
				fmt.Printf("  latency %-9s n=%d avg=%s\n", comp, h.Count, time.Duration(h.SumNS/h.Count))
			}
		}
		if snap := report.Telemetry; len(snap.Counters) > 0 {
			fmt.Printf("  telemetry: join_pairs=%d deliveries=%d broadcasts=%d update_requests=%d\n",
				snap.SumCounter("join_pairs_total"),
				snap.SumCounter("partition_deliveries_total"),
				snap.SumCounter("partition_broadcasts_total"),
				snap.SumCounter("partition_update_requests_total"))
		}
	}
	fmt.Printf("summary: %s pairs_expected=%s\n", report, expected)
	fmt.Printf("join pairs: %d  documents joined: %d\n", report.JoinPairs, report.DocsJoined)
	if err := expected.check(report.JoinPairs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if report.Restarts > 0 {
		fmt.Printf("recovered from %d worker failure(s): restored from the last checkpoint cut and replayed\n", report.Restarts)
	}
	if reader != nil && reader.Err() != nil {
		fmt.Fprintf(os.Stderr, "input stream error: %v\n", reader.Err())
		os.Exit(1)
	}
	if len(report.Topology.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "task failures: %v\n", report.Topology.Failures)
		os.Exit(1)
	}
}

// audit is the independent pair count of a replayable input: a fresh
// copy of the stream, joined window by window with join.Oracle in a
// background goroutine while the run executes.
type audit struct {
	done  chan struct{}
	pairs int
}

// startAudit starts the audit of the run's windows; a nil replay (a
// stdin input) yields a nil audit, whose count is unknown.
func startAudit(replay func() datagen.Generator, windows, windowSize int) *audit {
	if replay == nil {
		return nil
	}
	a := &audit{done: make(chan struct{})}
	go func() {
		defer close(a.done)
		gen := replay()
		for w := 0; w < windows; w++ {
			a.pairs += len(join.Oracle(gen.Window(windowSize), windowSize))
		}
	}()
	return a
}

// String waits for the audit and renders the expected pair count.
func (a *audit) String() string {
	if a == nil {
		return "unknown"
	}
	<-a.done
	return strconv.Itoa(a.pairs)
}

// check fails a run whose pair count differs from the audit's.
func (a *audit) check(pairs int) error {
	if a == nil {
		return nil
	}
	<-a.done
	if pairs != a.pairs {
		return fmt.Errorf("join pairs %d differ from the %d the input holds", pairs, a.pairs)
	}
	return nil
}

// parseRescaleSchedule turns a "window:+k,window:-k" spec into a
// rescale policy: once window N completes, the cluster grows or
// shrinks by k workers relative to the running total. Each entry fires
// at most once; the policy returns 0 (no change) for every other
// window.
func parseRescaleSchedule(spec string, start int) (func(int, bool) int, error) {
	deltas := make(map[int]int)
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.SplitN(entry, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -rescale-at entry %q, want window:+k or window:-k", entry)
		}
		w, err := strconv.Atoi(parts[0])
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad -rescale-at window in %q", entry)
		}
		if parts[1] == "" || (parts[1][0] != '+' && parts[1][0] != '-') {
			return nil, fmt.Errorf("bad -rescale-at delta in %q, want an explicit +k or -k", entry)
		}
		k, err := strconv.Atoi(parts[1])
		if err != nil || k == 0 {
			return nil, fmt.Errorf("bad -rescale-at delta in %q", entry)
		}
		if _, dup := deltas[w]; dup {
			return nil, fmt.Errorf("duplicate -rescale-at window %d", w)
		}
		deltas[w] = k
	}
	// Validate the cumulative worker count stays positive in window order.
	ws := make([]int, 0, len(deltas))
	for w := range deltas {
		ws = append(ws, w)
	}
	sort.Ints(ws)
	cur := start
	for _, w := range ws {
		cur += deltas[w]
		if cur < 1 {
			return nil, fmt.Errorf("-rescale-at schedule drops the cluster to %d workers at window %d", cur, w)
		}
	}
	cur = start
	var mu sync.Mutex
	return func(window int, _ bool) int {
		mu.Lock()
		defer mu.Unlock()
		k, ok := deltas[window]
		if !ok {
			return 0
		}
		delete(deltas, window)
		cur += k
		fmt.Printf("window %d complete: rescaling to %d workers\n", window, cur)
		return cur
	}, nil
}

// runProcesses hosts the coordinator and spawns this binary once per
// worker; every inter-component tuple crosses a real process boundary.
// The worker hosting the collector task prints the run report.
func runProcesses(n int) error {
	coord, err := cluster.NewCoordinator(n)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// Re-issue our own flags to the workers, adding the worker spec.
	var workers []*exec.Cmd
	for i := 0; i < n; i++ {
		args := append([]string(nil), os.Args[1:]...)
		args = append(args, "-worker", fmt.Sprintf("%d:%d:%s", i, n, coord.Addr()))
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn worker %d: %w", i, err)
		}
		workers = append(workers, cmd)
	}
	stats, err := coord.Run()
	for _, w := range workers {
		if werr := w.Wait(); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("cluster stats: emitted=%v executed=%v\n", stats.Emitted, stats.Executed)
	if len(stats.Failures) > 0 {
		return fmt.Errorf("task failures: %v", stats.Failures)
	}
	return nil
}

// runWorker executes one cluster worker inside this process (spawned by
// runProcesses). Every worker builds the identical topology from the
// shared flags; the placement decides which tasks run here. A non-empty
// metricsAddr exposes the worker's own scrape endpoint for the duration
// of the run (pass :0 so concurrent workers don't collide on a port).
func runWorker(spec string, cfg core.Config, metricsAddr string, replay func() datagen.Generator) error {
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) != 3 {
		return fmt.Errorf("bad -worker spec %q", spec)
	}
	id, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("bad -worker id: %w", err)
	}
	count, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("bad -worker count: %w", err)
	}
	coordAddr := parts[2]

	core.RegisterGobTypes()
	if metricsAddr != "" {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	builder, report, err := core.NewTopology(cfg)
	if err != nil {
		return err
	}
	spec2, err := builder.Spec()
	if err != nil {
		return err
	}
	placement, err := cluster.NewPlacement(spec2, count)
	if err != nil {
		return err
	}
	w, err := cluster.NewWorker(id, count, builder, coordAddr)
	if err != nil {
		return err
	}
	// The worker hosting the collector owns the aggregated report.
	hostsCollector := len(placement.TasksOn("collector", id)) > 0
	var expected *audit
	if hostsCollector {
		expected = startAudit(replay, cfg.Windows, cfg.WindowSize)
	}
	if metricsAddr != "" {
		w.Telemetry = cfg.Telemetry
		w.MetricsAddr = metricsAddr
		// The endpoint binds inside Run; report the resolved port (the
		// spec recommends :0) as soon as it is up.
		go func() {
			for i := 0; i < 200; i++ {
				if a := w.ScrapeAddr(); a != "" {
					fmt.Printf("worker %d metrics at http://%s/metrics\n", id, a)
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}
	if err := w.Run(); err != nil {
		return err
	}
	if hostsCollector {
		fmt.Printf("summary (worker %d): %s pairs_expected=%s\n", id, report, expected)
		fmt.Printf("join pairs: %d  documents joined: %d\n", report.JoinPairs, report.DocsJoined)
		return expected.check(report.JoinPairs)
	}
	return nil
}
