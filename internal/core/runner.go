package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// Runner is the unified entry point for executing the system: one API
// covers the in-process runtime and the TCP cluster runtime, configured
// through functional options.
//
//	report, err := core.NewRunner(cfg).Run()                          // in-process
//	report, err := core.NewRunner(cfg, core.WithWorkers(4)).Run()     // 4 TCP workers
//	report, err := core.NewRunner(cfg,
//		core.WithWorkers(4),
//		core.WithTelemetry(reg),
//		core.WithChaos(&core.Chaos{Delay: time.Millisecond}),
//	).Run()
type Runner struct {
	cfg         Config
	workers     int
	metricsAddr string
	chaos       *Chaos
	workerReg   func(worker int) *telemetry.Registry
	workerHook  func(worker int, w *cluster.Worker)
	recovery    *Recovery
	heartbeat   time.Duration
	lease       time.Duration

	// Elastic scale-out (WithElastic): live holds the in-flight cluster
	// attempt's control handle while Run executes, curWorkers tracks the
	// live worker count across rescales so a recovery restart re-places
	// onto the count the cluster actually had when it died.
	elastic       bool
	rescalePolicy func(window int, repartitioned bool) int
	live          atomic.Pointer[liveCluster]
	curWorkers    atomic.Int64
}

// Option configures a Runner.
type Option func(*Runner)

// WithWorkers runs the topology across n TCP-connected in-process
// workers instead of the single-process runtime. n must be >= 1.
func WithWorkers(n int) Option {
	return func(r *Runner) { r.workers = n }
}

// WithTelemetry instruments the run into reg — topology executors,
// cluster transport, join engines and partitioning — and attaches its
// final snapshot to Report.Telemetry. Equivalent to setting
// Config.Telemetry.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(r *Runner) { r.cfg.Telemetry = reg }
}

// WithMemoryBudget bounds each Joiner's accounted window-state bytes,
// spilling buffered future-window documents to the WithSpillDir store
// under pressure. Equivalent to setting Config.MemoryBudget; <= 0
// leaves memory ungoverned.
func WithMemoryBudget(n int64) Option {
	return func(r *Runner) { r.cfg.MemoryBudget = n }
}

// WithSpillDir roots the Joiners' spill store. Equivalent to setting
// Config.SpillDir; only meaningful together with WithMemoryBudget.
func WithSpillDir(dir string) Option {
	return func(r *Runner) { r.cfg.SpillDir = dir }
}

// WithMetricsAddr serves the run's telemetry registry on addr for the
// duration of the run (Prometheus text at /metrics, JSON at
// /debug/stats). Requires WithTelemetry (or Config.Telemetry).
func WithMetricsAddr(addr string) Option {
	return func(r *Runner) { r.metricsAddr = addr }
}

// WithChaos interposes a fault-injection proxy on every worker's
// data-plane listener. Requires WithWorkers.
func WithChaos(c *Chaos) Option {
	return func(r *Runner) { r.chaos = c }
}

// WithElastic keeps the cluster attempt's control handle live so the
// run can be rescaled while it executes: Runner.Rescale(n) — or POST
// /rescale on the WithMetricsAddr mux — adds or removes workers with
// frontier-aligned state migration and zero source replay. Requires
// WithWorkers.
func WithElastic() Option {
	return func(r *Runner) { r.elastic = true }
}

// WithRescalePolicy folds the θ-repartition verdict into the elastic
// machinery: f runs after every completed window with that window's
// repartition flag, and a return > 0 asks the runner to rescale the
// cluster to that many workers (asynchronously — the pipeline keeps
// flowing until the rescale's frontier). A return <= 0 leaves the
// cluster alone. Requires WithElastic.
func WithRescalePolicy(f func(window int, repartitioned bool) int) Option {
	return func(r *Runner) { r.rescalePolicy = f }
}

// WithHeartbeat tunes the cluster failure detector: every worker sends
// a liveness beacon on its control plane each interval, and the
// coordinator declares a worker dead (WorkerDied, entering the
// recovery path when WithRecovery is configured) after it has been
// silent — no heartbeat, no probe reply, no frame of any kind — for
// the lease duration. This is what catches a hung worker whose
// sockets are still open: a crash surfaces reactively through the
// broken connection, a wedge only through lease expiry. The lease
// should be several multiples of the interval; a zero leaves the
// corresponding side at its default (250ms heartbeats, 10s lease).
// Requires WithWorkers.
func WithHeartbeat(interval, lease time.Duration) Option {
	return func(r *Runner) {
		r.heartbeat = interval
		r.lease = lease
	}
}

// WithWorkerTelemetry gives every cluster worker its own registry,
// overriding WithTelemetry for the components hosted on that worker and
// for its transport series — the multi-process deployment shape, where
// each worker scrapes separately. The per-worker snapshots are merged
// into Report.Telemetry at the end of the run.
func WithWorkerTelemetry(f func(worker int) *telemetry.Registry) Option {
	return func(r *Runner) { r.workerReg = f }
}

// WithWorkerHook exposes each cluster worker to the caller right before
// it starts — for setting MetricsAddr, retry tuning, or capturing the
// worker for mid-run inspection in tests.
func WithWorkerHook(f func(worker int, w *cluster.Worker)) Option {
	return func(r *Runner) { r.workerHook = f }
}

// Recovery configures the operator-state layer: every stateful task
// snapshots its state into Store at each window boundary (the
// checkpoint barrier rides the window punctuation), and a cluster run
// survives worker deaths by re-placing the topology on the surviving
// workers and restoring from the last consistent checkpoint cut.
type Recovery struct {
	// Store persists the snapshots. Required. state.NewMemStore() for
	// tests and single-host runs, state.NewFSStore(dir) for a store an
	// external tool can inspect. The run owns the store: any snapshots
	// left from an earlier run are cleared when Run starts.
	Store state.Store
	// MaxRestarts bounds how many worker deaths one run survives;
	// <= 0 defaults to workers-1 (every death survivable down to a
	// single worker).
	MaxRestarts int
	// NewSource returns a fresh generator producing the same stream as
	// Config.Source. Required for failover: the reader is not restored
	// from a snapshot — a recovering attempt re-creates it and fast-
	// forwards past the windows already incorporated in the cut, which
	// needs the stream to be reproducible from the start. When Config.
	// Source is nil, NewSource() also provides the first attempt's
	// source.
	NewSource func() datagen.Generator
}

// WithRecovery enables checkpointing (and, for cluster runs, worker
// failover) for the run.
func WithRecovery(rec Recovery) Option {
	return func(r *Runner) { r.recovery = &rec }
}

// Chaos configures fault injection for a cluster run: every
// worker-to-worker link runs through a cluster.ChaosProxy.
type Chaos struct {
	// Delay is added to every byte batch crossing a data-plane link.
	Delay time.Duration
	// OnProxy, when set, receives each worker's proxy right after it
	// starts, so a test can script severs and pauses mid-run.
	OnProxy func(worker int, p *cluster.ChaosProxy)
	// Schedule, when set, drives a deterministic seeded fault script
	// against the proxies for the duration of every cluster attempt:
	// severs, link delays and refused dials fire at fixed offsets of
	// the cluster-wide dispatched-copy count, so a given seed replays
	// the identical fault sequence (see cluster.RandomSchedule). The
	// schedule restarts from its first event on each recovery attempt.
	Schedule *cluster.ChaosSchedule
}

// NewRunner prepares a run of the system with the given configuration
// and options. Nothing executes until Run.
func NewRunner(cfg Config, opts ...Option) *Runner {
	r := &Runner{cfg: cfg}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Run executes the configured run and blocks until the stream is
// exhausted and the topology has fully drained.
func (r *Runner) Run() (*Report, error) {
	if r.recovery != nil {
		if r.recovery.Store == nil {
			return nil, fmt.Errorf("core: WithRecovery requires Recovery.Store")
		}
		if r.workers > 0 && r.recovery.NewSource == nil {
			return nil, fmt.Errorf("core: worker failover requires Recovery.NewSource (the reader replays the stream from a fresh generator)")
		}
		if r.cfg.Source == nil && r.recovery.NewSource != nil {
			r.cfg.Source = r.recovery.NewSource()
		}
	}
	cfg, err := r.cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if r.workers < 0 {
		return nil, fmt.Errorf("core: WithWorkers(%d) < 1", r.workers)
	}
	if r.workers == 0 {
		if r.chaos != nil {
			return nil, fmt.Errorf("core: WithChaos requires WithWorkers")
		}
		if r.workerReg != nil {
			return nil, fmt.Errorf("core: WithWorkerTelemetry requires WithWorkers")
		}
		if r.workerHook != nil {
			return nil, fmt.Errorf("core: WithWorkerHook requires WithWorkers")
		}
		if r.heartbeat != 0 || r.lease != 0 {
			return nil, fmt.Errorf("core: WithHeartbeat requires WithWorkers")
		}
		if r.elastic {
			return nil, fmt.Errorf("core: WithElastic requires WithWorkers")
		}
	}
	if r.rescalePolicy != nil && !r.elastic {
		return nil, fmt.Errorf("core: WithRescalePolicy requires WithElastic")
	}
	if r.metricsAddr != "" {
		if cfg.Telemetry == nil {
			return nil, fmt.Errorf("core: WithMetricsAddr requires WithTelemetry")
		}
		srv, err := telemetry.ServeHandler(r.metricsAddr, r.opsHandler(cfg.Telemetry))
		if err != nil {
			return nil, err
		}
		defer srv.Close()
	}
	if r.workers == 0 {
		return checked(r.runLocal(cfg))
	}
	// Register the replay counter eagerly: a run that never replays the
	// source still exposes it at 0, so "no replay happened" is a
	// checkable fact rather than a missing series.
	if cfg.Telemetry != nil {
		cfg.Telemetry.Counter("source_replays_total")
	}
	if r.rescalePolicy != nil {
		policy := r.rescalePolicy
		cfg.onWindowComplete = func(window int, repartitioned bool) {
			if n := policy(window, repartitioned); n > 0 {
				// Asynchronously: the collector task must keep executing
				// for the rescale's quiescence probe to settle.
				go func() { _ = r.Rescale(n) }()
			}
		}
	}
	return checked(r.runCluster(cfg))
}

// checked fails a run that routed a window under more than one table
// generation. Lock-step control makes that impossible; the check is
// the assertion that it stayed so.
func checked(report *Report, err error) (*Report, error) {
	if err == nil && len(report.MixedTableWindows) > 0 {
		return nil, fmt.Errorf("core: windows %v were routed under more than one table generation", report.MixedTableWindows)
	}
	return report, err
}

// runLocal executes on the in-process topology runtime. With recovery
// configured the run checkpoints (useful for producing a store a later
// cluster run can inspect) but never restores — there is no worker to
// lose.
func (r *Runner) runLocal(cfg Config) (*Report, error) {
	if r.recovery != nil {
		if err := clearStore(r.recovery.Store); err != nil {
			return nil, err
		}
		cfg.recovery = &recoveryPlumb{store: r.recovery.Store, restoreWindow: -1}
	}
	report := &Report{}
	topo, err := buildTopology(cfg, report).Build()
	if err != nil {
		return nil, err
	}
	report.Topology = topo.Run()
	report.Telemetry = cfg.Telemetry.Snapshot()
	return report, nil
}

// runCluster executes across TCP-connected in-process workers. Without
// recovery it is a single attempt; with recovery it loops: when a
// worker dies mid-run, the topology is re-placed across the survivors
// and every stateful task restores from the last checkpoint cut — the
// highest window every required task snapshotted. Snapshots above the
// cut are pruned before the restart (attempts must not mix), the
// staged join results past the cut are discarded (the replay
// regenerates them), and the reader replays the stream from a fresh
// generator, skipping the windows the cut already incorporated.
func (r *Runner) runCluster(cfg Config) (*Report, error) {
	if r.recovery == nil {
		return r.runClusterAttempt(cfg, r.workers)
	}
	maxRestarts := r.recovery.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = r.workers - 1
	}
	if err := clearStore(r.recovery.Store); err != nil {
		return nil, err
	}
	stager := newResultStager(cfg.OnResult)
	workers := r.workers
	restarts := 0
	restoreFrom := -1
	for {
		acfg := cfg
		acfg.OnResult = nil
		if cfg.OnResult != nil {
			// Only a run somebody consumes stages results; without a
			// consumer the joiners materialise nothing.
			acfg.onResultWindowed = stager.record
		}
		acfg.recovery = &recoveryPlumb{store: r.recovery.Store, restoreWindow: restoreFrom}
		if restoreFrom >= 0 {
			acfg.Source = r.recovery.NewSource()
			// The one path that re-reads the stream: recovery after a
			// worker death. Elastic rescales never come through here.
			if cfg.Telemetry != nil {
				cfg.Telemetry.Counter("source_replays_total").Inc()
			}
		}
		report, err := r.runClusterAttempt(acfg, workers)
		if err == nil {
			report.Restarts = restarts
			stager.flush()
			return report, nil
		}
		// A rescale may have changed the worker count since the attempt
		// started; restart from the count the cluster actually had.
		workers = int(r.curWorkers.Load())
		var wd *cluster.WorkerDied
		if !errors.As(err, &wd) || restarts >= maxRestarts || workers <= 1 {
			return nil, err
		}
		// The verified cut skips any window whose snapshots are torn or
		// corrupt (bad envelope, CRC mismatch): recovery restores from the
		// highest fully-intact window rather than panicking mid-restore.
		cut := verifiedCut(r.recovery.Store, requiredTasks(cfg))
		if cut < 0 {
			return nil, fmt.Errorf("core: worker died before the first checkpoint cut completed: %w", err)
		}
		// Drop every snapshot above the cut: the next attempt snapshots
		// those windows again, and mixing attempts would let a stale
		// high-window snapshot (with e.g. a diverged table-version
		// counter) into a later cut.
		for _, task := range r.recovery.Store.Tasks() {
			if perr := r.recovery.Store.Prune(task, cut); perr != nil {
				return nil, fmt.Errorf("core: pruning %s above window %d: %w", task, cut, perr)
			}
		}
		stager.prune(cut)
		restoreFrom = cut
		workers--
		restarts++
	}
}

// collectWorkers owns the attempt's worker-error bookkeeping: every
// started worker (initial or a joiner whose rescale succeeded) hands
// its result channel to collect, and wait blocks until all collected
// workers exited, returning the first error.
type collectWorkers struct {
	wg    sync.WaitGroup
	mu    sync.Mutex
	first error
}

func (c *collectWorkers) collect(done chan error) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if e := <-done; e != nil {
			c.mu.Lock()
			if c.first == nil {
				c.first = e
			}
			c.mu.Unlock()
		}
	}()
}

func (c *collectWorkers) wait() error {
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.first
}

// runClusterAttempt is one placement of the topology across the given
// number of workers: the same plumbing as a multi-process deployment —
// coordinator handshake, gob-framed data plane, double-probe
// termination — without spawning processes. Every worker constructs
// the topology from the same code and instantiates only its placed
// tasks.
func (r *Runner) runClusterAttempt(cfg Config, nworkers int) (*Report, error) {
	RegisterGobTypes()
	coord, err := cluster.NewCoordinator(nworkers)
	if err != nil {
		return nil, err
	}
	if r.lease > 0 {
		coord.LeaseTimeout = r.lease
	}
	coord.Telemetry = cfg.Telemetry
	report := &Report{}
	r.curWorkers.Store(int64(nworkers))
	lc := &liveCluster{r: r, cfg: cfg, report: report, coord: coord, cur: nworkers, nextID: nworkers}
	if cfg.Telemetry != nil {
		lc.regs = append(lc.regs, cfg.Telemetry)
	}
	defer func() {
		lc.mu.Lock()
		proxies := append([]*cluster.ChaosProxy(nil), lc.proxies...)
		lc.mu.Unlock()
		for _, p := range proxies {
			p.Close()
		}
	}()
	workers := make([]*cluster.Worker, nworkers)
	for i := 0; i < nworkers; i++ {
		wcfg := cfg
		if r.workerReg != nil {
			wcfg.Telemetry = r.workerReg(i)
			if wcfg.Telemetry != nil {
				lc.regs = append(lc.regs, wcfg.Telemetry)
			}
		}
		w, err := cluster.NewWorker(i, nworkers, buildTopology(wcfg, report), coord.Addr())
		if err != nil {
			return nil, err
		}
		if err := r.outfitWorker(w, wcfg, i, lc); err != nil {
			return nil, err
		}
		workers[i] = w
	}
	if r.chaos != nil && r.chaos.Schedule != nil {
		// The script drives the attempt's initial proxies and counters;
		// joiners spawned by later rescales are outside its model.
		scriptProxies := append([]*cluster.ChaosProxy(nil), lc.proxies...)
		stop := make(chan struct{})
		schedDone := make(chan struct{})
		go func() {
			defer close(schedDone)
			r.chaos.Schedule.Run(scriptProxies, func() int64 {
				var sent int64
				for _, w := range workers {
					s, _, _ := w.Counters()
					sent += s
				}
				return sent
			}, stop)
		}()
		// Stop the script before the deferred proxy close (defers are
		// LIFO), so a pending counter-action never races a closing proxy.
		defer func() {
			close(stop)
			<-schedDone
		}()
	}
	var cw collectWorkers
	lc.collect = cw.collect
	for _, w := range workers {
		w := w
		done := make(chan error, 1)
		go func() { done <- w.Run() }()
		cw.collect(done)
	}
	if r.elastic {
		r.live.Store(lc)
		defer r.live.Store(nil)
	}
	stats, err := coord.Run()
	if werr := cw.wait(); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	report.Topology = stats
	// Merge every distinct registry's snapshot: series are disjoint
	// (each task runs on exactly one worker and transport series carry
	// worker labels), so the merge is the whole-cluster picture.
	lc.mu.Lock()
	regs := append([]*telemetry.Registry(nil), lc.regs...)
	lc.mu.Unlock()
	seen := make(map[*telemetry.Registry]bool, len(regs))
	var snaps []telemetry.Snapshot
	for _, reg := range regs {
		if seen[reg] {
			continue
		}
		seen[reg] = true
		snaps = append(snaps, reg.Snapshot())
	}
	report.Telemetry = telemetry.Merge(snaps...)
	return report, nil
}
