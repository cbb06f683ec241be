package core

// Elastic scale-out: a Runner configured WithElastic keeps a handle to
// its live cluster attempt so the topology can grow or shrink while it
// runs. Runner.Rescale, the POST /rescale ops endpoint, and a
// WithRescalePolicy verdict all funnel into the same protocol: the
// coordinator parks the spouts at a window frontier, drains the
// pipeline, streams the moving tasks' snapshots to their new homes
// over kind=state data frames, and resumes under a new placement
// epoch — without replaying a single source document.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// liveCluster is the mutable shared state of one cluster attempt: the
// coordinator handle plus everything a mid-run rescale must be able to
// extend — the telemetry registries merged into the final report, the
// chaos proxies closed when the attempt ends, and the error-collection
// hook for workers spawned after the attempt started.
type liveCluster struct {
	r      *Runner
	cfg    Config
	report *Report
	coord  *cluster.Coordinator

	// rescaleMu serializes rescales end to end (joiner spawn plus
	// coordinator protocol), so two concurrent Rescale calls cannot
	// interleave their joining workers.
	rescaleMu sync.Mutex
	cur       int // live worker count; owned by rescaleMu

	mu      sync.Mutex
	nextID  int // next joiner id; departed ids are never reused
	regs    []*telemetry.Registry
	proxies []*cluster.ChaosProxy
	collect func(done chan error)
}

// rescale grows or shrinks the live cluster to n workers.
func (lc *liveCluster) rescale(n int) error {
	lc.rescaleMu.Lock()
	defer lc.rescaleMu.Unlock()
	if n < 1 {
		return fmt.Errorf("core: Rescale(%d) < 1", n)
	}
	// Grow: spawn the joining workers first — each idles on its
	// handshake until the coordinator welcomes it at the quiesced
	// frontier. A joiner enters the run's error collection only once
	// the rescale succeeds; until then its fate is not the run's fate
	// (a failed rescale closes its link, and the resulting Run error
	// is dropped with it).
	var joined []chan error
	for i := lc.cur; i < n; i++ {
		done, err := lc.spawnJoiner()
		if err != nil {
			return err
		}
		joined = append(joined, done)
	}
	if err := lc.coord.Rescale(n); err != nil {
		return err
	}
	for _, done := range joined {
		lc.collect(done)
	}
	lc.cur = n
	lc.r.curWorkers.Store(int64(n))
	return nil
}

// spawnJoiner builds and starts one joining worker, outfitted exactly
// like the attempt's initial workers (telemetry, wire format, chaos
// proxy, hooks).
func (lc *liveCluster) spawnJoiner() (chan error, error) {
	r := lc.r
	lc.mu.Lock()
	id := lc.nextID
	lc.nextID++
	lc.mu.Unlock()
	wcfg := lc.cfg
	if r.workerReg != nil {
		wcfg.Telemetry = r.workerReg(id)
		if wcfg.Telemetry != nil {
			lc.mu.Lock()
			lc.regs = append(lc.regs, wcfg.Telemetry)
			lc.mu.Unlock()
		}
	}
	w, err := cluster.NewJoiningWorker(id, buildTopology(wcfg, lc.report), lc.coord.Addr())
	if err != nil {
		return nil, err
	}
	if err := r.outfitWorker(w, wcfg, id, lc); err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	return done, nil
}

// Rescale changes the live cluster run to n workers: new workers join
// with migrated task state, surplus workers drain and retire — all at
// a window frontier, with zero source replay. It blocks until the
// rescale completes or fails; a failure before the cluster was touched
// (bad n, a shrink that would evict a spout) leaves the run unharmed.
// Requires WithElastic, WithWorkers, and an in-flight Run.
func (r *Runner) Rescale(n int) error {
	lc := r.live.Load()
	if lc == nil {
		return fmt.Errorf("core: Rescale: no live elastic cluster run")
	}
	return lc.rescale(n)
}

// PlacementInfo reports the live placement table (component -> task ->
// worker id) and its epoch, assembled from the running workers.
// Requires WithElastic and an in-flight Run.
func (r *Runner) PlacementInfo() (map[string][]int, uint64, error) {
	lc := r.live.Load()
	if lc == nil {
		return nil, 0, fmt.Errorf("core: PlacementInfo: no live elastic cluster run")
	}
	return lc.coord.PlacementInfo()
}

// outfitWorker applies the run options to one cluster worker — initial
// or joining: telemetry, chaos proxy, heartbeat and the caller's worker
// hook.
func (r *Runner) outfitWorker(w *cluster.Worker, wcfg Config, id int, lc *liveCluster) error {
	w.Telemetry = wcfg.Telemetry
	if r.chaos != nil {
		addr, err := w.Listen()
		if err != nil {
			return err
		}
		proxy, err := cluster.NewChaosProxy(addr)
		if err != nil {
			return err
		}
		if r.chaos.Delay > 0 {
			proxy.SetDelay(r.chaos.Delay)
		}
		w.AdvertiseAddr = proxy.Addr()
		lc.mu.Lock()
		lc.proxies = append(lc.proxies, proxy)
		lc.mu.Unlock()
		if r.chaos.OnProxy != nil {
			r.chaos.OnProxy(id, proxy)
		}
	}
	if r.heartbeat > 0 {
		w.HeartbeatInterval = r.heartbeat
	}
	if r.workerHook != nil {
		r.workerHook(id, w)
	}
	return nil
}

// opsHandler wraps the registry's scrape mux with the elastic ops
// routes:
//
//	POST /rescale?n=N     rescale the live cluster to N workers
//	GET  /debug/placement live placement table + epoch as JSON
//
// Both answer 409 while no elastic cluster run is in flight.
func (r *Runner) opsHandler(reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", reg.Handler())
	mux.HandleFunc("POST /rescale", func(w http.ResponseWriter, req *http.Request) {
		n, err := strconv.Atoi(req.FormValue("n"))
		if err != nil || n < 1 {
			http.Error(w, "rescale: want form or query parameter n >= 1", http.StatusBadRequest)
			return
		}
		if err := r.Rescale(n); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fmt.Fprintf(w, "rescaled to %d workers\n", n)
	})
	mux.HandleFunc("GET /debug/placement", func(w http.ResponseWriter, req *http.Request) {
		table, epoch, err := r.PlacementInfo()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(struct {
			Epoch uint64           `json:"epoch"`
			Table map[string][]int `json:"table"`
		}{epoch, table})
	})
	return mux
}
