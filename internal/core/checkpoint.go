package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/join"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// recoveryPlumb is the internal checkpoint/restore plumbing the Runner
// threads into every bolt through Config. Nil means checkpointing is
// off; restoreWindow >= 0 means this attempt restores every stateful
// task from that window's snapshot before processing anything.
type recoveryPlumb struct {
	store         state.Store
	restoreWindow int
}

// requiredTasks lists the task keys whose snapshots define the
// recovery cut: every stateful component of the Fig. 2 pipeline. The
// reader is deliberately absent — it is not restored but re-created
// from a fresh deterministic generator that skips the windows already
// incorporated in the cut — and so are the creators, whose sample
// buffers the replay rebuilds, and the assigners, which hold nothing
// but the last control message: the restored merger re-sends it and
// its next decision.
func requiredTasks(cfg Config) []string {
	out := []string{"merger/0"}
	for i := 0; i < cfg.M; i++ {
		out = append(out, fmt.Sprintf("joiner/%d", i))
	}
	out = append(out, "collector/0")
	return out
}

// CheckpointCut reports the recovery cut a worker failure at this
// moment would restore from — the highest window every stateful task
// of cfg's topology has snapshotted into store, with every snapshot's
// envelope verified intact — or -1 when no consistent cut exists yet.
// Exposed for tooling: the sfj-topology failover demo waits for a cut
// before injecting its fault, and operators can use it to inspect a
// checkpoint directory.
func CheckpointCut(cfg Config, store state.Store) int {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return -1
	}
	return verifiedCut(store, requiredTasks(cfg))
}

// verifiedCut is state.Cut hardened against damaged snapshots: rather
// than trusting that a (task, window) listing implies a loadable
// snapshot, it walks the windows common to every required task from
// the highest down and returns the first one where every task's
// snapshot loads and carries an intact envelope (magic, version, kind,
// CRC32). A snapshot torn by a crashed writer or corrupted at rest is
// thereby excluded from the cut — recovery falls back to the
// next-lower fully-verified window instead of panicking mid-restore.
func verifiedCut(store state.Store, required []string) int {
	if len(required) == 0 {
		return -1
	}
	common := make(map[int]int)
	for _, task := range required {
		for _, w := range store.Windows(task) {
			common[w]++
		}
	}
	candidates := make([]int, 0, len(common))
	for w, n := range common {
		if n == len(required) {
			candidates = append(candidates, w)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(candidates)))
	for _, w := range candidates {
		if cutIntact(store, required, w) {
			return w
		}
	}
	return -1
}

// cutIntact verifies every required task's snapshot at the window:
// loadable, and envelope-valid for the task's component kind (the part
// of "component/index" before the slash — the kind checkpointer.save
// wrote it under).
func cutIntact(store state.Store, required []string, window int) bool {
	for _, task := range required {
		kind := task
		if i := strings.IndexByte(task, '/'); i >= 0 {
			kind = task[:i]
		}
		data, err := store.Load(task, window)
		if err != nil {
			return false
		}
		if _, err := state.ReadEnvelope(bytes.NewReader(data), kind); err != nil {
			return false
		}
	}
	return true
}

// clearStore empties every task's snapshots: a run owns its store, and
// snapshots left over from an earlier run would poison the cut (a
// stale high-window snapshot looks like progress this run never made).
func clearStore(s state.Store) error {
	for _, task := range s.Tasks() {
		if err := s.Prune(task, -1); err != nil {
			return fmt.Errorf("core: clearing stale snapshots for %s: %w", task, err)
		}
	}
	return nil
}

// checkpointer handles one task's snapshot/restore traffic with the
// store, instrumented. A nil *checkpointer is a no-op, so bolts can
// call it unconditionally.
type checkpointer struct {
	store         state.Store
	task          string
	kind          string
	restoreWindow int

	snapshots *telemetry.Counter
	bytes     *telemetry.Gauge
	snapSecs  *telemetry.Histogram
	restores  *telemetry.Counter
	restSecs  *telemetry.Histogram
}

// newCheckpointer returns the checkpointer for one task, or nil when
// the run has no recovery plumbing.
func newCheckpointer(cfg Config, component string, task int) *checkpointer {
	rp := cfg.recovery
	if rp == nil {
		return nil
	}
	cp := &checkpointer{
		store:         rp.store,
		task:          fmt.Sprintf("%s/%d", component, task),
		kind:          component,
		restoreWindow: rp.restoreWindow,
	}
	if reg := cfg.Telemetry; reg != nil {
		cp.snapshots = reg.Counter("checkpoint_snapshots_total")
		cp.bytes = reg.Gauge("checkpoint_bytes")
		cp.snapSecs = reg.Histogram("checkpoint_snapshot_seconds")
		cp.restores = reg.Counter("recovery_restores_total")
		cp.restSecs = reg.Histogram("recovery_restore_seconds")
	}
	return cp
}

// save snapshots s as the task's state for the given completed window.
// A failure panics: the runtime's failure recorder surfaces it in the
// report, and the missing window merely caps the recovery cut.
func (cp *checkpointer) save(window int, s state.Snapshotter) {
	if cp == nil {
		return
	}
	start := time.Now()
	data, err := state.Encode(cp.kind, s)
	if err == nil {
		err = cp.store.Save(cp.task, window, data)
	}
	if err != nil {
		panic(fmt.Errorf("checkpoint %s window %d: %w", cp.task, window, err))
	}
	cp.snapshots.Inc()
	cp.bytes.SetInt(len(data))
	cp.snapSecs.Observe(time.Since(start))
}

// restore loads the task's snapshot at the recovery cut into s. It
// reports whether a restore happened (false on a fresh run or when
// checkpointing is off); a snapshot that exists but fails to decode
// panics — restoring garbage silently would corrupt the run.
func (cp *checkpointer) restore(s state.Snapshotter) bool {
	if cp == nil || cp.restoreWindow < 0 {
		return false
	}
	start := time.Now()
	data, err := cp.store.Load(cp.task, cp.restoreWindow)
	if err == nil {
		err = state.Decode(cp.kind, data, s)
	}
	if err != nil {
		panic(fmt.Errorf("restore %s window %d: %w", cp.task, cp.restoreWindow, err))
	}
	cp.restores.Inc()
	cp.restSecs.Observe(time.Since(start))
	return true
}

// resultStager defers OnResult delivery until a run commits. With
// recovery enabled a window's results may be produced, lost with a
// dead worker's attempt, and produced again by the replay; staging
// results per window and discarding everything past the recovery cut
// keeps the user-visible result stream exactly-once across restarts.
type resultStager struct {
	mu       sync.Mutex
	sink     func(join.Result)
	byWindow map[int][]join.Result
}

func newResultStager(sink func(join.Result)) *resultStager {
	return &resultStager{sink: sink, byWindow: make(map[int][]join.Result)}
}

// record stages one result under its window.
func (s *resultStager) record(window int, res join.Result) {
	s.mu.Lock()
	s.byWindow[window] = append(s.byWindow[window], res)
	s.mu.Unlock()
}

// prune drops staged results for windows past the recovery cut — the
// failed attempt's replay will regenerate them.
func (s *resultStager) prune(cut int) {
	s.mu.Lock()
	for w := range s.byWindow {
		if w > cut {
			delete(s.byWindow, w)
		}
	}
	s.mu.Unlock()
}

// flush delivers every staged result to the user's sink in window
// order. Called once, after the run completed successfully.
func (s *resultStager) flush() {
	if s.sink == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	windows := make([]int, 0, len(s.byWindow))
	for w := range s.byWindow {
		windows = append(windows, w)
	}
	sort.Ints(windows)
	for _, w := range windows {
		for _, res := range s.byWindow[w] {
			s.sink(res)
		}
	}
}
