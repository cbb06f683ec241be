package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/state"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// TestClusterFailoverParity is the end-to-end acceptance test of the
// operator-state layer: a 4-worker cluster run loses one worker mid-run
// (hard kill, no cooperation), the runner re-places the topology on the
// three survivors, restores every stateful task from the last
// checkpoint cut and replays the stream — and the user-visible join
// result is exactly the single-process oracle's, each pair once.
func TestClusterFailoverParity(t *testing.T) {
	deadline(t, clusterDeadline)
	const (
		seed       = 31
		windowSize = 120
		windows    = 6
	)
	newSource := func() datagen.Generator { return datagen.NewServerLog(seed) }

	// Single-process oracle over the identical stream.
	docs := drawWindows(newSource(), windows, windowSize)
	want := oraclePairs(docs, windowSize)

	cfg := Config{
		M: 4, Creators: 2, Assigners: 3,
		WindowSize: windowSize, Windows: windows,
		// High θ keeps the run on its initial partitions: the kill then
		// exercises the checkpoint/restore machinery, not the
		// repartition dynamics.
		Theta: 0.9,
	}
	var mu sync.Mutex
	got := make(map[join.Pair]bool)
	cfg.OnResult = func(r join.Result) {
		p := join.Pair{LeftID: r.Left, RightID: r.Right}
		if p.LeftID > p.RightID {
			p.LeftID, p.RightID = p.RightID, p.LeftID
		}
		mu.Lock()
		if got[p] {
			mu.Unlock()
			t.Errorf("pair (%d,%d) delivered more than once", p.LeftID, p.RightID)
			return
		}
		got[p] = true
		mu.Unlock()
	}

	reg := telemetry.NewRegistry()
	// Hard-kill worker 1 of the first attempt as soon as the first
	// full checkpoint cut exists, i.e. mid-run with real state at risk.
	// The store fires the kill from the Save that completes cut 1, so it
	// lands before the task that saved has processed its later windows:
	// the run cannot finish first, however fast it is.
	store := &killAtCutStore{MemStore: state.NewMemStore(), required: requiredTasks(cfg)}
	hook := func(i int, w *cluster.Worker) {
		if i == 1 {
			store.victim.CompareAndSwap(nil, w) // the first attempt's worker 1
		}
	}

	report, err := NewRunner(cfg,
		WithWorkers(4),
		WithTelemetry(reg),
		WithWorkerHook(hook),
		WithRecovery(Recovery{Store: store, NewSource: newSource}),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Restarts != 1 {
		t.Fatalf("report.Restarts = %d, want 1 (worker kill not exercised)", report.Restarts)
	}
	mu.Lock()
	defer mu.Unlock()
	checkPairSets(t, got, want)
	if report.JoinPairs != len(want) {
		t.Errorf("report.JoinPairs = %d, want %d", report.JoinPairs, len(want))
	}
	if len(report.Run.Windows) != windows {
		t.Errorf("report windows = %d, want %d", len(report.Run.Windows), windows)
	}
	snap := report.Telemetry
	if snap.Counter("checkpoint_snapshots_total") == 0 {
		t.Error("checkpoint_snapshots_total = 0, want > 0")
	}
	if snap.Counter("recovery_restores_total") == 0 {
		t.Error("recovery_restores_total = 0, want > 0")
	}
}

// killAtCutStore is a MemStore that hard-kills its victim worker,
// synchronously and once, from the Save that completes checkpoint cut 1.
type killAtCutStore struct {
	*state.MemStore
	required []string
	victim   atomic.Pointer[cluster.Worker]
	fired    atomic.Bool
}

func (s *killAtCutStore) Save(task string, window int, data []byte) error {
	err := s.MemStore.Save(task, window, data)
	w := s.victim.Load()
	if w != nil && !s.fired.Load() && state.Cut(s.MemStore, s.required) >= 1 && s.fired.CompareAndSwap(false, true) {
		w.Kill()
	}
	return err
}

// TestLocalCheckpointOnly: with recovery configured, the in-process
// runtime checkpoints every window for every stateful task — the cut
// reaches the last window — without changing the run's result.
func TestLocalCheckpointOnly(t *testing.T) {
	docs := drawWindows(datagen.NewServerLog(17), 3, 100)
	store := state.NewMemStore()
	cfg := Config{M: 4, Creators: 2, Assigners: 2, WindowSize: 100, Windows: 3,
		Source: &replaySource{docs: docs}}
	report, err := NewRunner(cfg, WithRecovery(Recovery{Store: store})).Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(oraclePairs(docs, 100)); report.JoinPairs != want {
		t.Errorf("JoinPairs = %d, want %d", report.JoinPairs, want)
	}
	if cut := state.Cut(store, requiredTasks(cfg)); cut != 2 {
		t.Errorf("checkpoint cut = %d, want 2 (all 3 windows snapshotted)", cut)
	}
}

// TestRecoveryValidation: the option must reject unusable combinations
// before anything runs.
func TestRecoveryValidation(t *testing.T) {
	cfg := Config{Source: datagen.NewServerLog(1)}
	if _, err := NewRunner(cfg, WithRecovery(Recovery{})).Run(); err == nil {
		t.Error("WithRecovery without a Store must fail")
	}
	if _, err := NewRunner(cfg, WithWorkers(2),
		WithRecovery(Recovery{Store: state.NewMemStore()})).Run(); err == nil {
		t.Error("cluster recovery without NewSource must fail")
	}
}

// TestReaderReplaySkip: a restored reader regenerates the stream and
// resumes emission at the first window past the cut.
func TestReaderReplaySkip(t *testing.T) {
	docs := drawWindows(datagen.NewServerLog(3), 3, 10)
	cfg, err := Config{
		WindowSize: 10, Windows: 3,
		Source: &replaySource{docs: docs},
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	cfg.recovery = &recoveryPlumb{store: state.NewMemStore(), restoreWindow: 1}
	s := newReaderSpout(cfg)
	s.Open(nil)
	c := &fakeCollector{}
	for s.NextTuple(c) {
	}
	emitted := c.byStream(streamDocs)
	if len(emitted) != 10 {
		t.Fatalf("replayed docs = %d, want only window 2's 10", len(emitted))
	}
	for _, e := range emitted {
		if w := e.values["window"].(int); w != 2 {
			t.Errorf("doc emitted for window %d, want 2", w)
		}
		if d := e.values["doc"].(document.Document); d.ID != docs[20].ID {
			// Only check the first one; IDs are sequential per source.
			break
		}
	}
	wends := c.byStream(streamWindowEnd)
	if len(wends) != 1 {
		t.Fatalf("punctuations = %d, want 1", len(wends))
	}
	barrier := topology.Tuple{Stream: streamWindowEnd, Values: wends[0].values}
	if id, ok := topology.CheckpointID(barrier); !ok || id != 2 {
		t.Errorf("punctuation checkpoint id = %d/%v, want 2", id, ok)
	}
}
