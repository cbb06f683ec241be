package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// dedupOnResult returns an OnResult sink that records normalized pairs
// and fails the test on any duplicate delivery — the exactly-once
// contract of the user-visible result stream.
func dedupOnResult(t *testing.T, mu *sync.Mutex, got map[join.Pair]bool) func(join.Result) {
	return func(r join.Result) {
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
}

// TestClusterScheduledChaosParity drives the full Fig. 2 pipeline
// across four workers under a seeded deterministic fault schedule —
// severs, link delays and refused dials at fixed stream offsets, with
// no worker killed — and requires the exact oracle join result with
// zero dropped copies: sustained data-plane faults are absorbed by the
// seq/ack/resend layer, never surfaced to the join.
func TestClusterScheduledChaosParity(t *testing.T) {
	const workers, windows, windowSize, seed = 4, 4, 90, 7
	docs := drawWindows(datagen.NewServerLog(61), windows, windowSize)

	var mu sync.Mutex
	got := make(map[join.Pair]bool)
	cfg := Config{
		M: 4, Creators: 2, Assigners: 3,
		WindowSize: windowSize, Windows: windows,
		MaxPending: 64,
		Source:     &replaySource{docs: docs},
		OnResult:   dedupOnResult(t, &mu, got),
	}

	sched := cluster.RandomSchedule(seed, 5, workers, 800)
	// On top of the seed's draw, one guaranteed all-links sever while
	// the stream is provably mid-flight.
	sched.Events = append(sched.Events, cluster.ChaosEvent{AtCopies: 300, Worker: -1, Action: cluster.ChaosSever})

	reg := telemetry.NewRegistry()
	report, err := NewRunner(cfg,
		WithWorkers(workers),
		WithTelemetry(reg),
		WithChaos(&Chaos{Schedule: &sched}),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Topology.Failures) != 0 {
		t.Fatalf("failures: %v", report.Topology.Failures)
	}
	if s := report.Topology; s.SentCopies == 0 || s.SentCopies != s.ExecCopies+s.DroppedCopies || s.DroppedCopies != 0 {
		t.Errorf("copies sent = %d, executed = %d, dropped = %d", s.SentCopies, s.ExecCopies, s.DroppedCopies)
	}
	if dropped := report.Telemetry.SumCounter("cluster_copies_dropped_total"); dropped != 0 {
		t.Errorf("cluster_copies_dropped_total = %d, want 0", dropped)
	}
	if redials := report.Telemetry.SumCounter("cluster_peer_redials_total"); redials == 0 {
		t.Error("scheduled sever cut no live link (cluster_peer_redials_total = 0)")
	}
	mu.Lock()
	defer mu.Unlock()
	checkPairSets(t, got, oraclePairs(docs, windowSize))
	t.Logf("seed %d: resent=%d dedup=%d redials=%d",
		seed,
		report.Telemetry.SumCounter("cluster_resent_frames_total"),
		report.Telemetry.SumCounter("cluster_dedup_dropped_total"),
		report.Telemetry.SumCounter("cluster_peer_redials_total"))
}

// TestClusterHungWorkerRecovery wedges (not kills) a worker mid-run:
// its goroutines stop servicing the control plane while every socket
// stays open. Only the heartbeat lease can detect this. The run must
// surface it as WorkerDied, re-place the topology on the survivors,
// restore from the last checkpoint cut and still deliver the exact
// oracle result exactly once.
func TestClusterHungWorkerRecovery(t *testing.T) {
	deadline(t, clusterDeadline)
	const (
		seed       = 31
		windowSize = 120
		windows    = 6
	)
	docs := drawWindows(datagen.NewServerLog(seed), windows, windowSize)
	want := oraclePairs(docs, windowSize)

	// The stream waits for the fault: windows 0 and 1 flow, which is
	// what the first checkpoint cut needs, and window 2 is held back
	// until the worker is wedged. However fast the pipeline is, it
	// cannot finish the run before the hang lands.
	wedged := make(chan struct{})
	newSource := func() datagen.Generator {
		return &gatedGen{Generator: datagen.NewServerLog(seed), holdAt: 2, gate: wedged}
	}

	var mu sync.Mutex
	got := make(map[join.Pair]bool)
	cfg := Config{
		M: 4, Creators: 2, Assigners: 3,
		WindowSize: windowSize, Windows: windows,
		Theta:    0.9,
		OnResult: dedupOnResult(t, &mu, got),
	}

	store := state.NewMemStore()
	reg := telemetry.NewRegistry()
	required := requiredTasks(cfg)

	// Wedge worker 1 of the first attempt once the first full
	// checkpoint cut exists — real state at risk, nothing crashed.
	var arm sync.Once
	done := make(chan struct{})
	defer close(done)
	hook := func(i int, w *cluster.Worker) {
		if i != 1 {
			return
		}
		arm.Do(func() {
			go func() {
				for {
					select {
					case <-done:
						return
					case <-time.After(200 * time.Microsecond):
					}
					if state.Cut(store, required) >= 1 {
						w.Hang()
						close(wedged)
						return
					}
				}
			}()
		})
	}

	report, err := NewRunner(cfg,
		WithWorkers(4),
		WithTelemetry(reg),
		WithWorkerHook(hook),
		// The lease must be generous: under the race detector a healthy
		// worker's heartbeat goroutine can stall for hundreds of
		// milliseconds, and a spurious expiry before the first checkpoint
		// cut kills the run instead of recovering it.
		WithHeartbeat(20*time.Millisecond, time.Second),
		WithRecovery(Recovery{Store: store, NewSource: newSource}),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Restarts != 1 {
		t.Fatalf("report.Restarts = %d, want 1 (hung worker not detected)", report.Restarts)
	}
	mu.Lock()
	defer mu.Unlock()
	checkPairSets(t, got, want)
	if report.JoinPairs != len(want) {
		t.Errorf("report.JoinPairs = %d, want %d", report.JoinPairs, len(want))
	}
	snap := report.Telemetry
	if snap.Counter("recovery_restores_total") == 0 {
		t.Error("recovery_restores_total = 0, want > 0")
	}
	if snap.SumCounter("cluster_heartbeats_sent_total") == 0 {
		t.Error("cluster_heartbeats_sent_total = 0, want > 0")
	}
}

// gatedGen holds a generator's window number holdAt (counting pulls
// from 0) back until gate is closed, so that a fault scripted against
// an event of the run lands before the stream can finish.
type gatedGen struct {
	datagen.Generator
	holdAt int
	gate   <-chan struct{}
	pulls  int
}

func (g *gatedGen) Window(n int) []document.Document {
	if g.pulls == g.holdAt {
		<-g.gate
	}
	g.pulls++
	return g.Generator.Window(n)
}

// pacedGen slows a generator to one window per `every`, so that faults
// scripted against the checkpoint cut land mid-run instead of racing a
// stream that finishes in single-digit milliseconds.
type pacedGen struct {
	datagen.Generator
	every time.Duration
}

func (g pacedGen) Window(n int) []document.Document {
	time.Sleep(g.every)
	return g.Generator.Window(n)
}

// TestClusterSecondFailureMidRecovery loses a worker, recovers, and
// loses another worker of the recovered placement before the run
// finishes: each failure must independently re-place, re-restore from
// the (advanced) cut and replay, converging on the exact result after
// two restarts.
func TestClusterSecondFailureMidRecovery(t *testing.T) {
	const (
		seed       = 31
		windowSize = 120
		windows    = 6
	)
	// Pace the stream: an unpaced attempt checkpoints all six windows
	// faster than a cut-polling killer can land its kill, so the cut
	// would reach the final window before the first failure and leave
	// the "second failure" nothing to interrupt.
	newSource := func() datagen.Generator {
		return pacedGen{Generator: datagen.NewServerLog(seed), every: 20 * time.Millisecond}
	}
	docs := drawWindows(datagen.NewServerLog(seed), windows, windowSize)
	want := oraclePairs(docs, windowSize)

	var mu sync.Mutex
	got := make(map[join.Pair]bool)
	cfg := Config{
		M: 4, Creators: 2, Assigners: 3,
		WindowSize: windowSize, Windows: windows,
		Theta:    0.9,
		OnResult: dedupOnResult(t, &mu, got),
	}

	store := state.NewMemStore()
	required := requiredTasks(cfg)
	done := make(chan struct{})
	defer close(done)

	// Worker 1 dies in each of the first two attempts. The first kill
	// waits for the first complete checkpoint cut, so recovery has real
	// state to restore; the second fires once the recovered worker has
	// executed tuples of its own — proof it is fully registered and
	// mid-stream, with post-restore state at risk. Neither watches for
	// a specific cut value: window completions bunch up at the end of a
	// run (especially under the race detector), so a cut threshold can
	// be stale by several windows by the time a poll observes it, and a
	// kill keyed to one can miss the attempt entirely or land during
	// the next attempt's coordinator handshake.
	var attempts atomic.Int32
	hook := func(i int, w *cluster.Worker) {
		if i == 0 {
			attempts.Add(1)
		}
		if i != 1 {
			return
		}
		attempt := attempts.Load()
		if attempt > 2 {
			return
		}
		go func() {
			for {
				select {
				case <-done:
					return
				case <-time.After(200 * time.Microsecond):
				}
				if attempt == 1 {
					if state.Cut(store, required) >= 0 {
						w.Kill()
						return
					}
				} else if _, exec, _ := w.Counters(); exec > 0 {
					w.Kill()
					return
				}
			}
		}()
	}

	report, err := NewRunner(cfg,
		WithWorkers(4),
		WithWorkerHook(hook),
		WithRecovery(Recovery{Store: store, NewSource: newSource, MaxRestarts: 3}),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Restarts != 2 {
		t.Fatalf("report.Restarts = %d, want 2 (second failure not exercised)", report.Restarts)
	}
	mu.Lock()
	defer mu.Unlock()
	checkPairSets(t, got, want)
	if report.JoinPairs != len(want) {
		t.Errorf("report.JoinPairs = %d, want %d", report.JoinPairs, len(want))
	}
}

// fsSnapshotPath mirrors FSStore's on-disk layout ('/' -> '@',
// zero-padded window file) so tests can damage snapshots directly.
func fsSnapshotPath(dir, task string, window int) string {
	return filepath.Join(dir, strings.ReplaceAll(task, "/", "@"), fmt.Sprintf("%08d.ckpt", window))
}

// TestVerifiedCutSkipsCorruptSnapshots: a snapshot with a flipped
// payload byte (CRC mismatch) or a truncated file (torn write) must be
// excluded from the recovery cut — verifiedCut falls back to the
// next-lower window where every required task's envelope is intact,
// while the listing-based state.Cut still (wrongly) reports the
// damaged window.
func TestVerifiedCutSkipsCorruptSnapshots(t *testing.T) {
	cfg := Config{M: 2, Creators: 1, Assigners: 1}
	required := requiredTasks(cfg)
	dir := t.TempDir()
	store, err := state.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		for _, task := range required {
			kind := task[:strings.IndexByte(task, '/')]
			var buf bytes.Buffer
			if err := state.WriteEnvelope(&buf, kind, []byte(fmt.Sprintf("state-%s-%d", task, w))); err != nil {
				t.Fatal(err)
			}
			if err := store.Save(task, w, buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cut := verifiedCut(store, required); cut != 2 {
		t.Fatalf("verified cut over intact snapshots = %d, want 2", cut)
	}

	// Flip the last payload byte of one task's window-2 snapshot: the
	// envelope parses but the CRC no longer matches.
	victim := fsSnapshotPath(dir, "joiner/1", 2)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xFF // inside the payload, before the 4-byte CRC
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if cut := state.Cut(store, required); cut != 2 {
		t.Fatalf("listing-based cut = %d, want 2 (corruption invisible to listings)", cut)
	}
	if cut := verifiedCut(store, required); cut != 1 {
		t.Errorf("verified cut with corrupt window-2 snapshot = %d, want fallback to 1", cut)
	}

	// Truncate a window-1 snapshot mid-envelope: a torn write. The cut
	// must fall back again.
	victim = fsSnapshotPath(dir, "merger/0", 1)
	data, err = os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if cut := verifiedCut(store, required); cut != 0 {
		t.Errorf("verified cut with torn window-1 snapshot = %d, want fallback to 0", cut)
	}

	// An empty file — the degenerate short write.
	victim = fsSnapshotPath(dir, "collector/0", 0)
	if err := os.WriteFile(victim, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if cut := verifiedCut(store, required); cut != -1 {
		t.Errorf("verified cut with no intact window = %d, want -1", cut)
	}
}

// TestVerifiedCutWrongKind: a snapshot whose envelope is intact but
// carries another component's kind (e.g. a misplaced file) must not
// satisfy the cut either.
func TestVerifiedCutWrongKind(t *testing.T) {
	cfg := Config{M: 1, Creators: 1, Assigners: 1}
	required := requiredTasks(cfg)
	store := state.NewMemStore()
	for _, task := range required {
		kind := task[:strings.IndexByte(task, '/')]
		if task == "joiner/0" {
			kind = "collector" // wrong component's state
		}
		var buf bytes.Buffer
		if err := state.WriteEnvelope(&buf, kind, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := store.Save(task, 0, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if cut := verifiedCut(store, required); cut != -1 {
		t.Errorf("verified cut with mis-kinded snapshot = %d, want -1", cut)
	}
}
