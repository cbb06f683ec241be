package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/topology"
)

// gateSource replays fixed documents but pauses before serving one
// window: it signals the pause and blocks until the gate opens, so a
// test can inject network faults at an instant when no tuple is in
// flight.
type gateSource struct {
	docs   []document.Document
	gateAt int // Window call index to pause before
	paused chan<- struct{}
	gate   <-chan struct{}
	call   int
	pos    int
}

func (s *gateSource) Name() string { return "gated-replay" }

func (s *gateSource) Window(n int) []document.Document {
	if s.call == s.gateAt {
		s.paused <- struct{}{}
		<-s.gate
	}
	s.call++
	out := make([]document.Document, 0, n)
	for i := 0; i < n && s.pos < len(s.docs); i++ {
		out = append(out, s.docs[s.pos])
		s.pos++
	}
	return out
}

// waitClusterQuiesce polls the workers' transport counters until
// sent == executed holds across two consecutive reads — the in-process
// mirror of the coordinator's double-probe termination argument — and
// every resend buffer is empty, so a sever injected right after finds
// nothing to replay onto a fresh connection.
func waitClusterQuiesce(t *testing.T, ws []*cluster.Worker) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	var prevSent, prevExec int64 = -1, -2
	for time.Now().Before(deadline) {
		var sent, exec int64
		unacked := 0
		for _, w := range ws {
			s, e, d := w.Counters()
			sent += s
			exec += e + d
			unacked += w.UnackedFrames()
		}
		if sent == exec && unacked == 0 && sent == prevSent && exec == prevExec {
			return
		}
		prevSent, prevExec = sent, exec
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("cluster did not quiesce at the gate")
}

// waitPeersEvicted waits until the breakage monitors have dropped every
// cached outbound connection after the sever.
func waitPeersEvicted(t *testing.T, ws []*cluster.Worker) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		live := 0
		for _, w := range ws {
			live += w.PeerConnections()
		}
		if live == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("peer connections not evicted after sever")
}

// TestClusterStressBoundedChaos drives the full Fig. 2 topology across
// four TCP workers with bounded mailboxes while every data-plane link
// runs behind a fault-injecting proxy: all links carry added latency,
// and every established connection is severed between two windows. The
// run must terminate with exact transport accounting and the same join
// result as the single-process runtime over the same documents.
func TestClusterStressBoundedChaos(t *testing.T) {
	const workers, windows, windowSize = 4, 4, 90
	docs := drawWindows(datagen.NewServerLog(53), windows, windowSize)

	paused := make(chan struct{})
	gate := make(chan struct{})
	var mu sync.Mutex
	got := make(map[join.Pair]bool)
	cfg := Config{
		M: 4, Creators: 2, Assigners: 3,
		WindowSize: windowSize, Windows: windows,
		MaxPending: 64,
		Source:     &gateSource{docs: docs, gateAt: 2, paused: paused, gate: gate},
		OnResult: func(r join.Result) {
			p := join.Pair{LeftID: r.Left, RightID: r.Right}
			if p.LeftID > p.RightID {
				p.LeftID, p.RightID = p.RightID, p.LeftID
			}
			mu.Lock()
			if got[p] {
				mu.Unlock()
				t.Errorf("pair (%d,%d) duplicated", p.LeftID, p.RightID)
				return
			}
			got[p] = true
			mu.Unlock()
		},
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	RegisterGobTypes()

	coord, err := cluster.NewCoordinator(workers)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]*cluster.Worker, workers)
	proxies := make([]*cluster.ChaosProxy, workers)
	werrs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		w, err := cluster.NewWorker(i, workers, buildTopology(cfg, &Report{}), coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		addr, err := w.Listen()
		if err != nil {
			t.Fatal(err)
		}
		proxy, err := cluster.NewChaosProxy(addr)
		if err != nil {
			t.Fatal(err)
		}
		proxy.SetDelay(100 * time.Microsecond)
		w.AdvertiseAddr = proxy.Addr()
		ws[i] = w
		proxies[i] = proxy
	}
	t.Cleanup(func() {
		for _, p := range proxies {
			p.Close()
		}
	})
	for _, w := range ws {
		w := w
		go func() { werrs <- w.Run() }()
	}
	type outcome struct {
		stats topology.Stats
		err   error
	}
	result := make(chan outcome, 1)
	go func() {
		stats, err := coord.Run()
		for i := 0; i < workers; i++ {
			if werr := <-werrs; werr != nil && err == nil {
				err = werr
			}
		}
		result <- outcome{stats, err}
	}()

	// Wait for the reader to pause between windows, drain everything in
	// flight, then cut every established data-plane link.
	select {
	case <-paused:
	case <-time.After(30 * time.Second):
		t.Fatal("stream never reached the gate")
	}
	waitClusterQuiesce(t, ws)
	for _, p := range proxies {
		p.SeverAll()
	}
	waitPeersEvicted(t, ws)
	close(gate)

	var stats topology.Stats
	select {
	case r := <-result:
		if r.err != nil {
			t.Fatal(r.err)
		}
		stats = r.stats
	case <-time.After(120 * time.Second):
		t.Fatal("cluster run did not terminate")
	}
	if len(stats.Failures) != 0 {
		t.Fatalf("failures: %v", stats.Failures)
	}
	if s := stats; s.SentCopies == 0 || s.SentCopies != s.ExecCopies+s.DroppedCopies || s.DroppedCopies != 0 {
		t.Errorf("copies sent = %d, executed = %d, dropped = %d", s.SentCopies, s.ExecCopies, s.DroppedCopies)
	}

	// Join-result parity: the chaos run, the single-process runtime and
	// the brute-force oracle must all agree exactly.
	localCfg := Config{
		M: 4, Creators: 2, Assigners: 3,
		WindowSize: windowSize, Windows: windows, MaxPending: 64,
	}
	localPairs, _ := runAndCollect(t, localCfg, docs)
	mu.Lock()
	defer mu.Unlock()
	checkPairSets(t, got, localPairs)
	checkPairSets(t, got, oraclePairs(docs, windowSize))
}
