package cluster

import (
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/topology"
)

// runResult carries a finished cluster run back to the test goroutine.
type runResult struct {
	stats topology.Stats
	err   error
}

// startChaosCluster wires every worker's data plane behind a
// ChaosProxy and starts the run; the caller observes completion on the
// returned channel and injects faults through the proxies meanwhile.
func startChaosCluster(t *testing.T, makeBuilder func() *topology.Builder, workers int, configure func(*Worker)) ([]*Worker, []*ChaosProxy, chan runResult) {
	t.Helper()
	coord, err := NewCoordinator(workers)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]*Worker, workers)
	proxies := make([]*ChaosProxy, workers)
	werrs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		w, err := NewWorker(i, workers, makeBuilder(), coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		addr, err := w.Listen()
		if err != nil {
			t.Fatal(err)
		}
		proxy, err := NewChaosProxy(addr)
		if err != nil {
			t.Fatal(err)
		}
		w.AdvertiseAddr = proxy.Addr()
		if configure != nil {
			configure(w)
		}
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
	result := make(chan runResult, 1)
	go func() {
		stats, err := coord.Run()
		for i := 0; i < workers; i++ {
			if werr := <-werrs; werr != nil && err == nil {
				err = werr
			}
		}
		result <- runResult{stats, err}
	}()
	return ws, proxies, result
}

// awaitResult bounds how long a chaos run may take.
func awaitResult(t *testing.T, result chan runResult) topology.Stats {
	t.Helper()
	select {
	case r := <-result:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.stats
	case <-time.After(60 * time.Second):
		t.Fatal("cluster run did not terminate")
		return topology.Stats{}
	}
}

// awaitQuiesce polls the workers' transport counters until nothing is
// queued, executing, in flight, or awaiting an ack (sent == executed
// and empty resend buffers, stable across two consecutive reads) — the
// in-process mirror of the coordinator's double-probe argument. The
// unacked condition matters to tests that sever immediately after: a
// frame still in a resend buffer would be replayed on a fresh link,
// re-establishing the very connections the test expects evicted.
func awaitQuiesce(t *testing.T, ws []*Worker) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
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
	t.Fatal("cluster did not quiesce")
}

// awaitPeerEviction waits until the breakage monitors have evicted
// every cached outbound connection after a sever.
func awaitPeerEviction(t *testing.T, ws []*Worker) {
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

// gatedSpout emits n1 tuples, blocks until the gate opens, then emits
// n2 more — so a test can inject a fault at a quiescent instant with
// no tuple in flight.
type gatedSpout struct {
	n1, n2 int
	gate   <-chan struct{}
	next   int
}

func (s *gatedSpout) Open(*topology.TaskContext) {}
func (s *gatedSpout) Close()                     {}
func (s *gatedSpout) NextTuple(c topology.Collector) bool {
	if s.next == s.n1 {
		<-s.gate
	}
	if s.next >= s.n1+s.n2 {
		return false
	}
	c.Emit(topology.Values{"v": s.next})
	s.next++
	return true
}

// TestDeliverLocalRejectsNegativeTask: a malformed frame with a
// negative TargetTask must be recorded as a failure and dropped as
// unhosted, not panic the read loop.
func TestDeliverLocalRejectsNegativeTask(t *testing.T) {
	b := topology.NewBuilder()
	b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: 1} }, 1)
	b.SetBolt("sink", func(int) topology.Bolt { return doubleBolt{} }, 1).ShuffleGrouping("src")
	w, err := NewWorker(0, 1, b, "127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	w.Telemetry = telemetry.NewRegistry()
	w.initTelemetry()
	if w.deliverLocal("sink", -1, topology.Tuple{}) {
		t.Error("negative task must not deliver")
	}
	if _, exec, dropped := w.Counters(); exec != 0 || dropped != 1 {
		t.Errorf("executed = %d, dropped = %d; want 0 and 1", exec, dropped)
	}
	unhosted := telemetry.Name("cluster_copies_dropped_total", "reason", "unhosted", "worker", "0")
	if got := w.Telemetry.Snapshot().Counter(unhosted); got != 1 {
		t.Errorf("%s = %d, want 1", unhosted, got)
	}
	if failures := w.x.Stats().Failures; len(failures) != 1 {
		t.Errorf("failures = %v", failures)
	}
}

// TestSeverReconnect severs every established peer link at a quiescent
// instant mid-run: the breakage monitors evict the dead connections,
// the next dispatches redial with backoff, and the run completes with
// exact accounting and no tuple loss.
func TestSeverReconnect(t *testing.T) {
	const n1, n2 = 60, 60
	gate := make(chan struct{})
	mu := &sync.Mutex{}
	sum, cnt := 0, 0
	makeBuilder := func() *topology.Builder {
		b := topology.NewBuilder()
		b.SetSpout("src", func(int) topology.Spout { return &gatedSpout{n1: n1, n2: n2, gate: gate} }, 1)
		b.SetBolt("sink", func(int) topology.Bolt {
			return &sumBolt{mu: mu, sum: &sum, cnt: &cnt}
		}, 3).ShuffleGrouping("src")
		return b
	}
	ws, proxies, result := startChaosCluster(t, makeBuilder, 3, nil)

	// Wait for the first half to fully drain, then cut every link.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		done := cnt == n1
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first half never drained")
		}
		time.Sleep(2 * time.Millisecond)
	}
	awaitQuiesce(t, ws)
	for _, p := range proxies {
		p.SeverAll()
	}
	awaitPeerEviction(t, ws)
	close(gate)

	stats := awaitResult(t, result)
	mu.Lock()
	defer mu.Unlock()
	if cnt != n1+n2 {
		t.Errorf("received %d tuples, want %d", cnt, n1+n2)
	}
	if want := (n1 + n2) * (n1 + n2 - 1) / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
	if len(stats.Failures) != 0 {
		t.Errorf("failures: %v", stats.Failures)
	}
	checkLedger(t, stats)
}

// TestDialRetryBackoff refuses the very first peer dials (the sink
// worker's proxy is not accepting when the stream starts) and resumes
// accepting shortly after: the dispatch retry loop must absorb the
// outage without dropping a tuple.
func TestDialRetryBackoff(t *testing.T) {
	mu := &sync.Mutex{}
	sum, cnt := 0, 0
	makeBuilder := func() *topology.Builder {
		b := topology.NewBuilder()
		b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: 40} }, 1)
		b.SetBolt("sink", func(int) topology.Bolt {
			return &sumBolt{mu: mu, sum: &sum, cnt: &cnt}
		}, 2).ShuffleGrouping("src")
		return b
	}
	_, proxies, result := startChaosCluster(t, makeBuilder, 2, func(w *Worker) {
		w.RetryBackoff = 2 * time.Millisecond
		w.RetryBackoffMax = 20 * time.Millisecond
	})
	// Refuse all new data-plane dials until the stream is underway.
	for _, p := range proxies {
		p.StopAccepting()
	}
	// Joined before the test returns, a fast run included: an error
	// reported after that would fail a completed test.
	resumed := make(chan struct{})
	defer func() { <-resumed }()
	go func() {
		defer close(resumed)
		time.Sleep(100 * time.Millisecond)
		for _, p := range proxies {
			if err := p.ResumeAccepting(); err != nil {
				t.Error(err)
			}
		}
	}()
	stats := awaitResult(t, result)
	mu.Lock()
	defer mu.Unlock()
	if cnt != 40 {
		t.Errorf("received %d tuples, want 40", cnt)
	}
	if len(stats.Failures) != 0 {
		t.Errorf("failures: %v", stats.Failures)
	}
}

// TestDelayedLinksComplete injects latency on every link; the run just
// takes longer but stays exact.
func TestDelayedLinksComplete(t *testing.T) {
	mu := &sync.Mutex{}
	sum, cnt := 0, 0
	makeBuilder := func() *topology.Builder {
		b := topology.NewBuilder()
		b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: 80} }, 1)
		b.SetBolt("sink", func(int) topology.Bolt {
			return &sumBolt{mu: mu, sum: &sum, cnt: &cnt}
		}, 2).ShuffleGrouping("src")
		return b
	}
	_, proxies, result := startChaosCluster(t, makeBuilder, 2, nil)
	for _, p := range proxies {
		p.SetDelay(time.Millisecond)
	}
	stats := awaitResult(t, result)
	mu.Lock()
	defer mu.Unlock()
	if cnt != 80 {
		t.Errorf("received %d tuples, want 80", cnt)
	}
	checkLedger(t, stats)
}

// TestBoundedMailboxesAcrossWorkers: a spout emitting an order of
// magnitude faster than the sinks drain must never grow a worker
// mailbox past the configured capacity, and the run still terminates
// exactly.
func TestBoundedMailboxesAcrossWorkers(t *testing.T) {
	const n, capacity = 400, 8
	mu := &sync.Mutex{}
	cnt := 0
	makeBuilder := func() *topology.Builder {
		b := topology.NewBuilder()
		b.MaxPending(capacity)
		b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: n} }, 1)
		b.SetBolt("sink", func(int) topology.Bolt {
			return slowCountBolt{mu: mu, cnt: &cnt}
		}, 2).ShuffleGrouping("src")
		return b
	}
	ws, _, result := startChaosCluster(t, makeBuilder, 2, nil)
	stats := awaitResult(t, result)
	mu.Lock()
	received := cnt
	mu.Unlock()
	if received != n {
		t.Errorf("received %d tuples, want %d", received, n)
	}
	checkLedger(t, stats)
	for _, w := range ws {
		for comp, slots := range w.tasks {
			for task := range slots {
				h := slots[task].Load()
				if h == nil {
					continue
				}
				if peak := h.Box.Peak(); peak > capacity {
					t.Errorf("worker %d %s[%d] peak queue %d exceeds capacity %d", w.id, comp, task, peak, capacity)
				}
			}
		}
	}
}

// slowCountBolt drains ~10x slower than countSpout emits.
type slowCountBolt struct {
	mu  *sync.Mutex
	cnt *int
}

func (b slowCountBolt) Prepare(*topology.TaskContext) {}
func (b slowCountBolt) Cleanup()                      {}
func (b slowCountBolt) Execute(topology.Tuple, topology.Collector) {
	time.Sleep(50 * time.Microsecond)
	b.mu.Lock()
	*b.cnt++
	b.mu.Unlock()
}
