package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/topology"
)

// sumTel totals a counter, over all its label variants, across all
// per-worker registries.
func sumTel(regs []*telemetry.Registry, base string) int64 {
	var total int64
	for _, reg := range regs {
		if reg != nil {
			total += reg.Snapshot().SumCounter(base)
		}
	}
	return total
}

// checkLedger asserts a clean run's copy ledger: copies were sent and
// sent == executed + dropped, with nothing dropped.
func checkLedger(t *testing.T, s topology.Stats) {
	t.Helper()
	if s.SentCopies == 0 || s.SentCopies != s.ExecCopies+s.DroppedCopies || s.DroppedCopies != 0 {
		t.Errorf("copies sent = %d, executed = %d, dropped = %d", s.SentCopies, s.ExecCopies, s.DroppedCopies)
	}
}

// instrument gives every worker its own telemetry registry so tests can
// assert on transport counters after the run.
func instrument(regs []*telemetry.Registry) func(*Worker) {
	return func(w *Worker) {
		regs[w.id] = telemetry.NewRegistry()
		w.Telemetry = regs[w.id]
	}
}

// joinOracle is the brute-force pair set for twoStreamSpout's
// interleaved keyed stream (even = left, odd = right, match on key%7).
func joinOracle(n int) map[string]bool {
	want := make(map[string]bool)
	for l := 0; l < n; l += 2 {
		for r := 1; r < n; r += 2 {
			if l%7 == r%7 {
				want[fmt.Sprintf("%d-%d", l, r)] = true
			}
		}
	}
	return want
}

// TestScheduledChaosParity is the delivery-semantics acceptance test:
// a four-worker keyed join runs under a seeded, deterministic schedule
// of severs, delays and refused dials — with no worker killed — and
// must still produce the exact oracle pair multiset: every tuple
// executed exactly once, zero copies dropped. Each seed reproduces the
// identical fault sequence at the identical stream offsets, so a
// failure here is replayable from the seed alone. Acks are slowed and
// the stream paced so the guaranteed mid-stream sever finds frames in
// the resend buffers: the run must survive on replay, not luck.
//
// Every sever also resets the data plane's per-connection
// dictionaries, so the replayed batches re-encode against fresh ones.
func TestScheduledChaosParity(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("wire=binary/seed=%d", seed), func(t *testing.T) {
			const n, workers = 240, 4
			mu := &sync.Mutex{}
			pairs := make(map[string]bool)
			execs := 0
			makeBuilder := func() *topology.Builder {
				b := topology.NewBuilder()
				b.MaxPending(8)
				b.SetSpout("src", func(int) topology.Spout {
					return &pacedSpout{Spout: &twoStreamSpout{n: n}, every: 200 * time.Microsecond}
				}, 1)
				b.SetBolt("join", func(int) topology.Bolt {
					return &countingJoinBolt{hashJoinBolt: newHashJoinBolt(mu, pairs), execs: &execs}
				}, 4).
					FieldsGroupingOn("src", "left", "key").
					FieldsGroupingOn("src", "right", "key")
				return b
			}
			regs := make([]*telemetry.Registry, workers)
			inst := instrument(regs)
			ws, proxies, result := startChaosCluster(t, makeBuilder, workers, func(w *Worker) {
				inst(w)
				// Slow acks: sequenced frames linger unacknowledged, so the
				// severs below replay real traffic instead of empty buffers.
				w.AckEvery = 1 << 30
				w.AckInterval = 25 * time.Millisecond
			})

			sched := RandomSchedule(seed, 6, workers, n/2)
			// A guaranteed all-links sever a third of the way in, on top of
			// whatever the seed drew. Out-of-threshold order is fine: Run
			// fires an event as soon as its threshold is already met.
			sched.Events = append(sched.Events, ChaosEvent{AtCopies: n / 3, Worker: -1, Action: ChaosSever})
			stop := make(chan struct{})
			schedDone := make(chan struct{})
			go func() {
				defer close(schedDone)
				sched.Run(proxies, func() int64 {
					var sent int64
					for _, w := range ws {
						s, _, _ := w.Counters()
						sent += s
					}
					return sent
				}, stop)
			}()

			stats := awaitResult(t, result)
			close(stop)
			<-schedDone

			if len(stats.Failures) != 0 {
				t.Fatalf("failures: %v", stats.Failures)
			}
			checkLedger(t, stats)
			if dropped := sumTel(regs, "cluster_copies_dropped_total"); dropped != 0 {
				t.Errorf("cluster_copies_dropped_total = %d, want 0", dropped)
			}
			mu.Lock()
			defer mu.Unlock()
			if execs != n {
				t.Errorf("join executed %d tuples, want exactly %d (drops or duplicates)", execs, n)
			}
			want := joinOracle(n)
			if len(pairs) != len(want) {
				t.Errorf("join produced %d pairs, oracle has %d", len(pairs), len(want))
			}
			for p := range want {
				if !pairs[p] {
					t.Errorf("missing pair %s", p)
				}
			}
			resent := sumTel(regs, "cluster_resent_frames_total")
			if resent == 0 {
				t.Error("schedule severed live traffic but nothing was resent")
			}
			t.Logf("seed %d: resent=%d dedup=%d acks=%d",
				seed, resent,
				sumTel(regs, "cluster_dedup_dropped_total"),
				sumTel(regs, "cluster_acks_sent_total"))
		})
	}
}

// pacedSpout throttles an inner spout so a chaos schedule's mid-stream
// events interleave with live traffic instead of firing after the
// burst has already drained.
type pacedSpout struct {
	topology.Spout
	every time.Duration
}

func (s *pacedSpout) NextTuple(c topology.Collector) bool {
	time.Sleep(s.every)
	return s.Spout.NextTuple(c)
}

// countingJoinBolt wraps hashJoinBolt with an execute counter so the
// parity test can assert exactly-once effect (count == emitted tuples).
type countingJoinBolt struct {
	*hashJoinBolt
	execs *int
}

func (b *countingJoinBolt) Execute(t topology.Tuple, c topology.Collector) {
	b.mu.Lock()
	*b.execs++
	b.mu.Unlock()
	b.hashJoinBolt.Execute(t, c)
}

// TestResendAfterSever suppresses acks, parks the stream at a gate
// with sequenced frames sitting unacknowledged in a resend buffer,
// severs every link, and checks that replay on the fresh connections
// delivers everything exactly once: the sum is exact, frames were
// provably resent, and the receiver deduplicated rather than
// double-executing. The gate guarantees the run cannot complete before
// the sever lands. Replayed batches must re-encode against the fresh
// connection's empty dictionary, not the severed one's.
func TestResendAfterSever(t *testing.T) {
	t.Run("wire=binary", func(t *testing.T) {
		const n1, n2 = 150, 150
		const n = n1 + n2
		gate := make(chan struct{})
		mu := &sync.Mutex{}
		sum, cnt := 0, 0
		makeBuilder := func() *topology.Builder {
			b := topology.NewBuilder()
			b.SetSpout("src", func(int) topology.Spout { return &gatedSpout{n1: n1, n2: n2, gate: gate} }, 1)
			b.SetBolt("sink", func(int) topology.Bolt {
				return &sumBolt{mu: mu, sum: &sum, cnt: &cnt}
			}, 2).ShuffleGrouping("src")
			return b
		}
		regs := make([]*telemetry.Registry, 2)
		inst := instrument(regs)
		ws, proxies, result := startChaosCluster(t, makeBuilder, 2, func(w *Worker) {
			inst(w)
			// No acks: every sequenced frame stays buffered, so the sever
			// below is guaranteed to trigger a replay.
			w.AckEvery = 1 << 30
			w.AckInterval = time.Hour
		})

		deadline := time.Now().Add(10 * time.Second)
		for {
			unacked, links := 0, 0
			for _, w := range ws {
				unacked += w.UnackedFrames()
			}
			for _, p := range proxies {
				links += p.Links()
			}
			// Wait for the proxy to register the link: a sever that lands
			// between the peer's kernel-level connect and the proxy's accept
			// cuts nothing.
			if unacked > 0 && links > 0 && sumTel(regs, "cluster_frames_sent_total") > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no unacked sent frames ever observed")
			}
			time.Sleep(time.Millisecond)
		}
		for _, p := range proxies {
			p.SeverAll()
		}
		close(gate)

		stats := awaitResult(t, result)
		mu.Lock()
		defer mu.Unlock()
		if cnt != n {
			t.Errorf("received %d tuples, want %d", cnt, n)
		}
		if want := n * (n - 1) / 2; sum != want {
			t.Errorf("sum = %d, want %d", sum, want)
		}
		if len(stats.Failures) != 0 {
			t.Errorf("failures: %v", stats.Failures)
		}
		if resent := sumTel(regs, "cluster_resent_frames_total"); resent == 0 {
			t.Errorf("sever of unacked frames did not trigger a resend (sent=%d redials=%d dedup=%d acksSent=%d acksRecv=%d)",
				sumTel(regs, "cluster_frames_sent_total"),
				sumTel(regs, "cluster_peer_redials_total"),
				sumTel(regs, "cluster_dedup_dropped_total"),
				sumTel(regs, "cluster_acks_sent_total"),
				sumTel(regs, "cluster_acks_received_total"))
		}
		if dropped := sumTel(regs, "cluster_copies_dropped_total"); dropped != 0 {
			t.Errorf("cluster_copies_dropped_total = %d, want 0", dropped)
		}
	})
}

// TestResendBufferBackpressure shrinks the resend buffer to a handful
// of frames so dispatch repeatedly blocks on unacked capacity; acks
// must drain the buffer and the run must still complete exactly.
func TestResendBufferBackpressure(t *testing.T) {
	const n = 200
	mu := &sync.Mutex{}
	sum, cnt := 0, 0
	makeBuilder := func() *topology.Builder {
		b := topology.NewBuilder()
		b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: n} }, 1)
		b.SetBolt("sink", func(int) topology.Bolt {
			return &sumBolt{mu: mu, sum: &sum, cnt: &cnt}
		}, 2).ShuffleGrouping("src")
		return b
	}
	_, _, result := startChaosCluster(t, makeBuilder, 2, func(w *Worker) {
		w.ResendBuffer = 2
		w.AckEvery = 1
		w.AckInterval = time.Millisecond
	})
	stats := awaitResult(t, result)
	mu.Lock()
	defer mu.Unlock()
	if cnt != n {
		t.Errorf("received %d tuples, want %d", cnt, n)
	}
	if want := n * (n - 1) / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
	if len(stats.Failures) != 0 {
		t.Errorf("failures: %v", stats.Failures)
	}
}

// TestIdleAckFlush parks the stream mid-run with fewer deliveries than
// AckEvery, so only the idle ack timer can acknowledge the tail; the
// quiescence check (which demands empty resend buffers) proves it did.
func TestIdleAckFlush(t *testing.T) {
	const n1, n2 = 30, 30
	gate := make(chan struct{})
	mu := &sync.Mutex{}
	sum, cnt := 0, 0
	makeBuilder := func() *topology.Builder {
		b := topology.NewBuilder()
		b.SetSpout("src", func(int) topology.Spout { return &gatedSpout{n1: n1, n2: n2, gate: gate} }, 1)
		b.SetBolt("sink", func(int) topology.Bolt {
			return &sumBolt{mu: mu, sum: &sum, cnt: &cnt}
		}, 2).ShuffleGrouping("src")
		return b
	}
	regs := make([]*telemetry.Registry, 2)
	ws, _, result := startChaosCluster(t, makeBuilder, 2, instrument(regs))

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
	// AckEvery (64) exceeds the deliveries so far, so inline acks never
	// fired; only the idle timer can have emptied the resend buffers.
	awaitQuiesce(t, ws)
	if acks := sumTel(regs, "cluster_acks_sent_total"); acks == 0 {
		t.Error("idle ack timer sent no acks")
	}
	close(gate)

	awaitResult(t, result)
	mu.Lock()
	defer mu.Unlock()
	if cnt != n1+n2 {
		t.Errorf("received %d tuples, want %d", cnt, n1+n2)
	}
}

// TestHungWorkerLeaseExpiry wedges a worker mid-run — its control loop
// swallows frames and its heartbeats stop, but every socket stays open
// — and requires the coordinator's heartbeat lease to surface it as
// WorkerDied within a few lease windows, naming the hung worker.
func TestHungWorkerLeaseExpiry(t *testing.T) {
	const workers = 2
	coord, err := NewCoordinator(workers)
	if err != nil {
		t.Fatal(err)
	}
	coord.LeaseTimeout = 150 * time.Millisecond
	mu := &sync.Mutex{}
	cnt := 0
	makeBuilder := func() *topology.Builder {
		b := topology.NewBuilder()
		b.MaxPending(8)
		b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: 200000} }, 1)
		b.SetBolt("sink", func(int) topology.Bolt {
			return slowCountBolt{mu: mu, cnt: &cnt}
		}, 2).ShuffleGrouping("src")
		return b
	}
	ws := make([]*Worker, workers)
	werrs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		w, err := NewWorker(i, workers, makeBuilder(), coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		w.HeartbeatInterval = 20 * time.Millisecond
		ws[i] = w
	}
	for _, w := range ws {
		w := w
		go func() { werrs <- w.Run() }()
	}
	result := make(chan error, 1)
	go func() {
		_, err := coord.Run()
		result <- err
	}()

	// Let the stream get underway, then wedge worker 1.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		started := cnt > 10
		mu.Unlock()
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never started")
		}
		time.Sleep(time.Millisecond)
	}
	ws[1].Hang()

	select {
	case err := <-result:
		var wd *WorkerDied
		if !errors.As(err, &wd) {
			t.Fatalf("coordinator returned %v, want WorkerDied", err)
		}
		if wd.Worker != 1 {
			t.Errorf("WorkerDied.Worker = %d, want 1", wd.Worker)
		}
		if !strings.Contains(err.Error(), "lease") {
			t.Errorf("error %q does not mention the lease", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never detected the hung worker")
	}
	// Both workers — including the wedged one, whose control socket the
	// coordinator closed — must unwind.
	for i := 0; i < workers; i++ {
		select {
		case <-werrs:
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not unwind after lease expiry")
		}
	}
}

// TestRandomScheduleDeterministic: the same seed must yield the same
// fault script, and different seeds must (for these inputs) differ —
// the reproducibility contract chaos runs are debugged with.
func TestRandomScheduleDeterministic(t *testing.T) {
	a := RandomSchedule(99, 8, 4, 1000)
	b := RandomSchedule(99, 8, 4, 1000)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].AtCopies < a.Events[i-1].AtCopies {
			t.Fatalf("events not sorted by AtCopies: %+v", a.Events)
		}
	}
	c := RandomSchedule(100, 8, 4, 1000)
	same := len(a.Events) == len(c.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 99 and 100 generated identical schedules")
	}
}
