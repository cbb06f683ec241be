package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/topology"
)

// twoStreamSpout interleaves keyed tuples on a "left" and a "right"
// stream, pausing at a gate mid-stream so the test can sever the data
// plane at a quiescent instant.
type twoStreamSpout struct {
	n    int
	gate <-chan struct{}
	next int
}

func (s *twoStreamSpout) Open(*topology.TaskContext) {}
func (s *twoStreamSpout) Close()                     {}
func (s *twoStreamSpout) NextTuple(c topology.Collector) bool {
	if s.next == s.n/2 && s.gate != nil {
		<-s.gate
	}
	if s.next >= s.n {
		return false
	}
	// The doc payload is dead weight for hashJoinBolt (it only reads key
	// and v) but forces every frame through the interning dictionary, so
	// chaos runs exercise delta shipping and post-sever re-encoding on
	// whichever wire format the worker uses.
	v := topology.Values{
		"key": s.next % 7,
		"v":   s.next,
		"doc": dictDoc(uint64(s.next+1), "side", fmt.Sprint(s.next%2), "host", fmt.Sprint(s.next%3)),
	}
	if s.next%2 == 0 {
		c.EmitTo("left", v)
	} else {
		c.EmitTo("right", v)
	}
	s.next++
	return true
}

// hashJoinBolt joins "left" and "right" tuples per key (fields
// grouping guarantees co-location) and records every output pair.
type hashJoinBolt struct {
	mu    *sync.Mutex
	pairs map[string]bool

	left  map[int][]int
	right map[int][]int
}

func newHashJoinBolt(mu *sync.Mutex, pairs map[string]bool) *hashJoinBolt {
	return &hashJoinBolt{mu: mu, pairs: pairs, left: make(map[int][]int), right: make(map[int][]int)}
}

func (b *hashJoinBolt) Prepare(*topology.TaskContext) {}
func (b *hashJoinBolt) Cleanup()                      {}
func (b *hashJoinBolt) Execute(t topology.Tuple, _ topology.Collector) {
	key := t.Values["key"].(int)
	v := t.Values["v"].(int)
	var matches []int
	if t.Stream == "left" {
		matches = b.right[key]
		b.left[key] = append(b.left[key], v)
	} else {
		matches = b.left[key]
		b.right[key] = append(b.right[key], v)
	}
	b.mu.Lock()
	for _, m := range matches {
		l, r := v, m
		if t.Stream != "left" {
			l, r = m, v
		}
		b.pairs[fmt.Sprintf("%d-%d", l, r)] = true
	}
	b.mu.Unlock()
}

// TestChaosJoinMatchesOracle runs a keyed stream join over bounded
// mailboxes on three workers, severs every peer connection
// mid-stream, and checks the final pair set against a brute-force
// oracle: reconnection must leave the join complete and exact.
func TestChaosJoinMatchesOracle(t *testing.T) {
	const n = 140
	gate := make(chan struct{})
	mu := &sync.Mutex{}
	pairs := make(map[string]bool)
	makeBuilder := func() *topology.Builder {
		b := topology.NewBuilder()
		b.MaxPending(8)
		b.SetSpout("src", func(int) topology.Spout { return &twoStreamSpout{n: n, gate: gate} }, 1)
		b.SetBolt("join", func(int) topology.Bolt {
			return newHashJoinBolt(mu, pairs)
		}, 4).
			FieldsGroupingOn("src", "left", "key").
			FieldsGroupingOn("src", "right", "key")
		return b
	}
	ws, proxies, result := startChaosCluster(t, makeBuilder, 3, nil)

	// Let the first half flow, then cut every established link.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var sent, exec int64
		for _, w := range ws {
			s, e, d := w.Counters()
			sent += s
			exec += e + d
		}
		if sent >= n/2 && sent == exec {
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
	if len(stats.Failures) != 0 {
		t.Fatalf("failures: %v", stats.Failures)
	}
	checkLedger(t, stats)

	// Brute-force oracle over the same interleaved stream.
	want := make(map[string]bool)
	var lefts, rights []int
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			lefts = append(lefts, i)
		} else {
			rights = append(rights, i)
		}
	}
	for _, l := range lefts {
		for _, r := range rights {
			if l%7 == r%7 {
				want[fmt.Sprintf("%d-%d", l, r)] = true
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(pairs) != len(want) {
		t.Fatalf("join produced %d pairs, oracle has %d", len(pairs), len(want))
	}
	for p := range want {
		if !pairs[p] {
			t.Errorf("missing pair %s", p)
		}
	}
}
