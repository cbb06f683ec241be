package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// sliceBuffer is the result buffer as it was before the ring: a slice
// shifted on overflow. It is the behavioural reference for after, seq
// numbering, drop accounting and close.
type sliceBuffer struct {
	base    uint64
	items   []bufferedResult
	cap     int
	dropped int64
	closed  bool
}

func (b *sliceBuffer) push(left, right uint64, merged []byte) {
	if b.closed {
		return
	}
	if len(b.items) >= b.cap {
		drop := len(b.items) - b.cap + 1
		b.items = b.items[drop:]
		b.base += uint64(drop)
		b.dropped += int64(drop)
	}
	seq := b.base + uint64(len(b.items)) + 1
	b.items = append(b.items, bufferedResult{Seq: seq, Left: left, Right: right, Merged: merged})
}

func (b *sliceBuffer) after(after uint64, max int) (out []bufferedResult, closed bool) {
	start := 0
	if after > b.base {
		start = int(after - b.base)
	}
	if start < len(b.items) {
		out = b.items[start:]
		if max > 0 && len(out) > max {
			out = out[:max]
		}
		out = append([]bufferedResult(nil), out...)
	}
	return out, b.closed
}

func (b *sliceBuffer) stats() (int, int64, uint64) {
	return len(b.items), b.dropped, b.base + uint64(len(b.items))
}

// bufferOp is one step of a buffer script: push n results in one call,
// read after a cursor, or close.
type bufferOp struct {
	push       int
	after      uint64
	max        int
	read, shut bool
}

func pushN(n int) bufferOp                 { return bufferOp{push: n} }
func readAfter(a uint64, max int) bufferOp { return bufferOp{read: true, after: a, max: max} }

// runBufferScript applies ops to the ring and to the slice reference and
// fails on the first observable difference.
func runBufferScript(t *testing.T, capacity int, ops []bufferOp) {
	t.Helper()
	ring := newResultBuffer(capacity, nil, nil)
	ref := &sliceBuffer{cap: capacity}
	next := uint64(1)
	for i, op := range ops {
		switch {
		case op.shut:
			ring.close()
			ref.closed = true
		case op.read:
			got, _, gotClosed := ring.after(op.after, op.max)
			want, wantClosed := ref.after(op.after, op.max)
			if !reflect.DeepEqual(got, want) || gotClosed != wantClosed {
				t.Fatalf("op %d after(%d, %d): ring %v closed=%v, reference %v closed=%v",
					i, op.after, op.max, got, gotClosed, want, wantClosed)
			}
		default:
			run := make([]bufferedResult, op.push)
			for k := range run {
				body := []byte(fmt.Sprintf(`{"n":%d}`, next))
				run[k] = bufferedResult{Left: next, Right: next + 1, Merged: body}
				ref.push(next, next+1, body)
				next++
			}
			ring.push(run)
		}
		gd, gdrop, glast := ring.stats()
		wd, wdrop, wlast := ref.stats()
		if gd != wd || gdrop != wdrop || glast != wlast {
			t.Fatalf("op %d: ring stats depth=%d dropped=%d last=%d, reference %d/%d/%d", i, gd, gdrop, glast, wd, wdrop, wlast)
		}
		if len(ring.slots) > capacity {
			t.Fatalf("op %d: ring holds %d slots, capacity %d", i, len(ring.slots), capacity)
		}
	}
}

// TestResultBufferRingMatchesSlice drives the ring through the cases a
// ring can get wrong — wrap-around, a cursor on either side of the
// wrap, a single push larger than the buffer, drop counts, reads after
// close — against the slice implementation it replaced.
func TestResultBufferRingMatchesSlice(t *testing.T) {
	closeOp := bufferOp{shut: true}
	cases := []struct {
		name     string
		capacity int
		ops      []bufferOp
	}{
		{"empty", 4, []bufferOp{readAfter(0, 0), readAfter(7, 2)}},
		{"fill exactly", 4, []bufferOp{pushN(4), readAfter(0, 0), readAfter(2, 0), readAfter(4, 0)}},
		{"wrap once", 4, []bufferOp{pushN(3), pushN(3), readAfter(0, 0), readAfter(3, 0), readAfter(5, 1)}},
		{"cursor before the evicted range", 4, []bufferOp{pushN(10), readAfter(2, 0), readAfter(6, 0), readAfter(7, 2)}},
		{"cursor past the end", 4, []bufferOp{pushN(6), readAfter(6, 0), readAfter(99, 0)}},
		{"after across the wrap with max", 5, []bufferOp{pushN(5), pushN(2), readAfter(3, 3), readAfter(3, 0), readAfter(0, 4)}},
		{"one push larger than the buffer", 3, []bufferOp{pushN(8), readAfter(0, 0), pushN(1), readAfter(0, 0)}},
		{"many laps", 3, []bufferOp{pushN(2), pushN(2), pushN(2), pushN(2), pushN(2), readAfter(0, 0), readAfter(8, 0)}},
		{"capacity one", 1, []bufferOp{pushN(1), readAfter(0, 0), pushN(3), readAfter(0, 0), readAfter(3, 0)}},
		{"close then drain", 4, []bufferOp{pushN(6), closeOp, readAfter(0, 2), readAfter(4, 0), pushN(2), readAfter(0, 0), closeOp}},
		{"grows past the first allocation", 64, []bufferOp{pushN(10), pushN(30), readAfter(0, 0), pushN(40), readAfter(0, 0), readAfter(50, 5)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runBufferScript(t, tc.capacity, tc.ops) })
	}
	t.Run("random scripts", func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for round := 0; round < 200; round++ {
			capacity := 1 + rng.Intn(20)
			var ops []bufferOp
			for k := 0; k < 60; k++ {
				switch rng.Intn(10) {
				case 0:
					if rng.Intn(4) == 0 {
						ops = append(ops, closeOp)
					}
				case 1, 2, 3, 4:
					ops = append(ops, pushN(rng.Intn(2*capacity)))
				default:
					ops = append(ops, readAfter(uint64(rng.Intn(3*capacity+2)), rng.Intn(capacity+2)))
				}
			}
			runBufferScript(t, capacity, ops)
		}
	})
}

// TestResultBufferWakesOnlyWaiters: a push nobody waits for allocates no
// channel, a consumer that asked is woken by the next push and by close,
// and pushing into a full buffer allocates nothing at all.
func TestResultBufferWakesOnlyWaiters(t *testing.T) {
	b := newResultBuffer(8, nil, nil)
	one := []bufferedResult{{Left: 1, Right: 2, Merged: []byte(`{}`)}}
	b.push(one)
	if b.wake != nil {
		t.Fatal("push without a waiter left a wake channel behind")
	}
	_, wake, _ := b.after(1, 0)
	select {
	case <-wake:
		t.Fatal("woken before anything was pushed")
	default:
	}
	b.push(one)
	select {
	case <-wake:
	default:
		t.Fatal("push did not wake the waiting consumer")
	}
	_, wake, _ = b.after(2, 0)
	b.close()
	select {
	case <-wake:
	default:
		t.Fatal("close did not wake the waiting consumer")
	}
	if items, _, closed := b.after(0, 0); len(items) != 2 || !closed {
		t.Fatalf("after close: %d items, closed=%v; want 2, true", len(items), closed)
	}

	full := newResultBuffer(8, nil, nil)
	for i := 0; i < 8; i++ {
		full.push(one)
	}
	if allocs := testing.AllocsPerRun(100, func() { full.push(one) }); allocs != 0 {
		t.Errorf("push into a full buffer allocates %v objects, want 0", allocs)
	}
}
