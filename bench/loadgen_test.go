package main

import (
	"testing"
	"time"
)

// The coordinated-omission check: when the server stalls, every request
// that was due during the stall must be charged the wait, although on
// one connection it could only be sent once the stall was over.
func TestOpenLoopChargesAStallToEveryRequestDueDuringIt(t *testing.T) {
	const (
		rate    = 1000.0 // one request per millisecond
		n       = 150
		stallAt = 20
		stall   = 50 * time.Millisecond
	)
	var stallEnd time.Duration
	begin := time.Now()
	ops := runLoad(n, rate, func(i int) error {
		if i == stallAt {
			time.Sleep(stall)
			stallEnd = time.Since(begin)
		}
		return nil
	})
	charged := 0
	for i, op := range ops {
		if want := time.Duration(float64(i) / rate * float64(time.Second)); op.Due != want {
			t.Fatalf("op %d due at %v, want %v: the schedule moved", i, op.Due, want)
		}
		if i <= stallAt || op.Due >= stallEnd-time.Millisecond {
			continue
		}
		// Due while the server was stalled: it cannot have completed
		// before the stall ended, so its latency is at least the rest
		// of the stall — far above the microseconds it took to send.
		charged++
		if min := stallEnd - op.Due - time.Millisecond; op.latency() < min {
			t.Errorf("op %d (due %v, stall ended %v): latency %v < %v", i, op.Due, stallEnd, op.latency(), min)
		}
		if op.late() <= 0 {
			t.Errorf("op %d was due during the stall but is not reported late (%v)", i, op.late())
		}
		if fromSend := op.Done - op.Sent; fromSend > stall/2 {
			t.Errorf("op %d took %v from its actual send; the test's premise is broken", i, fromSend)
		}
	}
	if charged < 40 {
		t.Fatalf("only %d requests were due during a %v stall at %v/s", charged, stall, rate)
	}
	// After the backlog drains the generator is back on schedule.
	if last := ops[n-1]; last.late() > stall/2 {
		t.Errorf("last op still %v late", last.late())
	}
}

func TestClosedLoopSendsTheNextWhenThePreviousCompleted(t *testing.T) {
	ops := runLoad(5, 0, func(int) error { time.Sleep(time.Millisecond); return nil })
	for i, op := range ops {
		if op.late() != 0 {
			t.Errorf("op %d late by %v in a closed loop", i, op.late())
		}
		if i > 0 && op.Sent < ops[i-1].Done {
			t.Errorf("op %d sent at %v before op %d completed at %v", i, op.Sent, i-1, ops[i-1].Done)
		}
	}
}
