package main

import "time"

// opTiming is one operation of a load schedule, in time since the
// schedule started.
type opTiming struct {
	Due  time.Duration // when it was meant to be sent
	Sent time.Duration // when it was sent
	Done time.Duration // when its reply was complete
	Err  error
}

// latency counts from the intended send time, so the wait a stall
// imposes on the operations queued behind it is not omitted.
func (o opTiming) latency() time.Duration { return o.Done - o.Due }

// late is how far behind its schedule the generator sent.
func (o opTiming) late() time.Duration { return o.Sent - o.Due }

// runLoad sends n operations one after another on the caller's single
// connection. With rate > 0 it is an open loop: operation i is due at
// i/rate seconds whatever the system does, and an operation that could
// not be sent on time because its predecessor was still in flight is
// sent as soon as possible but still timed from when it was due. With
// rate == 0 it is a closed loop: each operation is due when the
// previous one completed.
func runLoad(n int, rate float64, send func(i int) error) []opTiming {
	start := time.Now()
	out := make([]opTiming, n)
	for i := range out {
		var due time.Duration
		if rate > 0 {
			due = time.Duration(float64(i) / rate * float64(time.Second))
			time.Sleep(due - time.Since(start))
		}
		sent := time.Since(start)
		if rate <= 0 {
			due = sent
		}
		err := send(i)
		out[i] = opTiming{Due: due, Sent: sent, Done: time.Since(start), Err: err}
	}
	return out
}
