package server

import (
	"strconv"
	"sync"

	"repro/internal/telemetry"
)

// bufferedResult is one join result held for asynchronous delivery.
// Seq numbers are per query, start at 1 and never repeat, so a client
// can resume a long-poll or SSE stream from the last sequence it saw
// and detect gaps introduced by overflow drops.
//
// Merged is the encoded merged document. The same bytes are shared by
// every query, window class and response that delivers the pair, so
// they are immutable from the first push on: nothing may write to them
// or hand them back to a pool.
type bufferedResult struct {
	Seq    uint64
	Left   uint64
	Right  uint64
	Merged []byte
}

// appendJSON appends the result as encoding/json would render
// struct{seq, left, right uint64; merged json.RawMessage}.
func (r bufferedResult) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = append(dst, `,"left":`...)
	dst = strconv.AppendUint(dst, r.Left, 10)
	dst = append(dst, `,"right":`...)
	dst = strconv.AppendUint(dst, r.Right, 10)
	dst = append(dst, `,"merged":`...)
	dst = append(dst, r.Merged...)
	return append(dst, '}')
}

// appendResultsJSON appends the results as a JSON array.
func appendResultsJSON(dst []byte, results []bufferedResult) []byte {
	dst = append(dst, '[')
	for i, r := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = r.appendJSON(dst)
	}
	return append(dst, ']')
}

// resultBuffer is one query's bounded result queue. Producers push
// under the server's ingest path; consumers drain via long-poll or SSE.
// On overflow the oldest results are dropped (the stream is a tap, not
// a ledger — a slow client must not stall ingest or other tenants) and
// the drop count is surfaced so the client can tell.
//
// Storage is a ring: slots grows by doubling until it has cap entries
// and is overwritten in place from then on, so a full buffer costs no
// allocation per push and an evicted body is unreachable as soon as its
// slot is reused.
type resultBuffer struct {
	mu      sync.Mutex
	slots   []bufferedResult // len < cap only while head == 0 and n == len
	head    int              // slot of the oldest held result
	n       int              // held results
	base    uint64           // seq of the oldest held result, minus one
	cap     int
	dropped int64
	// wake is non-nil only while a consumer that called after may be
	// waiting; push and close close it, so a push nobody waits for
	// allocates nothing.
	wake   chan struct{}
	closed bool

	depth    *telemetry.Gauge   // live fill level
	droppedC *telemetry.Counter // overflow drops
}

func newResultBuffer(capacity int, depth *telemetry.Gauge, dropped *telemetry.Counter) *resultBuffer {
	return &resultBuffer{cap: capacity, depth: depth, droppedC: dropped}
}

// push appends the results in order under one lock hold, assigning
// their seqs, evicting the oldest on overflow, and wakes every waiting
// consumer. The Seq fields of rs are ignored.
func (b *resultBuffer) push(rs []bufferedResult) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || len(rs) == 0 {
		return
	}
	drops := 0
	for _, r := range rs {
		r.Seq = b.base + uint64(b.n) + 1
		switch {
		case b.n < len(b.slots): // room in the ring
			b.slots[(b.head+b.n)%len(b.slots)] = r
			b.n++
		case len(b.slots) < b.cap: // not wrapped yet: grow
			if len(b.slots) == cap(b.slots) {
				grown := make([]bufferedResult, len(b.slots), min(max(2*len(b.slots), 16), b.cap))
				copy(grown, b.slots)
				b.slots = grown
			}
			b.slots = append(b.slots, r)
			b.n++
		default: // full: the new result takes the oldest one's slot
			b.slots[b.head] = r
			b.head = (b.head + 1) % len(b.slots)
			b.base++
			drops++
		}
	}
	if drops > 0 {
		b.dropped += int64(drops)
		b.droppedC.Add(int64(drops))
	}
	b.depth.SetInt(b.n)
	b.signal()
}

// signal releases the consumers waiting on the current wake channel.
func (b *resultBuffer) signal() {
	if b.wake != nil {
		close(b.wake)
		b.wake = nil
	}
}

// after returns up to max results with Seq > after, plus the channel a
// consumer can wait on when the slice is empty and whether the buffer
// was closed. max <= 0 means no limit.
func (b *resultBuffer) after(after uint64, max int) (out []bufferedResult, wake <-chan struct{}, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	start := 0
	if after > b.base {
		start = int(min(after-b.base, uint64(b.n)))
	}
	if count := b.n - start; count > 0 {
		if max > 0 && count > max {
			count = max
		}
		out = make([]bufferedResult, count)
		first := (b.head + start) % len(b.slots)
		copied := copy(out, b.slots[first:min(first+count, len(b.slots))])
		copy(out[copied:], b.slots) // the part past the wrap, if any
	}
	if b.wake == nil && !b.closed {
		b.wake = make(chan struct{})
	}
	return out, b.wake, b.closed
}

// stats reports the fill level, total drops and the last assigned seq.
func (b *resultBuffer) stats() (depth int, dropped int64, lastSeq uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n, b.dropped, b.base + uint64(b.n)
}

// close wakes all consumers and rejects further pushes; buffered
// results stay readable so a final drain can complete.
func (b *resultBuffer) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.signal()
}
