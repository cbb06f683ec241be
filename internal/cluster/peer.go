package cluster

// The reliable peer link: per-peer resend buffers with cumulative acks
// on the send side, per-sender dedup cursors on the receive side, and
// the read loop that hands inbound copies and state chunks to the
// worker. A severed link replays everything unacknowledged on its
// successor, so a copy sequenced into a buffer is delivered exactly
// once while the run lives.
//
// Lock hierarchy. Two kinds of lock guard the link state, and no
// goroutine holds one of them while it waits on the other:
//
//   - inbound.mu serialises one sender's check-and-deliver. The read
//     loop holds it across the mailbox put, which blocks while the
//     target task's mailbox is full. So nothing that a task's Execute
//     may wait on takes inbound.mu: the sender reads the piggyback
//     cursor (inbound.delivered) atomically, without the lock.
//   - peer.mu guards one outbound slot's queue and cursors. It is held
//     only for bookkeeping, never across a socket write, a dial, a
//     sleep or another lock: the sender takes its batch under the lock,
//     writes it without the lock, and re-takes the lock to advance
//     sentTo. A task's Execute blocks on peer.mu only for that
//     bookkeeping, or on notFull while the resend buffer is full, which
//     releases the lock.
//
// binConn.mu, innermost, serialises the frames written on one
// connection.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// errPeerClosed is the only way a reliable peer send fails: the worker
// is shutting down (killed, aborted, or stopped) and will never deliver
// the frame. The dispatcher drops the copy so termination is still
// reached.
var errPeerClosed = errors.New("cluster: peer slot closed")

// transportTel holds a worker's transport instruments, resolved once
// from its Telemetry at Run start. Every series carries the worker
// label.
type transportTel struct {
	framesSent  *telemetry.Counter
	sendRetries *telemetry.Counter
	dials       *telemetry.Counter
	redials     *telemetry.Counter
	dictHits    *telemetry.Counter
	dictMisses  *telemetry.Counter
	bytesSent   *telemetry.Counter
	bytesRecv   *telemetry.Counter
	acksSent    *telemetry.Counter
	acksRecv    *telemetry.Counter
	resent      *telemetry.Counter
	dedup       *telemetry.Counter
	heartbeats  *telemetry.Counter
	buffered    *telemetry.Gauge
	// Framing layer: bytes as framed on the wire split by frame kind
	// (bytesSent/bytesRecv count raw socket bytes) and tuples per data
	// frame. framesSent counts per batch *member*, so the
	// frames−retries == remote copies invariant holds independent of
	// batching.
	wireSentData *telemetry.Counter
	wireSentAck  *telemetry.Counter
	wireRecvData *telemetry.Counter
	wireRecvAck  *telemetry.Counter
	batchDocs    *telemetry.Histogram
	// Elastic rescale: tasks and snapshot bytes migrated off/onto this
	// worker.
	migOut      *telemetry.Counter
	migOutBytes *telemetry.Counter
	migIn       *telemetry.Counter
	migInBytes  *telemetry.Counter
}

func newTransportTel(reg *telemetry.Registry, id string) transportTel {
	c := func(base string, labels ...string) *telemetry.Counter {
		return reg.Counter(telemetry.Name(base, append(labels, "worker", id)...))
	}
	return transportTel{
		framesSent:   c("cluster_frames_sent_total"),
		sendRetries:  c("cluster_send_retries_total"),
		dials:        c("cluster_peer_dials_total"),
		redials:      c("cluster_peer_redials_total"),
		dictHits:     c("cluster_dict_hits_total"),
		dictMisses:   c("cluster_dict_misses_total"),
		bytesSent:    c("cluster_bytes_sent_total"),
		bytesRecv:    c("cluster_bytes_received_total"),
		acksSent:     c("cluster_acks_sent_total"),
		acksRecv:     c("cluster_acks_received_total"),
		resent:       c("cluster_resent_frames_total"),
		dedup:        c("cluster_dedup_dropped_total"),
		heartbeats:   c("cluster_heartbeats_sent_total"),
		buffered:     reg.Gauge(telemetry.Name("cluster_resend_buffered", "worker", id)),
		wireSentData: c("cluster_wire_bytes_sent_total", "kind", "data"),
		wireSentAck:  c("cluster_wire_bytes_sent_total", "kind", "ack"),
		wireRecvData: c("cluster_wire_bytes_received_total", "kind", "data"),
		wireRecvAck:  c("cluster_wire_bytes_received_total", "kind", "ack"),
		batchDocs:    reg.Histogram(telemetry.Name("cluster_frame_batch_docs", "worker", id)),
		migOut:       c("cluster_migrations_total", "direction", "out"),
		migOutBytes:  c("cluster_migration_bytes_total", "direction", "out"),
		migIn:        c("cluster_migrations_total", "direction", "in"),
		migInBytes:   c("cluster_migration_bytes_total", "direction", "in"),
	}
}

// peer is one outbound data-plane link slot, now a reliable-delivery
// queue: dispatchers append frames (blocking while the bounded resend
// buffer is full), a dedicated sender goroutine writes them in
// sequence order, and frames leave the buffer only when the receiver's
// cumulative ack covers them — so a severed link replays everything
// unacknowledged on the fresh connection instead of dropping it. The
// mutex serialises queue state, dial and send per peer; a slow or
// unreachable worker delays only the tuples routed to it.
type peer struct {
	mu      sync.Mutex
	notFull *sync.Cond // dispatchers wait here while buf is at capacity
	work    *sync.Cond // the sender goroutine waits here for frames
	c       *binConn
	// dialled counts successful dials on this slot; dials after the
	// first are redials of a broken link.
	dialled int
	// closed flips when the worker shuts down: blocked dispatchers and
	// the sender goroutine wake and give up.
	closed bool

	// Reliable-delivery state, guarded by mu. buf holds the frames with
	// DataSeq in (acked, nextSeq], oldest first: buf[0].DataSeq ==
	// acked+1. sentTo is the highest sequence written to the current
	// connection; eviction resets it to acked so the next connection
	// replays the whole unacknowledged suffix. maxSent is the all-time
	// high-water mark, distinguishing first sends from resends.
	buf     []*envelope
	nextSeq uint64
	acked   uint64
	sentTo  uint64
	maxSent uint64

	// rng provides the retry-backoff jitter, seeded per (worker, peer)
	// pair so chaos runs under a fixed seed reproduce their timing.
	rng *rand.Rand
	// backoff mirrors the current retry backoff in seconds while a send
	// to this peer is healing (0 when healthy); nil when telemetry is
	// off.
	backoff *telemetry.Gauge
}

// inbound is the receive-side reliable-delivery state for one sending
// peer. It persists across that peer's connections: delivered is the
// cumulative dedup cursor (a replayed frame at or below it is dropped),
// acked is how far the sender has been told, and c is the freshest
// inbound connection — where acks are written back. The mutex also
// serialises check-and-deliver across connections, so a straggler read
// on a dying link and the replay on its successor cannot race or
// reorder one sender's frames.
type inbound struct {
	mu sync.Mutex
	c  *binConn
	// delivered is written under mu and read without it by the peer
	// sender, which piggybacks it as an ack (see the lock hierarchy).
	delivered atomic.Uint64
	acked     uint64
	// needAck forces a re-ack even when delivered == acked: set when a
	// duplicate arrives or the sender shows up on a fresh connection —
	// both mean an earlier ack may have died with the old link.
	needAck bool
}

// closePeers marks every peer slot closed, dropping its connection and
// waking blocked dispatchers and the sender goroutine so both give up.
// The peersClosed flag makes slots created afterwards (a dispatcher
// racing shutdown) born closed, so no sender goroutine outlives the
// worker.
func (w *Worker) closePeers() {
	w.peersClosed.Store(true)
	w.peersMu.Lock()
	for _, p := range w.peers {
		p.close()
	}
	w.peersMu.Unlock()
}

// close marks one peer slot closed, drops its connection, and wakes
// blocked dispatchers and the sender goroutine so both give up.
func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	if p.c != nil {
		p.c.close()
		p.c = nil
	}
	p.notFull.Broadcast()
	p.work.Broadcast()
	p.mu.Unlock()
}

// newDataConn wraps a data-plane socket in the binary codec, with byte
// counting underneath and the codec's instruments attached. The dialer
// side announces itself with the wire preamble.
func (w *Worker) newDataConn(raw net.Conn, dialer bool) *binConn {
	cc := countingConn{Conn: raw, sent: w.tel.bytesSent, recvd: w.tel.bytesRecv}
	c := newBinConn(cc, dialer)
	c.dictHits, c.dictMisses = w.tel.dictHits, w.tel.dictMisses
	c.wireSentData, c.wireSentAck = w.tel.wireSentData, w.tel.wireSentAck
	c.wireRecvData, c.wireRecvAck = w.tel.wireRecvData, w.tel.wireRecvAck
	c.batchDocs = w.tel.batchDocs
	return c
}

// acceptLoop serves inbound peer connections on the data plane.
func (w *Worker) acceptLoop() {
	for {
		raw, err := w.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go w.readLoop(w.newDataConn(raw, false))
	}
}

func (w *Worker) readLoop(c *binConn) {
	defer c.close()
	select {
	case <-w.tasksUp:
	case <-w.stop:
		return
	}
	for {
		e, err := c.recv()
		if err != nil {
			return
		}
		if e.Kind != frameTuple && e.Kind != frameState {
			continue
		}
		// A piggybacked cumulative ack rides on reverse-direction data
		// traffic: it acknowledges frames we sent to e.FromWorker on our
		// outbound link to it.
		if e.AckSeq > 0 {
			if p := w.peerIfAny(e.FromWorker); p != nil {
				w.advanceAcked(p, e.AckSeq)
			}
		}
		in := w.inboundFor(e.FromWorker)
		in.mu.Lock()
		if in.c != c {
			// The sender showed up on a fresh connection: any ack written
			// to the old one may have died with it, so re-ack even if our
			// cursor says the sender already knows.
			in.c = c
			in.needAck = true
		}
		delivered := in.delivered.Load()
		if e.DataSeq <= delivered {
			// Replay of a frame that already made it — the ack got lost,
			// not the data. Drop the duplicate (exactly-once in effect)
			// and make sure a fresh ack goes out so the sender's resend
			// buffer drains.
			w.tel.dedup.Inc()
			in.needAck = true
			in.mu.Unlock()
			continue
		}
		if e.DataSeq != delivered+1 {
			// Impossible under the protocol: per-connection sequences
			// ascend and a replay starts at acked+1 <= delivered+1.
			// Record it and deliver anyway — wedging the link on a
			// corrupted counter would be worse than a gap.
			w.x.Fail(e.TargetComp, e.TargetTask,
				fmt.Sprintf("sequence gap from worker %d: got %d after %d", e.FromWorker, e.DataSeq, delivered))
		}
		in.delivered.Store(e.DataSeq)
		// Deliver while holding in.mu: the cursor update and the mailbox
		// put must be atomic per sender, or a straggler read on a dying
		// connection could reorder against the replay on its successor.
		// Migration state chunks take the same cursor (a replay after a
		// sever must not re-install half a snapshot).
		if e.Kind == frameState {
			w.acceptStateChunk(e)
		} else {
			w.deliverLocal(e.TargetComp, e.TargetTask, e.Tuple)
		}
		if e.DataSeq-in.acked >= uint64(w.AckEvery) {
			w.sendAckLocked(in)
		}
		in.mu.Unlock()
	}
}

// inboundFor returns the receive-side state for one sending peer,
// creating it on first contact.
func (w *Worker) inboundFor(id int) *inbound {
	w.inboundMu.Lock()
	defer w.inboundMu.Unlock()
	in, ok := w.inbound[id]
	if !ok {
		in = &inbound{}
		w.inbound[id] = in
	}
	return in
}

// deliveredTo reports the cumulative delivery cursor for frames from
// the given peer — the value piggybacked as AckSeq on data frames
// flowing the other way. It takes no inbound lock: the read loop may
// hold that one while it waits on a full mailbox.
func (w *Worker) deliveredTo(id int) uint64 {
	return w.inboundFor(id).delivered.Load()
}

// notePiggyback records that a cumulative ack up to seq was handed to
// the transport on a data frame, so the idle timer stops re-sending
// dedicated acks for the same ground. If the frame dies on the wire its
// connection dies with it, the sender replays, and the duplicates force
// a fresh ack — the optimism self-corrects.
func (w *Worker) notePiggyback(id int, seq uint64) {
	if seq == 0 {
		return
	}
	in := w.inboundFor(id)
	in.mu.Lock()
	if seq > in.acked {
		in.acked = seq
	}
	in.mu.Unlock()
}

// sendAckLocked writes a cumulative ack covering everything delivered
// from this sender, on the sender's freshest inbound connection. The
// caller holds in.mu. A write failure is ignored: the link is dying,
// the sender will replay on its successor, and the duplicates will
// force a new ack.
func (w *Worker) sendAckLocked(in *inbound) {
	delivered := in.delivered.Load()
	if in.c == nil || (!in.needAck && delivered <= in.acked) {
		return
	}
	if err := in.c.send(&envelope{Kind: frameAck, WorkerID: w.id, AckSeq: delivered}); err != nil {
		return
	}
	in.acked = delivered
	in.needAck = false
	w.tel.acksSent.Inc()
}

// ackTicker is the idle ack timer: every AckInterval it flushes a
// cumulative ack to any sender with deliveries the piggyback and
// inline paths have not yet acknowledged.
func (w *Worker) ackTicker() {
	if w.AckInterval <= 0 {
		return
	}
	t := time.NewTicker(w.AckInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.inboundMu.Lock()
			ins := make([]*inbound, 0, len(w.inbound))
			for _, in := range w.inbound {
				ins = append(ins, in)
			}
			w.inboundMu.Unlock()
			for _, in := range ins {
				in.mu.Lock()
				w.sendAckLocked(in)
				in.mu.Unlock()
			}
		}
	}
}

// peerFor returns the reliable-delivery slot for a worker, creating it
// (and its sender goroutine) on first use. The global peersMu guards
// only the map; queueing, dialling and sending happen under the slot's
// own lock, so one unreachable peer never blocks dispatches to the
// others.
func (w *Worker) peerFor(id int) *peer {
	w.peersMu.Lock()
	defer w.peersMu.Unlock()
	p, ok := w.peers[id]
	if !ok {
		p = &peer{rng: rand.New(rand.NewSource(w.peerSeed(id)))}
		p.notFull = sync.NewCond(&p.mu)
		p.work = sync.NewCond(&p.mu)
		if w.Telemetry != nil {
			p.backoff = w.Telemetry.Gauge(telemetry.Name("cluster_peer_backoff_seconds",
				"worker", fmt.Sprint(w.id), "peer", fmt.Sprint(id)))
		}
		if w.peersClosed.Load() {
			p.closed = true
		}
		w.peers[id] = p
		if !p.closed {
			w.senderWG.Add(1)
			go w.runPeerSender(id, p)
		}
	}
	return p
}

// peerIfAny returns the slot for a worker without creating one — the
// read loop uses it to route piggybacked acks, which must not conjure
// a sender for a peer this worker never dispatches to.
func (w *Worker) peerIfAny(id int) *peer {
	w.peersMu.Lock()
	defer w.peersMu.Unlock()
	return w.peers[id]
}

// peerSeed derives the deterministic jitter seed for one peer link
// from the worker's RandSeed (or a fixed default) and both endpoint
// ids — distinct per ordered pair, reproducible across runs.
func (w *Worker) peerSeed(id int) int64 {
	seed := w.RandSeed
	if seed == 0 {
		seed = 1
	}
	return seed*1000003 + int64(w.id)*8191 + int64(id)
}

// sendToPeer hands one data frame to the peer's reliable-delivery
// queue: the frame gets the next per-pair sequence number and sits in
// the resend buffer until the receiver's cumulative ack covers it. The
// call blocks while the buffer is at capacity (backpressure, not
// loss) and fails only when the worker is shutting down — the one case
// left for the caller to drop the copy.
func (w *Worker) sendToPeer(id int, e *envelope) error {
	if _, ok := (*w.addrs.Load())[id]; !ok {
		return fmt.Errorf("cluster: no address for worker %d", id)
	}
	p := w.peerFor(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && w.ResendBuffer > 0 && len(p.buf) >= w.ResendBuffer {
		p.notFull.Wait()
	}
	if p.closed {
		return errPeerClosed
	}
	p.nextSeq++
	e.FromWorker = w.id
	e.DataSeq = p.nextSeq
	p.buf = append(p.buf, e)
	w.tel.buffered.Add(1)
	p.work.Signal()
	return nil
}

// runPeerSender is the per-peer writer goroutine: it dials lazily with
// capped exponential backoff plus seeded jitter, writes buffered
// frames in sequence order, and on any connection failure evicts the
// link and replays the unacknowledged suffix on the next one. Frames
// are retried until acked or the worker shuts down — transient severs
// degrade latency, never correctness; only lease expiry at the
// coordinator escalates to checkpoint recovery.
func (w *Worker) runPeerSender(id int, p *peer) {
	defer w.senderWG.Done()
	backoff := w.RetryBackoff
	for {
		p.mu.Lock()
		for !p.closed && p.sentTo >= p.nextSeq {
			p.work.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		if p.c == nil {
			addr := (*w.addrs.Load())[id]
			p.mu.Unlock() // never hold the slot across a dial
			raw, derr := net.DialTimeout("tcp", addr, w.DialTimeout)
			p.mu.Lock()
			if p.closed {
				if derr == nil {
					raw.Close()
				}
				p.mu.Unlock()
				return
			}
			if derr != nil {
				backoff = w.retryPause(p, backoff) // unlocks p.mu
				continue
			}
			w.tel.dials.Inc()
			if p.dialled++; p.dialled > 1 {
				w.tel.redials.Inc()
			}
			c := w.newDataConn(raw, true)
			p.c = c
			// Replay everything unacknowledged on the fresh link. The
			// buffered envelopes hold raw strings (the dictionary encode
			// copies at write time), so the resends are re-encoded
			// against the new connection's empty dictionary.
			p.sentTo = p.acked
			go w.ackLoop(p, c)
		}
		if p.sentTo >= p.nextSeq { // an ack outran the queue meanwhile
			p.mu.Unlock()
			continue
		}
		// Batch the pending suffix, capped at frameBatch. The buffer is a
		// contiguous sequence run (buf[i].DataSeq == acked+1+i), so the
		// batch members carry consecutive sequence numbers — the property
		// the binary format's implicit firstSeq+i encoding relies on.
		lo := p.sentTo - p.acked
		hi := p.nextSeq - p.acked
		if limit := lo + frameBatch; hi > limit {
			hi = limit
		}
		batch := p.buf[lo:hi]
		// Frames of different kinds never share a wire frame: a
		// migration state chunk travels alone, and a run of tuples ends
		// at the first state chunk queued behind it.
		if batch[0].Kind == frameState {
			batch = batch[:1]
		} else {
			for i := 1; i < len(batch); i++ {
				if batch[i].Kind != frameTuple {
					batch = batch[:i]
					break
				}
			}
		}
		ack := w.deliveredTo(id) // piggyback our receive cursor
		for _, e := range batch {
			e.AckSeq = ack
			// Per batch *member* accounting, so frames−retries still
			// equals delivered remote copies regardless of batching.
			w.tel.framesSent.Inc()
			if e.DataSeq <= p.maxSent {
				w.tel.resent.Inc()
			} else {
				p.maxSent = e.DataSeq
			}
		}
		// Write without the slot lock (see the lock hierarchy). The
		// batch's envelopes stay put meanwhile: an ack only reslices the
		// buffer and a dispatch appends past its end. If the ack loop
		// evicted the connection during the write, it also reset sentTo
		// for the replay, and that stands.
		c := p.c
		p.mu.Unlock()
		err := c.sendBatch(batch)
		p.mu.Lock()
		if err != nil {
			if p.c == c {
				c.close()
				p.c = nil
			}
			backoff = w.retryPause(p, backoff) // unlocks p.mu
			continue
		}
		if last := batch[len(batch)-1].DataSeq; p.c == c && last > p.sentTo {
			p.sentTo = last
		}
		p.backoff.Set(0)
		p.mu.Unlock()
		backoff = w.RetryBackoff
		w.notePiggyback(id, ack)
	}
}

// retryPause records a failed attempt and sleeps the current backoff
// plus jitter, releasing p.mu first (acks must keep flowing while the
// sender waits). It returns the next backoff. The caller holds p.mu.
func (w *Worker) retryPause(p *peer, backoff time.Duration) time.Duration {
	w.tel.sendRetries.Inc()
	p.backoff.Set(backoff.Seconds())
	jitter := time.Duration(p.rng.Int63n(int64(backoff) + 1))
	p.mu.Unlock()
	time.Sleep(backoff + jitter)
	next := backoff * 2
	if next > w.RetryBackoffMax {
		next = w.RetryBackoffMax
	}
	return next
}

// ackLoop owns the read side of one outbound connection: the receiver
// writes cumulative acks back on it. An ack releases the covered
// prefix of the resend buffer; a read error means the link died, so
// the loop evicts it and wakes the sender to redial and replay — even
// when no new dispatch would have touched the peer again.
func (w *Worker) ackLoop(p *peer, c *binConn) {
	for {
		e, err := c.recv()
		if err != nil {
			p.mu.Lock()
			if p.c == c {
				c.close()
				p.c = nil
				p.sentTo = p.acked
				p.work.Signal()
			}
			p.mu.Unlock()
			return
		}
		if e.Kind != frameAck {
			continue
		}
		w.tel.acksRecv.Inc()
		w.advanceAcked(p, e.AckSeq)
	}
}

// advanceAcked applies a cumulative ack to a peer's resend buffer,
// releasing the covered prefix and waking dispatchers blocked on a
// full buffer. Stale and duplicate acks are no-ops.
func (w *Worker) advanceAcked(p *peer, seq uint64) {
	p.mu.Lock()
	if seq > p.acked {
		if seq > p.nextSeq {
			seq = p.nextSeq // corrupt ack; never release unsent frames
		}
		n := seq - p.acked
		w.tel.buffered.Add(-float64(n))
		p.buf = p.buf[n:]
		p.acked = seq
		if p.sentTo < seq {
			p.sentTo = seq
		}
		p.notFull.Broadcast()
	}
	p.mu.Unlock()
}

// PeerConnections reports how many outbound peer connections are
// currently cached and believed healthy — after a network fault the
// ack loops evict the dead links, driving this back to zero until a
// pending or new frame makes the sender redial.
func (w *Worker) PeerConnections() int {
	w.peersMu.Lock()
	defer w.peersMu.Unlock()
	n := 0
	for _, p := range w.peers {
		p.mu.Lock()
		if p.c != nil {
			n++
		}
		p.mu.Unlock()
	}
	return n
}

// UnackedFrames reports how many data frames sit in this worker's
// resend buffers awaiting a peer's cumulative ack. Zero means every
// dispatched copy is known delivered — the transport-level analogue of
// quiescence, and the condition under which a sever leaves nothing to
// replay.
func (w *Worker) UnackedFrames() int {
	w.peersMu.Lock()
	defer w.peersMu.Unlock()
	n := 0
	for _, p := range w.peers {
		p.mu.Lock()
		n += len(p.buf)
		p.mu.Unlock()
	}
	return n
}
