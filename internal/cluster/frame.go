// Package cluster is the distributed runtime for topologies: the same
// component graph executed by internal/topology in one process runs
// here across multiple worker processes connected over TCP. A
// coordinator collects worker registrations, distributes the address
// book, detects global termination by double-probing monotonic
// send/execute counters, and gathers the final statistics.
//
// Wire format: the control plane (coordinator handshake, probes,
// heartbeats) carries a gob stream of envelope values — gob's
// self-describing streams provide the framing, and every connection is
// written by at most one mutex-guarded encoder. The data plane
// (worker-to-worker tuples, acks and migration state) speaks the
// length-prefixed binary batched format from wire.go.
package cluster

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/topology"
)

// frameKind discriminates envelope payloads.
type frameKind uint8

const (
	frameHello frameKind = iota + 1
	frameStart
	frameTuple
	frameProbe
	frameProbeReply
	frameStop
	frameDone
	// frameAbort tells a worker to abandon the run immediately (a peer
	// worker died); the worker tears its tasks down without the usual
	// quiescence protocol and Run returns ErrAborted.
	frameAbort
	// frameHeartbeat is a worker -> coordinator liveness beacon on the
	// control plane; any frame refreshes the worker's lease, heartbeats
	// exist so an idle worker still proves it is scheduled and serving.
	frameHeartbeat
	// frameAck is a receiver -> sender cumulative acknowledgement on the
	// data plane, written back on the inbound connection: every data
	// frame with DataSeq <= AckSeq has been delivered (or deduplicated)
	// and may leave the sender's resend buffer.
	frameAck

	// Elastic-rescale control plane (coordinator <-> workers). The
	// protocol is pause -> quiesce -> loads -> rescale (migrate) ->
	// resume, with retire closing out a departing worker; see
	// rescale.go for the full timeline.
	framePause        // coordinator -> workers: park spouts at the window frontier
	framePaused       // worker -> coordinator: spouts parked, Window = frontier
	frameLoads        // coordinator -> workers: report hosted tasks + live loads
	frameLoadsReply   // worker -> coordinator: Loads payload
	frameRescale      // coordinator -> workers: epoch, moves, addresses, departing set
	frameRescaleReady // worker -> coordinator: migrations in/out complete, buffers drained
	frameResume       // coordinator -> survivors: swap done, unpark spouts, retire departed peers
	frameRetire       // coordinator -> departing worker: send final stats and exit

	// frameState is the data-plane migration frame: one chunk of a
	// moving task's state.Snapshotter envelope, sequenced through the
	// same per-peer resend buffers as tuples — so a sever mid-migration
	// replays the chunks instead of losing them.
	frameState
)

// envelope is the single wire message type; unused fields stay at their
// zero values (gob omits them).
type envelope struct {
	Kind frameKind

	// frameHello: worker registration. Joining marks a late worker
	// dialling into a live run (elastic grow); it idles until a rescale
	// welcomes it with an epoch-stamped placement table.
	WorkerID int
	DataAddr string
	Joining  bool

	// frameStart: coordinator -> workers address book. Table/Epoch/
	// Workers are set only for late joiners, which cannot derive the
	// current placement from (spec, worker count) — it may already have
	// been reshaped by earlier rescales.
	Addresses map[int]string
	Table     map[string][]int

	// Elastic rescale. Epoch stamps frameRescale (the successor epoch)
	// and frameState (the epoch the migration belongs to); Workers is
	// the successor worker count; Moves the migration plan; Departing
	// the worker ids leaving the cluster (on frameRescale and
	// frameResume, where survivors retire the departed peer links);
	// Loads the frameLoadsReply payload; Window the frontier a paused
	// worker reports (framePaused) and the frontier a state chunk was
	// cut at (frameState).
	Epoch     uint64
	Workers   int
	Moves     []Move
	Departing []int
	Loads     []TaskLoad
	Window    int

	// frameState: one chunk of a migrating task's snapshot envelope,
	// destined for (TargetComp, TargetTask); StateLast marks the final
	// chunk, after which the receiver restores and installs the task.
	StateData []byte
	StateLast bool

	// frameTuple: data-plane delivery of one tuple copy.
	TargetComp string
	TargetTask int
	Tuple      topology.Tuple

	// Reliable delivery (frameTuple / frameState / frameAck).
	// FromWorker names the sending worker (so the receiver keys its
	// dedup cursor and routes piggybacked acks). DataSeq is the per
	// peer-pair monotonic data sequence number, 1-based: every data
	// frame is sequenced, and the binary decoder rejects a frame whose
	// first sequence number is 0. AckSeq is the cumulative ack — on
	// frameAck it is the payload, on a data frame it piggybacks the
	// sender's receive-side cursor for the destination worker.
	FromWorker int
	DataSeq    uint64
	AckSeq     uint64

	// frameProbe / frameProbeReply: termination detection (copy ledger).
	Seq        int
	SpoutsDone bool
	Sent       int64
	Executed   int64
	Dropped    int64

	// frameDone: final per-worker statistics.
	Stats topology.Stats
}

// conn is a control-plane connection: a net.Conn with a mutex-guarded
// gob encoder and a decoder.
type conn struct {
	raw net.Conn
	enc *gob.Encoder
	dec *gob.Decoder
	mu  sync.Mutex
}

func newConn(raw net.Conn) *conn {
	return &conn{raw: raw, enc: gob.NewEncoder(raw), dec: gob.NewDecoder(raw)}
}

// countingConn counts bytes crossing a data-plane socket into telemetry
// counters; with nil counters it is a transparent wrapper.
type countingConn struct {
	net.Conn
	sent  *telemetry.Counter
	recvd *telemetry.Counter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recvd.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// send writes one envelope; safe for concurrent use.
func (c *conn) send(e *envelope) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(e); err != nil {
		return fmt.Errorf("cluster: send %d: %w", e.Kind, err)
	}
	return nil
}

// recv reads one envelope; the caller owns the read side.
func (c *conn) recv() (*envelope, error) {
	var e envelope
	if err := c.dec.Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

func (c *conn) close() { _ = c.raw.Close() }

// setDeadline bounds both read and write on the underlying socket; the
// zero time clears the bound. A deadline hit surfaces as a send/recv
// error, turning a silently hung peer into an actionable failure.
func (c *conn) setDeadline(t time.Time) { _ = c.raw.SetDeadline(t) }

// setWriteDeadline bounds only writes — for connections whose read
// side is owned by a long-lived reader goroutine that must not be
// poisoned by a read deadline.
func (c *conn) setWriteDeadline(t time.Time) { _ = c.raw.SetWriteDeadline(t) }

// Register makes a concrete type transferable inside tuple Values.
// Packages that define tuple payload types call this from an init
// function or a setup hook before any cluster run.
func Register(v any) { gob.Register(v) }

func init() {
	// Builtin payload shapes used across the repository's topologies.
	Register([]int{})
	Register(map[string]any{})
}
