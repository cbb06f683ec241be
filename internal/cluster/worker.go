package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/state"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// ErrKilled is returned by Run on a worker that was hard-killed via
// Kill; ErrAborted on a worker told by the coordinator to abandon the
// run because a peer died.
var (
	ErrKilled  = errors.New("cluster: worker killed")
	ErrAborted = errors.New("cluster: run aborted")
)

// errPeerClosed is the only way a reliable peer send fails: the worker
// is shutting down (killed, aborted, or stopped) and will never deliver
// the frame. The dispatcher compensates so termination is still
// reached.
var errPeerClosed = errors.New("cluster: peer slot closed")

// mailbox is the worker-local FIFO queue (semantics identical to the
// in-process runtime's mailbox): blocking receive, and blocking send
// when a positive capacity is set. A readLoop blocked on a full
// mailbox stops reading its socket, so TCP flow control pushes the
// backpressure to the remote sender.
type mailbox struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	buf      []topology.Tuple
	capacity int // 0 = unbounded
	peak     int // high-water mark of len(buf), for tests/metrics
	closed   bool

	// Optional live instruments (nil-safe no-ops when telemetry is
	// off), mirroring the in-process runtime's mailbox.
	depth       *telemetry.Gauge
	blockedNS   *telemetry.Counter
	blockedPuts *telemetry.Counter
}

func newMailbox(capacity int) *mailbox {
	m := &mailbox{capacity: capacity}
	m.notEmpty = sync.NewCond(&m.mu)
	m.notFull = sync.NewCond(&m.mu)
	return m
}

// put appends t, blocking while the mailbox is at capacity. It reports
// whether the tuple was accepted; false means the mailbox closed.
func (m *mailbox) put(t topology.Tuple) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.capacity > 0 && len(m.buf) >= m.capacity && !m.closed {
		// Only a put that actually blocks pays for the clock reads.
		var start time.Time
		if m.blockedNS != nil {
			start = time.Now()
			m.blockedPuts.Inc()
		}
		for m.capacity > 0 && len(m.buf) >= m.capacity && !m.closed {
			m.notFull.Wait()
		}
		if m.blockedNS != nil {
			m.blockedNS.Add(int64(time.Since(start)))
		}
	}
	if m.closed {
		return false
	}
	m.buf = append(m.buf, t)
	if len(m.buf) > m.peak {
		m.peak = len(m.buf)
	}
	m.depth.SetInt(len(m.buf))
	m.notEmpty.Signal()
	return true
}

func (m *mailbox) get() (topology.Tuple, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.buf) == 0 && !m.closed {
		m.notEmpty.Wait()
	}
	if len(m.buf) == 0 {
		return topology.Tuple{}, false
	}
	t := m.buf[0]
	m.buf = m.buf[1:]
	m.depth.SetInt(len(m.buf))
	m.notFull.Signal()
	return t, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.notEmpty.Broadcast()
	m.notFull.Broadcast()
	m.mu.Unlock()
}

// peakLen reports the mailbox's high-water mark.
func (m *mailbox) peakLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// taskHandle is the live-control handle of one hosted bolt task: the
// bolt instance (a migration snapshots it after its loop exits), its
// mailbox, and a done channel the loop closes on exit. moved tells the
// loop to exit without Cleanup — the operator is relocating, not
// shutting down.
type taskHandle struct {
	bolt  topology.Bolt
	box   *mailbox
	done  chan struct{}
	moved atomic.Bool
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
	mu        sync.Mutex
	c         *binConn
	delivered uint64
	acked     uint64
	// needAck forces a re-ack even when delivered == acked: set when a
	// duplicate arrives or the sender shows up on a fresh connection —
	// both mean an earlier ack may have died with the old link.
	needAck bool
}

// outEdge is one outbound subscription resolved against the placement.
type outEdge struct {
	target   string
	nTasks   int
	grouping topology.GroupingKind
	fields   []string
	rr       atomic.Uint64
}

// Worker hosts the tasks placed on it and exchanges tuples with its
// peers over TCP. Every worker process (or goroutine in tests)
// constructs the same topology Builder from code; only the tasks the
// placement assigns to this worker are instantiated locally.
type Worker struct {
	id        int
	builder   *topology.Builder
	spec      []topology.ComponentSpec
	specByID  map[string]topology.ComponentSpec
	coordAddr string

	// placement is the versioned routing table, swapped wholesale on a
	// rescale; the dispatch hot path pays exactly one atomic load.
	// joining marks a worker that dials into a live run and receives
	// its table from the coordinator instead of deriving epoch 0.
	placement atomic.Pointer[Placement]
	joining   bool

	// BindAddr is the data-plane listen address. It defaults to an
	// ephemeral loopback port; set it to an externally routable
	// "host:port" before Run for a multi-host deployment.
	BindAddr string
	// AdvertiseAddr, when set, is registered with the coordinator in
	// place of the listener's own address — for deployments where peers
	// must dial through a NAT mapping or proxy.
	AdvertiseAddr string

	// DialTimeout bounds every outbound dial (peers and coordinator).
	DialTimeout time.Duration
	// SendRetries is retained for configuration compatibility but no
	// longer bounds data-plane delivery: frames are retried with backoff
	// until the receiver acknowledges them or the run ends. Dropping
	// after N attempts would reintroduce the at-most-once hole the
	// resend buffer exists to close.
	SendRetries int
	// RetryBackoff and RetryBackoffMax shape the capped exponential
	// backoff (with seeded jitter) between redial/resend attempts.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// ResendBuffer caps how many unacknowledged frames one peer link
	// buffers for replay; a dispatcher hitting the cap blocks, turning a
	// long outage into backpressure instead of unbounded memory.
	ResendBuffer int
	// AckInterval is the receiver's idle ack timer: cumulative acks are
	// piggybacked on reverse-direction data frames and forced out at
	// least this often, bounding how long a sender's buffer stays full
	// on a quiet link.
	AckInterval time.Duration
	// AckEvery is the receiver's inline ack threshold: a cumulative ack
	// is written immediately after this many deliveries since the last
	// one, without waiting for the idle timer.
	AckEvery int
	// HeartbeatInterval is how often the worker beats on its control
	// plane so the coordinator's lease sees it alive even when idle;
	// <= 0 disables heartbeats.
	HeartbeatInterval time.Duration
	// RandSeed seeds the per-peer backoff jitter generators. 0 (the
	// default) derives a fixed seed from the worker id, so two runs with
	// identical configuration draw identical jitter — the property the
	// deterministic chaos schedules rely on.
	RandSeed int64

	// Telemetry, when set before Run, instruments the worker's transport
	// and tasks: frames/bytes sent, dictionary hit rate, redials,
	// per-peer backoff state, mailbox depth, and per-component
	// executed/emitted counts. Series carry a worker="<id>" label so
	// scrapes from different workers stay distinguishable after
	// aggregation. Nil (the default) keeps every instrument a no-op.
	Telemetry *telemetry.Registry
	// MetricsAddr, when set before Run, serves Telemetry on that address
	// (Prometheus text at /metrics, JSON at /debug/stats) for the whole
	// run. Use "127.0.0.1:0" for an ephemeral port; ScrapeAddr reports
	// the bound address.
	MetricsAddr string

	listener net.Listener
	// addrs is the copy-on-write peer address book: rescales publish a
	// fresh map; readers (dispatch, peer senders) never lock.
	addrs   atomic.Pointer[map[int]string]
	peers   map[int]*peer
	peersMu sync.Mutex

	// inbound tracks receive-side dedup/ack state per sending peer.
	inbound   map[int]*inbound
	inboundMu sync.Mutex

	// killed flips once on Kill or frameAbort; lifeMu guards the
	// listener and control connection handles Kill needs to close from
	// another goroutine. hung simulates a wedged process (Hang).
	killed atomic.Bool
	hung   atomic.Bool
	lifeMu sync.Mutex
	ctrl   *conn

	// peersClosed marks that closePeers ran: peer slots created after
	// it (by a dispatcher racing shutdown) are born closed. stop ends
	// the worker's auxiliary goroutines (ack ticker, heartbeats);
	// senderWG tracks the per-peer sender goroutines.
	peersClosed atomic.Bool
	stop        chan struct{}
	stopOnce    sync.Once
	senderWG    sync.WaitGroup

	// tasksUp is closed by startTasks once every locally hosted bolt
	// has its mailbox installed. The listener is up before that (peers
	// learn the address from the coordinator's start frame and may
	// send at once), so read loops hold inbound frames until then
	// rather than find an empty slot and drop the tuple.
	tasksUp chan struct{}

	// boxes holds the mailbox slots for every bolt task (full
	// parallelism per component, nil pointer when the task is not
	// hosted here). Slots are atomic so a migration can install or
	// evict a mailbox while the read loop races a stale-epoch frame.
	boxes map[string][]atomic.Pointer[mailbox]
	// edges holds the outbound routing of locally hosted components:
	// component -> stream -> edges.
	edges map[string]map[string][]*outEdge

	// tasks mirrors boxes with the live bolt handles a migration needs
	// (the bolt instance to snapshot, its loop's done channel).
	// stopping, set under tasksMu before boltWG.Wait, keeps a racing
	// migration install from Add-ing to a waited-on WaitGroup.
	tasksMu  sync.Mutex
	tasks    map[string][]*taskHandle
	stopping bool

	// taskExec counts executions per bolt task on this worker — the
	// load signal behind frameLoadsReply and the planner's hottest-
	// first ordering.
	taskExec map[string][]atomic.Int64

	// Spout parking (framePause). parked spouts wait on pauseCond;
	// frontier is the highest window a parked Frontiered spout
	// reported.
	pauseMu   sync.Mutex
	pauseCond *sync.Cond
	pauseWant bool
	parked    int
	frontier  int

	// Inbound migration assembly: partial snapshots by task, the set
	// installed since the current rescale began, and the cond
	// handleRescale waits on.
	migMu     sync.Mutex
	migCond   *sync.Cond
	migIn     map[taskKey][]byte
	installed map[taskKey]bool

	sent       atomic.Int64
	executed   atomic.Int64
	spoutsLeft atomic.Int64

	emitted   map[string]*atomic.Int64
	execCount map[string]*atomic.Int64
	failMu    sync.Mutex
	failures  []string

	boltWG  sync.WaitGroup
	spoutWG sync.WaitGroup

	// Transport instruments resolved once from Telemetry at Run start
	// (all nil when telemetry is off).
	tel struct {
		framesSent  *telemetry.Counter
		sendRetries *telemetry.Counter
		dials       *telemetry.Counter
		redials     *telemetry.Counter
		dictHits    *telemetry.Counter
		dictMisses  *telemetry.Counter
		bytesSent   *telemetry.Counter
		bytesRecv   *telemetry.Counter
		copies      *telemetry.Counter
		copiesDone  *telemetry.Counter
		dropped     *telemetry.Counter
		acksSent    *telemetry.Counter
		acksRecv    *telemetry.Counter
		resent      *telemetry.Counter
		dedup       *telemetry.Counter
		heartbeats  *telemetry.Counter
		buffered    *telemetry.Gauge
		// Wire-format instruments: framed bytes by frame kind and the
		// per-frame batch-size histogram.
		wireSentData *telemetry.Counter
		wireSentAck  *telemetry.Counter
		wireRecvData *telemetry.Counter
		wireRecvAck  *telemetry.Counter
		batchDocs    *telemetry.Histogram
		// Elastic-rescale instruments: tasks and snapshot bytes
		// migrated off/onto this worker.
		migOut      *telemetry.Counter
		migOutBytes *telemetry.Counter
		migIn       *telemetry.Counter
		migInBytes  *telemetry.Counter
		exec        map[string]*telemetry.Counter
		emit        map[string]*telemetry.Counter
		execSeconds map[string]*telemetry.Histogram
	}
	metricsSrv atomic.Pointer[telemetry.Server]
}

// NewWorker prepares a worker for the given topology and cluster size.
// The placement is derived from (spec, workers); every participant must
// use the same builder code and worker count.
func NewWorker(id, workers int, b *topology.Builder, coordAddr string) (*Worker, error) {
	w, err := newWorker(id, b, coordAddr)
	if err != nil {
		return nil, err
	}
	placement, err := NewPlacement(w.spec, workers)
	if err != nil {
		return nil, err
	}
	w.placement.Store(placement)
	return w, nil
}

// NewJoiningWorker prepares a worker that joins an already-running
// cluster for an elastic grow: it registers with a Joining hello and
// idles until a rescale welcomes it with the live epoch-stamped
// placement table (it cannot derive the table from (spec, workers) —
// earlier rescales may have reshaped it). It hosts no tasks until
// migrations stream some in.
func NewJoiningWorker(id int, b *topology.Builder, coordAddr string) (*Worker, error) {
	w, err := newWorker(id, b, coordAddr)
	if err != nil {
		return nil, err
	}
	w.joining = true
	return w, nil
}

func newWorker(id int, b *topology.Builder, coordAddr string) (*Worker, error) {
	spec, err := b.Spec()
	if err != nil {
		return nil, err
	}
	w := &Worker{
		id:        id,
		builder:   b,
		spec:      spec,
		specByID:  make(map[string]topology.ComponentSpec),
		coordAddr: coordAddr,
		peers:     make(map[int]*peer),
		inbound:   make(map[int]*inbound),
		boxes:     make(map[string][]atomic.Pointer[mailbox]),
		tasks:     make(map[string][]*taskHandle),
		taskExec:  make(map[string][]atomic.Int64),
		migIn:     make(map[taskKey][]byte),
		installed: make(map[taskKey]bool),
		edges:     make(map[string]map[string][]*outEdge),
		emitted:   make(map[string]*atomic.Int64),
		execCount: make(map[string]*atomic.Int64),
		stop:      make(chan struct{}),
		tasksUp:   make(chan struct{}),
		frontier:  -1,

		DialTimeout:       2 * time.Second,
		SendRetries:       4,
		RetryBackoff:      5 * time.Millisecond,
		RetryBackoffMax:   250 * time.Millisecond,
		ResendBuffer:      1024,
		AckInterval:       2 * time.Millisecond,
		AckEvery:          64,
		HeartbeatInterval: 250 * time.Millisecond,
	}
	w.pauseCond = sync.NewCond(&w.pauseMu)
	w.migCond = sync.NewCond(&w.migMu)
	for _, comp := range spec {
		w.specByID[comp.ID] = comp
		w.emitted[comp.ID] = &atomic.Int64{}
		w.execCount[comp.ID] = &atomic.Int64{}
	}
	// Resolve outbound edges for every component (any local task may
	// emit on any of its streams).
	for _, comp := range spec {
		for _, sub := range comp.Subs {
			src := w.edges[sub.Source]
			if src == nil {
				src = make(map[string][]*outEdge)
				w.edges[sub.Source] = src
			}
			src[sub.Stream] = append(src[sub.Stream], &outEdge{
				target:   comp.ID,
				nTasks:   comp.Parallelism,
				grouping: sub.Grouping,
				fields:   sub.Fields,
			})
		}
	}
	// Full-parallelism slot arrays for every bolt component: mailboxes
	// and handles are installed per hosted task at start (and by
	// migrations later), but the arrays themselves never resize — a
	// migration swaps one atomic pointer.
	for _, comp := range spec {
		if b.BoltFactory(comp.ID) == nil {
			continue
		}
		w.boxes[comp.ID] = make([]atomic.Pointer[mailbox], comp.Parallelism)
		w.tasks[comp.ID] = make([]*taskHandle, comp.Parallelism)
		w.taskExec[comp.ID] = make([]atomic.Int64, comp.Parallelism)
	}
	return w, nil
}

// Listen binds the data-plane listener ahead of Run and returns its
// address, so a caller can learn where the worker accepts peer traffic
// before the run starts — e.g. to interpose a fault-injection proxy
// and advertise the proxy's address instead (AdvertiseAddr). Run calls
// Listen itself when the caller did not.
func (w *Worker) Listen() (string, error) {
	w.lifeMu.Lock()
	defer w.lifeMu.Unlock()
	if w.listener != nil {
		return w.listener.Addr().String(), nil
	}
	bind := w.BindAddr
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return "", fmt.Errorf("cluster: worker %d listen: %w", w.id, err)
	}
	w.listener = ln
	return ln.Addr().String(), nil
}

// Kill hard-stops the worker from another goroutine, simulating a
// process crash: the data-plane listener, control connection, task
// mailboxes and peer links all close immediately, with no quiescence
// handshake. The coordinator observes the dead control plane on its
// next probe and aborts the surviving workers. Run returns ErrKilled.
func (w *Worker) Kill() {
	w.kill()
	w.lifeMu.Lock()
	if w.ctrl != nil {
		w.ctrl.close()
	}
	w.lifeMu.Unlock()
}

// Hang simulates a wedged worker process for tests: heartbeats stop
// and every control frame is swallowed unanswered, while the data
// plane and the local tasks keep running — the failure mode a crash
// can't produce and socket errors can't surface. The coordinator's
// lease expires, the worker is declared dead (WorkerDied) and the
// run enters the same recovery path as a hard kill.
func (w *Worker) Hang() { w.hung.Store(true) }

// kill performs the shared teardown of Kill and frameAbort: flip the
// killed flag, stop accepting peer traffic, close the task mailboxes so
// bolts drain out, and drop the peer links. It never waits — callers
// that need quiescence call drainTasks afterwards.
func (w *Worker) kill() {
	if !w.killed.CompareAndSwap(false, true) {
		return
	}
	w.lifeMu.Lock()
	if w.listener != nil {
		w.listener.Close()
	}
	w.lifeMu.Unlock()
	w.tasksMu.Lock()
	w.stopping = true
	w.tasksMu.Unlock()
	w.closeBoxes()
	// Wake anything parked or waiting on a migration: both conds
	// re-check the killed flag.
	w.pauseMu.Lock()
	w.pauseCond.Broadcast()
	w.pauseMu.Unlock()
	w.migMu.Lock()
	w.migCond.Broadcast()
	w.migMu.Unlock()
	w.closePeers()
	w.stopAux()
}

// closeBoxes closes every installed task mailbox so bolt loops drain
// out and exit.
func (w *Worker) closeBoxes() {
	for _, slots := range w.boxes {
		for i := range slots {
			if box := slots[i].Load(); box != nil {
				box.close()
			}
		}
	}
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
	w.peersMu.Unlock()
}

// stopAux ends the worker's auxiliary goroutines (ack ticker,
// heartbeats); idempotent.
func (w *Worker) stopAux() {
	w.stopOnce.Do(func() { close(w.stop) })
}

// drainTasks waits for the local task goroutines to wind down after a
// kill/abort. Spouts observe the killed flag on their next NextTuple
// and bolts exit once their closed mailboxes drain; peer sends fail
// fast (the closed slots reject frames) and compensate, so this
// terminates promptly.
func (w *Worker) drainTasks() {
	w.spoutWG.Wait()
	w.boltWG.Wait()
}

// initTelemetry resolves the worker's transport instruments and
// attaches mailbox instruments to the hosted task queues. Called once
// at the start of Run; a nil Telemetry leaves everything a no-op.
func (w *Worker) initTelemetry() {
	reg := w.Telemetry
	if reg == nil {
		return
	}
	id := fmt.Sprint(w.id)
	w.tel.framesSent = reg.Counter(telemetry.Name("cluster_frames_sent_total", "worker", id))
	w.tel.sendRetries = reg.Counter(telemetry.Name("cluster_send_retries_total", "worker", id))
	w.tel.dials = reg.Counter(telemetry.Name("cluster_peer_dials_total", "worker", id))
	w.tel.redials = reg.Counter(telemetry.Name("cluster_peer_redials_total", "worker", id))
	w.tel.dictHits = reg.Counter(telemetry.Name("cluster_dict_hits_total", "worker", id))
	w.tel.dictMisses = reg.Counter(telemetry.Name("cluster_dict_misses_total", "worker", id))
	w.tel.bytesSent = reg.Counter(telemetry.Name("cluster_bytes_sent_total", "worker", id))
	w.tel.bytesRecv = reg.Counter(telemetry.Name("cluster_bytes_received_total", "worker", id))
	w.tel.copies = reg.Counter(telemetry.Name("cluster_copies_sent_total", "worker", id))
	w.tel.copiesDone = reg.Counter(telemetry.Name("cluster_copies_executed_total", "worker", id))
	w.tel.dropped = reg.Counter(telemetry.Name("cluster_copies_dropped_total", "worker", id))
	w.tel.acksSent = reg.Counter(telemetry.Name("cluster_acks_sent_total", "worker", id))
	w.tel.acksRecv = reg.Counter(telemetry.Name("cluster_acks_received_total", "worker", id))
	w.tel.resent = reg.Counter(telemetry.Name("cluster_resent_frames_total", "worker", id))
	w.tel.dedup = reg.Counter(telemetry.Name("cluster_dedup_dropped_total", "worker", id))
	w.tel.heartbeats = reg.Counter(telemetry.Name("cluster_heartbeats_sent_total", "worker", id))
	w.tel.buffered = reg.Gauge(telemetry.Name("cluster_resend_buffered", "worker", id))
	// Framing layer: bytes as framed on the wire split by frame kind
	// (cluster_bytes_* above counts raw socket bytes) and tuples per
	// data frame. cluster_frames_sent_total counts per batch *member*, so the
	// frames−retries == remote copies invariant holds independent of
	// batching.
	w.tel.wireSentData = reg.Counter(telemetry.Name("cluster_wire_bytes_sent_total", "kind", "data", "worker", id))
	w.tel.wireSentAck = reg.Counter(telemetry.Name("cluster_wire_bytes_sent_total", "kind", "ack", "worker", id))
	w.tel.wireRecvData = reg.Counter(telemetry.Name("cluster_wire_bytes_received_total", "kind", "data", "worker", id))
	w.tel.wireRecvAck = reg.Counter(telemetry.Name("cluster_wire_bytes_received_total", "kind", "ack", "worker", id))
	w.tel.batchDocs = reg.Histogram(telemetry.Name("cluster_frame_batch_docs", "worker", id))
	w.tel.migOut = reg.Counter(telemetry.Name("cluster_migrations_total", "direction", "out", "worker", id))
	w.tel.migOutBytes = reg.Counter(telemetry.Name("cluster_migration_bytes_total", "direction", "out", "worker", id))
	w.tel.migIn = reg.Counter(telemetry.Name("cluster_migrations_total", "direction", "in", "worker", id))
	w.tel.migInBytes = reg.Counter(telemetry.Name("cluster_migration_bytes_total", "direction", "in", "worker", id))
	w.tel.exec = make(map[string]*telemetry.Counter, len(w.spec))
	w.tel.emit = make(map[string]*telemetry.Counter, len(w.spec))
	w.tel.execSeconds = make(map[string]*telemetry.Histogram, len(w.spec))
	for _, comp := range w.spec {
		// Same base names as the in-process runtime, so a cross-worker
		// SumCounter matches a single-process run's totals.
		w.tel.exec[comp.ID] = reg.Counter(telemetry.Name("topology_tuples_executed_total", "component", comp.ID, "worker", id))
		w.tel.emit[comp.ID] = reg.Counter(telemetry.Name("topology_tuples_emitted_total", "component", comp.ID, "worker", id))
		// The in-process runtime's very name, no worker label: the
		// workers' histograms merge into the one series a single-process
		// run reports.
		w.tel.execSeconds[comp.ID] = reg.Histogram(telemetry.Name("topology_execute_seconds", "component", comp.ID))
	}
}

// attachBoxTelemetry instruments one task mailbox at creation time —
// mailboxes are now born at task start (or migration install), after
// initTelemetry has run.
func (w *Worker) attachBoxTelemetry(compID string, task int, box *mailbox) {
	reg := w.Telemetry
	if reg == nil {
		return
	}
	id := fmt.Sprint(w.id)
	box.depth = reg.Gauge(telemetry.Name("cluster_mailbox_depth", "worker", id, "component", compID, "task", fmt.Sprint(task)))
	box.blockedNS = reg.Counter(telemetry.Name("cluster_backpressure_blocked_ns_total", "worker", id, "component", compID))
	box.blockedPuts = reg.Counter(telemetry.Name("cluster_backpressure_blocked_puts_total", "worker", id, "component", compID))
}

// ScrapeAddr reports the bound address of the worker's metrics endpoint
// ("" until Run starts one via MetricsAddr).
func (w *Worker) ScrapeAddr() string { return w.metricsSrv.Load().Addr() }

// Run connects to the coordinator, serves the data plane and executes
// the local tasks until the coordinator signals stop. It blocks for the
// whole run.
func (w *Worker) Run() error {
	w.initTelemetry()
	if w.MetricsAddr != "" {
		srv, err := telemetry.Serve(w.MetricsAddr, w.Telemetry)
		if err != nil {
			return err
		}
		w.metricsSrv.Store(srv)
		defer srv.Close()
	}
	dataAddr, err := w.Listen()
	if err != nil {
		return err
	}
	if w.AdvertiseAddr != "" {
		dataAddr = w.AdvertiseAddr
	}
	go w.acceptLoop()
	defer w.listener.Close()
	// Whatever way Run exits, close the peer slots and stop the
	// auxiliary goroutines, then wait for the per-peer senders — they
	// hold no resources a later run could trip on, but tests inspect
	// telemetry the moment Run returns.
	defer func() {
		w.closePeers()
		w.stopAux()
		w.senderWG.Wait()
	}()
	go w.ackTicker()

	raw, err := net.DialTimeout("tcp", w.coordAddr, w.DialTimeout)
	if err != nil {
		return fmt.Errorf("cluster: worker %d dial coordinator: %w", w.id, err)
	}
	coord := newConn(raw)
	defer coord.close()
	w.lifeMu.Lock()
	w.ctrl = coord
	killed := w.killed.Load()
	w.lifeMu.Unlock()
	if killed { // Kill raced the dial
		coord.close()
		return ErrKilled
	}
	if err := coord.send(&envelope{Kind: frameHello, WorkerID: w.id, DataAddr: dataAddr, Joining: w.joining}); err != nil {
		return err
	}
	start, err := coord.recv()
	if err != nil || start.Kind != frameStart {
		return fmt.Errorf("cluster: worker %d handshake failed: %v", w.id, err)
	}
	addrs := make(map[int]string, len(start.Addresses))
	for id, a := range start.Addresses {
		addrs[id] = a
	}
	w.addrs.Store(&addrs)
	if w.joining {
		// A late joiner is welcomed with the live epoch-stamped table
		// (the first rescale it participates in arrives right after).
		w.placement.Store(PlacementAt(start.Epoch, start.Workers, start.Table))
	}

	go w.heartbeatLoop(coord)
	w.startTasks()

	// Control loop: answer probes until stop.
	for {
		e, err := coord.recv()
		if err != nil {
			if w.killed.Load() {
				w.drainTasks()
				return ErrKilled
			}
			// The control link died under us — the coordinator is gone,
			// or it expired this worker's lease and cut the link. Tear
			// the tasks down and drain before returning: leaving them
			// running would leak goroutines past Run.
			w.kill()
			w.drainTasks()
			return fmt.Errorf("cluster: worker %d control: %w", w.id, err)
		}
		if w.hung.Load() {
			continue // a wedged process answers nothing (see Hang)
		}
		switch e.Kind {
		case frameAbort:
			w.kill()
			w.drainTasks()
			return ErrAborted
		case frameProbe:
			reply := &envelope{
				Kind:       frameProbeReply,
				WorkerID:   w.id,
				Seq:        e.Seq,
				SpoutsDone: w.spoutsLeft.Load() == 0,
				Sent:       w.sent.Load(),
				Executed:   w.executed.Load(),
			}
			if err := coord.send(reply); err != nil {
				return err
			}
		case frameStop:
			w.shutdown()
			return coord.send(&envelope{Kind: frameDone, WorkerID: w.id, Stats: w.stats()})
		case framePause:
			// Reply from a goroutine: spouts may take a while to reach
			// their frontier, and the control loop must keep answering
			// probes and aborts meanwhile.
			go func() {
				f := w.requestPause()
				_ = coord.send(&envelope{Kind: framePaused, WorkerID: w.id, Window: f})
			}()
		case frameLoads:
			if err := coord.send(&envelope{Kind: frameLoadsReply, WorkerID: w.id, Loads: w.taskLoads()}); err != nil {
				return err
			}
		case frameRescale:
			go w.handleRescale(coord, e)
		case frameResume:
			w.retirePeers(e.Departing)
			w.resumeSpouts()
		case frameRetire:
			// This worker is leaving the cluster: all its tasks have
			// migrated away and its resend buffers are drained, so the
			// normal quiescent shutdown applies.
			w.shutdown()
			w.dropOwnPeerSeries()
			return coord.send(&envelope{Kind: frameDone, WorkerID: w.id, Stats: w.stats()})
		}
	}
}

// startTasks launches the locally hosted bolt and spout tasks. A
// joining worker hosts nothing until a rescale migrates tasks in.
// Every hosted mailbox is installed before the first task runs or an
// inbound frame is read: a task that emits the moment it starts (a
// spout, a bolt's Recover) and a peer that started earlier both find
// their target's slot filled.
func (w *Worker) startTasks() {
	parallelism := make(map[string]int, len(w.spec))
	for _, comp := range w.spec {
		parallelism[comp.ID] = comp.Parallelism
	}
	pl := w.placement.Load()
	var run []func()
	for _, comp := range w.spec {
		comp := comp
		if bf := w.builder.BoltFactory(comp.ID); bf != nil {
			for _, task := range pl.TasksOn(comp.ID, w.id) {
				if h := w.installBolt(comp, task, bf(task)); h != nil {
					run = append(run, func() { w.boltLoop(comp, task, h, parallelism, nil) })
				}
			}
		}
	}
	close(w.tasksUp)
	for _, f := range run {
		go f()
	}
	for _, comp := range w.spec {
		if sf := w.builder.SpoutFactory(comp.ID); sf != nil {
			for _, task := range pl.TasksOn(comp.ID, w.id) {
				w.spoutsLeft.Add(1)
				w.spoutWG.Add(1)
				go w.runSpout(comp, task, sf(task), parallelism)
			}
		}
	}
}

// installBolt installs one bolt task's mailbox slot and handle; the
// caller starts its loop. Returns nil when the worker is already
// stopping.
func (w *Worker) installBolt(comp topology.ComponentSpec, task int, bolt topology.Bolt) *taskHandle {
	w.tasksMu.Lock()
	defer w.tasksMu.Unlock()
	if w.stopping {
		return nil
	}
	box := newMailbox(comp.MaxPending)
	w.attachBoxTelemetry(comp.ID, task, box)
	h := &taskHandle{bolt: bolt, box: box, done: make(chan struct{})}
	w.tasks[comp.ID][task] = h
	w.boxes[comp.ID][task].Store(box)
	w.boltWG.Add(1)
	return h
}

// startBolt installs one bolt task and starts its loop. A migration
// install passes the streamed snapshot (possibly empty for a stateless
// bolt), which replaces the Recover pass. Returns false when the worker
// is already stopping.
func (w *Worker) startBolt(comp topology.ComponentSpec, task int, bolt topology.Bolt, parallelism map[string]int, restore []byte) bool {
	h := w.installBolt(comp, task, bolt)
	if h == nil {
		return false
	}
	go w.boltLoop(comp, task, h, parallelism, restore)
	return true
}

func (w *Worker) boltLoop(comp topology.ComponentSpec, task int, h *taskHandle, parallelism map[string]int, restore []byte) {
	defer w.boltWG.Done()
	defer close(h.done)
	ctx := &topology.TaskContext{Component: comp.ID, Task: task, NumTasks: comp.Parallelism, Parallelism: parallelism}
	h.bolt.Prepare(ctx)
	col := &workerCollector{w: w, comp: comp.ID, task: task}
	if restore != nil {
		// Migrated-in task: rebuild from the streamed snapshot and skip
		// Recover — nothing crashed, so re-emitting the last recovery
		// decisions would duplicate them downstream.
		if s, ok := h.bolt.(state.Snapshotter); ok && len(restore) > 0 {
			if err := state.Decode(comp.ID, restore, s); err != nil {
				w.recordFailure(comp.ID, task, err)
			}
		}
	} else if rec, ok := h.bolt.(topology.Recoverer); ok {
		rec.Recover(col)
	}
	lat := w.tel.execSeconds[comp.ID] // nil without a registry: no clock reads
	for {
		tuple, ok := h.box.get()
		if !ok {
			break
		}
		var start time.Time
		if lat != nil {
			start = time.Now()
		}
		w.safeExecute(comp.ID, task, h.bolt, tuple, col)
		if lat != nil {
			lat.Observe(time.Since(start))
		}
		w.execCount[comp.ID].Add(1)
		w.taskExec[comp.ID][task].Add(1)
		w.executed.Add(1)
		w.tel.exec[comp.ID].Inc()
		w.tel.copiesDone.Inc()
	}
	if !h.moved.Load() {
		h.bolt.Cleanup()
	}
}

func (w *Worker) runSpout(comp topology.ComponentSpec, task int, spout topology.Spout, parallelism map[string]int) {
	defer w.spoutWG.Done()
	defer func() {
		w.spoutsLeft.Add(-1)
		// A spout exhausting itself while a pause gathers counts as
		// parked; wake the waiter so it re-checks the tally.
		w.pauseMu.Lock()
		w.pauseCond.Broadcast()
		w.pauseMu.Unlock()
	}()
	ctx := &topology.TaskContext{Component: comp.ID, Task: task, NumTasks: comp.Parallelism, Parallelism: parallelism}
	spout.Open(ctx)
	col := &workerCollector{w: w, comp: comp.ID, task: task}
	for !w.killed.Load() {
		w.pausePoint(spout)
		if w.killed.Load() || !w.safeNext(comp.ID, task, spout, col) {
			break
		}
	}
	spout.Close()
}

func (w *Worker) safeExecute(comp string, task int, bolt topology.Bolt, tuple topology.Tuple, col topology.Collector) {
	defer func() {
		if r := recover(); r != nil {
			w.recordFailure(comp, task, r)
		}
	}()
	bolt.Execute(tuple, col)
}

func (w *Worker) safeNext(comp string, task int, spout topology.Spout, col topology.Collector) (more bool) {
	defer func() {
		if r := recover(); r != nil {
			w.recordFailure(comp, task, r)
			more = false
		}
	}()
	return spout.NextTuple(col)
}

func (w *Worker) recordFailure(comp string, task int, v any) {
	w.failMu.Lock()
	w.failures = append(w.failures, fmt.Sprintf("%s[%d]@w%d: %v", comp, task, w.id, v))
	w.failMu.Unlock()
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
		if e.DataSeq <= in.delivered {
			// Replay of a frame that already made it — the ack got lost,
			// not the data. Drop the duplicate (exactly-once in effect)
			// and make sure a fresh ack goes out so the sender's resend
			// buffer drains.
			w.tel.dedup.Inc()
			in.needAck = true
			in.mu.Unlock()
			continue
		}
		if e.DataSeq != in.delivered+1 {
			// Impossible under the protocol: per-connection sequences
			// ascend and a replay starts at acked+1 <= delivered+1.
			// Record it and deliver anyway — wedging the link on a
			// corrupted counter would be worse than a gap.
			w.recordFailure(e.TargetComp, e.TargetTask,
				fmt.Sprintf("sequence gap from worker %d: got %d after %d", e.FromWorker, e.DataSeq, in.delivered))
		}
		in.delivered = e.DataSeq
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
		if in.delivered-in.acked >= uint64(w.AckEvery) {
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
// flowing the other way.
func (w *Worker) deliveredTo(id int) uint64 {
	in := w.inboundFor(id)
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.delivered
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
	if in.c == nil || (!in.needAck && in.delivered <= in.acked) {
		return
	}
	if err := in.c.send(&envelope{Kind: frameAck, WorkerID: w.id, AckSeq: in.delivered}); err != nil {
		return
	}
	in.acked = in.delivered
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

// heartbeatLoop beats on the control plane every HeartbeatInterval so
// the coordinator's lease sees the worker alive even when its tasks
// are idle. A hung worker (Hang) stops beating without any socket
// breaking — exactly the silence the lease timeout exists to catch.
func (w *Worker) heartbeatLoop(coord *conn) {
	if w.HeartbeatInterval <= 0 {
		return
	}
	t := time.NewTicker(w.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if w.hung.Load() {
				continue
			}
			if coord.send(&envelope{Kind: frameHeartbeat, WorkerID: w.id}) != nil {
				return
			}
			w.tel.heartbeats.Inc()
		}
	}
}

// deliverLocal puts a tuple into a hosted mailbox and reports whether
// it was accepted. A tuple for a task that moved away in a rescale
// (framed under a stale epoch, or replayed after a sever) is re-routed
// through the current placement instead of being misdelivered — the
// copy was counted once at its origin, so the forward does not touch
// the sent counter. A genuinely malformed frame or a delivery to a
// closed mailbox compensates the sender's sent counter so termination
// detection stays exact; a bad task index is recorded as a failure
// instead of panicking the read loop.
func (w *Worker) deliverLocal(comp string, task int, t topology.Tuple) bool {
	slots := w.boxes[comp]
	var box *mailbox
	if task >= 0 && task < len(slots) {
		box = slots[task].Load()
	}
	if box == nil {
		if target, ok := w.placement.Load().Lookup(comp, task); ok && target != w.id {
			if w.sendToPeer(target, &envelope{Kind: frameTuple, TargetComp: comp, TargetTask: task, Tuple: t}) == nil {
				return true
			}
		}
		w.recordFailure(comp, task, "tuple for task not hosted here")
		w.executed.Add(1) // compensate sender's count
		w.tel.copiesDone.Inc()
		w.tel.dropped.Inc()
		return false
	}
	if !box.put(t) {
		w.executed.Add(1)
		w.tel.copiesDone.Inc()
		w.tel.dropped.Inc()
		return false
	}
	return true
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
// left for the caller's drop-and-compensate path.
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
		c := p.c
		if err := c.sendBatch(batch); err != nil {
			c.close()
			p.c = nil
			backoff = w.retryPause(p, backoff) // unlocks p.mu
			continue
		}
		p.sentTo = batch[len(batch)-1].DataSeq
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

// dispatch routes one tuple copy to (comp, task), local or remote, and
// reports whether the copy was accepted (for a remote copy: sequenced
// into the peer's resend buffer, which guarantees delivery while the
// run lives). The sent counter is incremented exactly once per copy —
// resends never re-count. A copy refused because the worker is
// shutting down compensates executed so abort termination is still
// reached.
func (w *Worker) dispatch(comp string, task int, t topology.Tuple) bool {
	w.sent.Add(1)
	w.tel.copies.Inc()
	// One atomic load: the epoch-consistency cost on the routing hot
	// path is this pointer read, nothing more.
	target := w.placement.Load().WorkerFor(comp, task)
	if target == w.id {
		return w.deliverLocal(comp, task, t)
	}
	err := w.sendToPeer(target, &envelope{Kind: frameTuple, TargetComp: comp, TargetTask: task, Tuple: t})
	if err != nil {
		w.recordFailure(comp, task, err)
		w.executed.Add(1) // compensate so termination is still reached
		w.tel.copiesDone.Inc()
		w.tel.dropped.Inc()
		return false
	}
	return true
}

// shutdown stops local tasks after the coordinator declared global
// quiescence. Quiescence (sent == executed, twice) implies every
// buffered frame has been delivered and executed, so closing the peer
// slots here can never strand a tuple — at most it discards resend
// copies whose acks were still in flight.
func (w *Worker) shutdown() {
	w.spoutWG.Wait() // spouts are already exhausted at this point
	w.tasksMu.Lock()
	w.stopping = true // no migration may install a task past this point
	w.tasksMu.Unlock()
	w.closeBoxes()
	w.boltWG.Wait()
	w.closePeers()
	w.stopAux()
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

// Counters exposes the worker's transport accounting: copies routed
// into the data plane and copies executed or compensated. They are
// equal exactly when nothing is queued, executing, or in flight.
func (w *Worker) Counters() (sent, executed int64) {
	return w.sent.Load(), w.executed.Load()
}

func (w *Worker) stats() topology.Stats {
	s := topology.Stats{Emitted: make(map[string]int64), Executed: make(map[string]int64)}
	for id := range w.emitted {
		s.Emitted[id] = w.emitted[id].Load()
		s.Executed[id] = w.execCount[id].Load()
	}
	s.SentCopies, s.ExecCopies = w.Counters()
	w.failMu.Lock()
	s.Failures = append(s.Failures, w.failures...)
	w.failMu.Unlock()
	return s
}

// workerCollector routes emissions of one local task across the
// cluster.
type workerCollector struct {
	w    *Worker
	comp string
	task int
}

// Emit implements topology.Collector.
func (c *workerCollector) Emit(v topology.Values) { c.EmitTo(topology.DefaultStream, v) }

// EmitTo implements topology.Collector. Emitted counts delivered
// copies, mirroring the in-process runtime: emissions without a
// subscriber or copies dropped by the transport do not count.
func (c *workerCollector) EmitTo(stream string, v topology.Values) {
	t := topology.Tuple{Stream: stream, Source: c.comp, SourceTask: c.task, Values: v}
	var delivered int64
	for _, e := range c.w.edges[c.comp][stream] {
		for _, task := range topology.TargetTasks(e.grouping, e.fields, v, e.nTasks, &e.rr) {
			if c.w.dispatch(e.target, task, t) {
				delivered++
			}
		}
	}
	c.w.emitted[c.comp].Add(delivered)
	c.w.tel.emit[c.comp].Add(delivered)
}

// EmitDirect implements topology.Collector.
func (c *workerCollector) EmitDirect(stream string, task int, v topology.Values) {
	t := topology.Tuple{Stream: stream, Source: c.comp, SourceTask: c.task, Values: v}
	var delivered int64
	for _, e := range c.w.edges[c.comp][stream] {
		if e.grouping != topology.Direct {
			continue
		}
		if task < 0 || task >= e.nTasks {
			panic(fmt.Sprintf("cluster: EmitDirect task %d out of range for %s (%d tasks)", task, e.target, e.nTasks))
		}
		if c.w.dispatch(e.target, task, t) {
			delivered++
		}
	}
	c.w.emitted[c.comp].Add(delivered)
	c.w.tel.emit[c.comp].Add(delivered)
}
