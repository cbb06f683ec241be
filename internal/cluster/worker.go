package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

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

// taskHandle is the live-control handle of one hosted bolt task: the
// executor's task (a migration snapshots its bolt after the loop
// exits) and a done channel the loop closes on exit. moved tells the
// loop to exit without Cleanup — the operator is relocating, not
// shutting down.
type taskHandle struct {
	*topology.Task
	done  chan struct{}
	moved atomic.Bool
}

// Worker hosts the tasks placed on it and exchanges tuples with its
// peers over TCP. Every worker process (or goroutine in tests)
// constructs the same topology Builder from code; only the tasks the
// placement assigns to this worker are instantiated locally.
type Worker struct {
	id        int
	spec      []topology.ComponentSpec
	coordAddr string

	// x hosts the local tasks: their mailboxes, loops, collectors, the
	// copy ledger and the failure log. The worker plugs its transport
	// in as the executor's deliver seam (dispatch) and its pause and
	// kill handling as the spout gate.
	x *topology.Executor

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

	// tasks holds the handle slots for every bolt task (full
	// parallelism per component, nil when the task is not hosted here).
	// Slots are atomic so a migration can install or evict a task while
	// the read loop races a stale-epoch frame; installs and evictions
	// serialise on tasksMu. stopping, set under tasksMu before
	// boltWG.Wait, keeps a racing migration install from Add-ing to a
	// waited-on WaitGroup.
	tasks    map[string][]atomic.Pointer[taskHandle]
	tasksMu  sync.Mutex
	stopping bool

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

	spoutsLeft atomic.Int64

	boltWG  sync.WaitGroup
	spoutWG sync.WaitGroup

	// tel holds the transport instruments (all nil when telemetry is
	// off).
	tel        transportTel
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
		spec:      spec,
		coordAddr: coordAddr,
		peers:     make(map[int]*peer),
		inbound:   make(map[int]*inbound),
		tasks:     make(map[string][]atomic.Pointer[taskHandle]),
		migIn:     make(map[taskKey][]byte),
		installed: make(map[taskKey]bool),
		stop:      make(chan struct{}),
		tasksUp:   make(chan struct{}),
		frontier:  -1,

		DialTimeout:       2 * time.Second,
		RetryBackoff:      5 * time.Millisecond,
		RetryBackoffMax:   250 * time.Millisecond,
		ResendBuffer:      1024,
		AckInterval:       2 * time.Millisecond,
		AckEvery:          64,
		HeartbeatInterval: 250 * time.Millisecond,
	}
	if w.x, err = topology.NewExecutor(b, id, w.dispatch, w.pausePoint); err != nil {
		return nil, err
	}
	w.pauseCond = sync.NewCond(&w.pauseMu)
	w.migCond = sync.NewCond(&w.migMu)
	// Full-parallelism slot arrays for every bolt component: handles are
	// installed per hosted task at start (and by migrations later), but
	// the arrays themselves never resize — a migration swaps one atomic
	// pointer.
	for _, comp := range spec {
		if !comp.IsSpout {
			w.tasks[comp.ID] = make([]atomic.Pointer[taskHandle], comp.Parallelism)
		}
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

// closeBoxes bars further task installs (a racing migration) and
// closes every installed task mailbox so bolt loops drain out and exit.
func (w *Worker) closeBoxes() {
	w.tasksMu.Lock()
	w.stopping = true
	w.tasksMu.Unlock()
	for _, slots := range w.tasks {
		for i := range slots {
			if h := slots[i].Load(); h != nil {
				h.Box.Close()
			}
		}
	}
}

// stopAux ends the worker's auxiliary goroutines (ack ticker,
// heartbeats); idempotent.
func (w *Worker) stopAux() {
	w.stopOnce.Do(func() { close(w.stop) })
}

// drainTasks waits for the local task goroutines to wind down after a
// kill/abort. Spouts observe the killed flag on their next NextTuple
// and bolts exit once their closed mailboxes drain; peer sends fail
// fast (the closed slots reject frames) and drop the copy, so this
// terminates promptly.
func (w *Worker) drainTasks() {
	w.spoutWG.Wait()
	w.boltWG.Wait()
}

// initTelemetry resolves the worker's transport instruments and
// instruments the executor (task counters, copy ledger, and the
// mailboxes of tasks created from now on). Called once at the start of
// Run; a nil Telemetry leaves everything a no-op.
func (w *Worker) initTelemetry() {
	w.x.Instrument(w.Telemetry)
	if w.Telemetry != nil {
		w.tel = newTransportTel(w.Telemetry, fmt.Sprint(w.id))
	}
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
			}
			reply.Sent, reply.Executed, reply.Dropped = w.x.Ledger()
			if err := coord.send(reply); err != nil {
				return err
			}
		case frameStop:
			w.shutdown()
			return coord.send(&envelope{Kind: frameDone, WorkerID: w.id, Stats: w.x.Stats()})
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
			return coord.send(&envelope{Kind: frameDone, WorkerID: w.id, Stats: w.x.Stats()})
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
	pl := w.placement.Load()
	var run []*taskHandle
	for _, comp := range w.spec {
		if comp.IsSpout {
			continue
		}
		for _, task := range pl.TasksOn(comp.ID, w.id) {
			if h := w.installBolt(comp.ID, task, w.x.NewTask(comp.ID, task)); h != nil {
				run = append(run, h)
			}
		}
	}
	close(w.tasksUp)
	for _, h := range run {
		go w.runBolt(h, nil)
	}
	for _, comp := range w.spec {
		if !comp.IsSpout {
			continue
		}
		for _, task := range pl.TasksOn(comp.ID, w.id) {
			w.spoutsLeft.Add(1)
			w.spoutWG.Add(1)
			go func(comp string, task int) {
				defer w.spoutWG.Done()
				defer w.spoutExited()
				w.x.RunSpout(comp, task)
			}(comp.ID, task)
		}
	}
}

// installBolt installs one bolt task's handle slot; the caller starts
// its loop. Returns nil when the worker is already stopping.
func (w *Worker) installBolt(comp string, task int, t *topology.Task) *taskHandle {
	w.tasksMu.Lock()
	defer w.tasksMu.Unlock()
	if w.stopping {
		return nil
	}
	h := &taskHandle{Task: t, done: make(chan struct{})}
	w.tasks[comp][task].Store(h)
	w.boltWG.Add(1)
	return h
}

// runBolt runs one installed task's loop through the executor. A
// migration install passes the streamed snapshot (possibly empty for a
// stateless bolt), which replaces the Recover pass.
func (w *Worker) runBolt(h *taskHandle, restore []byte) {
	defer w.boltWG.Done()
	defer close(h.done)
	w.x.RunBolt(h.Task, restore, h.moved.Load)
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
// closed mailbox is dropped, so the ledger still balances and
// termination detection stays exact; a bad task index is recorded as a
// failure instead of panicking the read loop.
func (w *Worker) deliverLocal(comp string, task int, t topology.Tuple) bool {
	slots := w.tasks[comp]
	var h *taskHandle
	if task >= 0 && task < len(slots) {
		h = slots[task].Load()
	}
	if h == nil {
		if target, ok := w.placement.Load().Lookup(comp, task); ok && target != w.id {
			if w.sendToPeer(target, &envelope{Kind: frameTuple, TargetComp: comp, TargetTask: task, Tuple: t}) == nil {
				return true
			}
		}
		w.x.Fail(comp, task, "tuple for task not hosted here")
		w.x.Drop(topology.DropUnhosted)
		return false
	}
	if !h.Box.Put(t) {
		w.x.Drop(topology.DropMailboxClosed)
		return false
	}
	return true
}

// dispatch is the executor's deliver seam on a worker: it routes one
// tuple copy to (comp, task), local or remote, and reports whether the
// copy was accepted (for a remote copy: sequenced into the peer's
// resend buffer, which guarantees delivery while the run lives). The
// executor counted the copy sent; resends never re-count. A copy
// refused because the worker is shutting down is dropped so abort
// termination is still reached.
func (w *Worker) dispatch(comp string, task int, t topology.Tuple) bool {
	// One atomic load: the epoch-consistency cost on the routing hot
	// path is this pointer read, nothing more.
	target := w.placement.Load().WorkerFor(comp, task)
	if target == w.id {
		return w.deliverLocal(comp, task, t)
	}
	err := w.sendToPeer(target, &envelope{Kind: frameTuple, TargetComp: comp, TargetTask: task, Tuple: t})
	if err != nil {
		w.x.Fail(comp, task, err)
		w.x.Drop(topology.DropPeerClosed)
		return false
	}
	return true
}

// shutdown stops local tasks after the coordinator declared global
// quiescence. Quiescence (sent == executed + dropped, twice) implies
// every buffered frame has been delivered and executed, so closing the
// peer slots here can never strand a tuple — at most it discards resend
// copies whose acks were still in flight.
func (w *Worker) shutdown() {
	w.spoutWG.Wait() // spouts are already exhausted at this point
	w.closeBoxes()
	w.boltWG.Wait()
	w.closePeers()
	w.stopAux()
}

// Counters exposes the worker's copy ledger: copies routed into the
// data plane, executed, and dropped. sent == executed + dropped exactly
// when nothing is queued, executing, or in flight.
func (w *Worker) Counters() (sent, executed, dropped int64) {
	return w.x.Ledger()
}
