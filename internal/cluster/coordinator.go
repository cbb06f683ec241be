package cluster

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/topology"
)

// WorkerDied reports that a worker's control plane failed mid-run —
// the process crashed, was killed, partitioned away, or went silent
// past its heartbeat lease. The coordinator aborts the surviving
// workers before returning it, so a caller holding checkpoints can
// re-place the dead worker's tasks and restart from the last
// consistent cut (errors.As to detect).
type WorkerDied struct {
	Worker int
	Err    error
}

func (e *WorkerDied) Error() string {
	return fmt.Sprintf("cluster: worker %d died: %v", e.Worker, e.Err)
}

func (e *WorkerDied) Unwrap() error { return e.Err }

// Coordinator accepts worker registrations, distributes the address
// book, detects global termination and collects the final statistics.
//
// Termination detection uses the classic double-probe argument over
// monotonic counters: when all spouts are exhausted, the global number
// of sent tuple copies equals the global number of executed plus
// dropped copies, and two consecutive probe rounds observe identical
// values, no tuple can be queued, executing, or in flight on any wire.
//
// Failure detection is two-layered. Reactively, each worker connection
// has a dedicated reader goroutine, so a broken control socket surfaces
// immediately as WorkerDied. Proactively, every frame a worker sends —
// probe replies and the periodic heartbeats — refreshes its lease; a
// worker silent longer than LeaseTimeout is declared dead even though
// its sockets are still open, which is how a hung (not crashed)
// process is caught.
type Coordinator struct {
	workers int
	ln      net.Listener

	// ProbeTimeout bounds every probe round (and the final stop/done
	// exchange) per worker connection: a worker that stops answering
	// its control plane fails the run instead of hanging it. The
	// worker's control loop replies from a dedicated goroutine even
	// while its data plane is backpressured, so the default of 30s only
	// trips on a genuinely dead or partitioned worker. Zero disables
	// the bound.
	ProbeTimeout time.Duration

	// LeaseTimeout is the heartbeat suspicion window: a worker whose
	// control plane stays silent — no heartbeat, no probe reply, no
	// frame of any kind — for longer than this is declared dead
	// (WorkerDied) even with its sockets healthy. It should be several
	// multiples of the workers' HeartbeatInterval. Zero disables lease
	// expiry; socket errors and ProbeTimeout still apply.
	LeaseTimeout time.Duration

	// Telemetry, when set, receives the coordinator's rescale series
	// (cluster_rescales_total, cluster_epoch, rescale_duration_seconds).
	Telemetry *telemetry.Registry

	// Elastic rescale. Control requests (Rescale, PlacementInfo) are
	// serviced by the Run goroutine between probe rounds — every
	// control exchange shares the per-link awaitFrame machinery, so
	// they must all run on one goroutine. joinCh carries late workers
	// accepted by acceptJoiners; finished closes when Run returns so
	// requesters never block on a dead loop.
	rescaleCh chan *rescaleReq
	infoCh    chan *infoReq
	joinCh    chan *workerLink
	finished  chan struct{}

	// epoch is the live placement epoch (0 until the first rescale);
	// baseStats folds retired workers' final counters into every later
	// probe sum and the final merge, preserving the global
	// sent == executed + dropped invariant across departures. lastTable mirrors
	// the table the most recent rescale installed. All three are owned
	// by the Run goroutine.
	epoch     uint64
	baseStats topology.Stats
	lastTable map[string][]int
}

// workerLink is the coordinator's per-worker control state: the
// connection, a reader goroutine forwarding protocol replies, and the
// lease clock. readErr is set before inbox closes, so a receiver that
// observes the close also observes the error.
type workerLink struct {
	id       int
	c        *conn
	inbox    chan *envelope
	addr     string       // the worker's data-plane address
	lastBeat atomic.Int64 // unix nanos of the last frame from this worker
	readErr  error
}

// read pumps the connection: every arriving frame refreshes the lease,
// and protocol replies (probe replies, final stats) are forwarded to
// the round-trip logic. The inbox is never closed with frames
// outstanding the coordinator still awaits, because the protocol has
// at most one reply in flight per worker.
func (l *workerLink) read() {
	for {
		e, err := l.c.recv()
		if err != nil {
			l.readErr = err
			close(l.inbox)
			return
		}
		l.lastBeat.Store(time.Now().UnixNano())
		switch e.Kind {
		case frameProbeReply, frameDone, framePaused, frameLoadsReply, frameRescaleReady:
			l.inbox <- e
		}
	}
}

// NewCoordinator listens for the given number of workers on a loopback
// port; Addr reports where.
func NewCoordinator(workers int) (*Coordinator, error) {
	return NewCoordinatorOn("127.0.0.1:0", workers)
}

// NewCoordinatorOn listens on an explicit address — an externally
// routable "host:port" for multi-host deployments.
func NewCoordinatorOn(addr string, workers int) (*Coordinator, error) {
	if workers < 1 {
		return nil, fmt.Errorf("cluster: coordinator needs >= 1 worker")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: coordinator listen: %w", err)
	}
	return &Coordinator{
		workers:      workers,
		ln:           ln,
		ProbeTimeout: 30 * time.Second,
		LeaseTimeout: 10 * time.Second,
		rescaleCh:    make(chan *rescaleReq),
		infoCh:       make(chan *infoReq),
		joinCh:       make(chan *workerLink, 8),
		finished:     make(chan struct{}),
	}, nil
}

// Addr is the coordinator's control address for workers to dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Run orchestrates one topology execution and returns the merged
// statistics. It blocks until the cluster has terminated.
func (c *Coordinator) Run() (topology.Stats, error) {
	defer c.ln.Close()
	defer func() {
		// Wake any Rescale/PlacementInfo callers and shed queued
		// joiners — the run is over.
		close(c.finished)
		for {
			select {
			case j := <-c.joinCh:
				j.c.close()
			default:
				return
			}
		}
	}()
	links := make(map[int]*workerLink, c.workers)
	addresses := make(map[int]string, c.workers)
	for len(links) < c.workers {
		raw, err := c.ln.Accept()
		if err != nil {
			return topology.Stats{}, fmt.Errorf("cluster: accept: %w", err)
		}
		cn := newConn(raw)
		hello, err := cn.recv()
		if err != nil || hello.Kind != frameHello {
			cn.close()
			return topology.Stats{}, fmt.Errorf("cluster: bad hello: %v", err)
		}
		if hello.Joining {
			// An elastic joiner racing the initial handshake must not
			// steal an initial worker's slot: queue it for the first
			// rescale like any other late joiner.
			l := &workerLink{id: hello.WorkerID, c: cn, inbox: make(chan *envelope, 4), addr: hello.DataAddr}
			l.lastBeat.Store(time.Now().UnixNano())
			select {
			case c.joinCh <- l:
			default:
				cn.close()
			}
			continue
		}
		if _, dup := links[hello.WorkerID]; dup {
			cn.close()
			return topology.Stats{}, fmt.Errorf("cluster: duplicate worker id %d", hello.WorkerID)
		}
		l := &workerLink{id: hello.WorkerID, c: cn, inbox: make(chan *envelope, 4), addr: hello.DataAddr}
		l.lastBeat.Store(time.Now().UnixNano())
		links[hello.WorkerID] = l
		addresses[hello.WorkerID] = hello.DataAddr
	}
	defer func() {
		for _, l := range links {
			l.c.close()
		}
	}()
	for _, l := range links {
		go l.read()
	}
	go c.acceptJoiners()

	for id, l := range links {
		if err := c.sendCtl(l, &envelope{Kind: frameStart, Addresses: addresses}); err != nil {
			wd := &WorkerDied{Worker: id, Err: err}
			c.abortSurvivors(links, wd)
			return topology.Stats{}, wd
		}
	}

	// Probe until two consecutive identical quiescent snapshots,
	// servicing queued control requests (rescale, placement queries)
	// between rounds — all control exchanges share awaitFrame, so they
	// are serialized on this goroutine.
	var prev int64 = -1
	for seq := 0; ; seq++ {
	service:
		for {
			select {
			case req := <-c.rescaleCh:
				err, fatal := c.doRescale(req.n, links, addresses)
				req.err = err
				close(req.done)
				if fatal {
					c.abortSurvivors(links, err)
					return topology.Stats{}, err
				}
				prev = -1 // the counter base moved
			case req := <-c.infoCh:
				loads, err := c.collectLoads(links)
				if err == nil {
					req.table, req.err = tableFromLoads(loads)
				} else {
					req.err = err
				}
				req.epoch = c.epoch
				close(req.done)
				var wd *WorkerDied
				if errors.As(req.err, &wd) {
					c.abortSurvivors(links, req.err)
					return topology.Stats{}, req.err
				}
			default:
				break service
			}
		}
		sent, settled, done, err := c.probe(links, seq)
		if err != nil {
			c.abortSurvivors(links, err)
			return topology.Stats{}, err
		}
		if done && sent == settled && sent == prev {
			break
		}
		prev = sent
		if !done || sent != settled {
			prev = -1 // only count quiescent snapshots
			time.Sleep(time.Millisecond)
		}
	}

	// Stop everyone and merge their statistics, starting from the
	// folded base of any workers retired by earlier rescales.
	var merged topology.Stats
	addStats(&merged, c.baseStats)
	ids := make([]int, 0, len(links))
	for id := range links {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := c.sendCtl(links[id], &envelope{Kind: frameStop}); err != nil {
			wd := &WorkerDied{Worker: id, Err: err}
			c.abortSurvivors(links, wd)
			return merged, wd
		}
	}
	for _, id := range ids {
		done, err := c.awaitFrame(links[id], frameDone)
		if err != nil {
			wd := &WorkerDied{Worker: id, Err: err}
			c.abortSurvivors(links, wd)
			return merged, wd
		}
		addStats(&merged, done.Stats)
	}
	return merged, nil
}

// addStats folds one worker's final statistics into an aggregate.
func addStats(dst *topology.Stats, s topology.Stats) {
	if dst.Emitted == nil {
		dst.Emitted = make(map[string]int64)
		dst.Executed = make(map[string]int64)
	}
	for comp, n := range s.Emitted {
		dst.Emitted[comp] += n
	}
	for comp, n := range s.Executed {
		dst.Executed[comp] += n
	}
	dst.SentCopies += s.SentCopies
	dst.ExecCopies += s.ExecCopies
	dst.DroppedCopies += s.DroppedCopies
	dst.Failures = append(dst.Failures, s.Failures...)
}

// sendCtl writes one control frame under a write-only deadline (the
// read side belongs to the link's reader goroutine and must not be
// poisoned by a read deadline).
func (c *Coordinator) sendCtl(l *workerLink, e *envelope) error {
	if c.ProbeTimeout > 0 {
		l.c.setWriteDeadline(time.Now().Add(c.ProbeTimeout))
		defer l.c.setWriteDeadline(time.Time{})
	}
	return l.c.send(e)
}

// abortSurvivors tells every worker except the one named by a
// WorkerDied error (when err is one) to abandon the run, best-effort:
// survivors must not hang in the quiescence protocol waiting for
// tuples a dead peer will never deliver.
func (c *Coordinator) abortSurvivors(links map[int]*workerLink, err error) {
	dead := -1
	var wd *WorkerDied
	if errors.As(err, &wd) {
		dead = wd.Worker
	}
	for id, l := range links {
		if id == dead {
			continue
		}
		_ = c.sendCtl(l, &envelope{Kind: frameAbort})
	}
}

// probe runs one probe round, summing the workers' copy ledgers: sent,
// and settled (executed plus dropped). Retired workers keep counting
// via the folded base, so the global identity sent == settled holds
// across departures. A send failure, reader error, probe timeout or
// lease expiry is attributed to the worker whose control plane faulted
// and surfaces as *WorkerDied.
func (c *Coordinator) probe(links map[int]*workerLink, seq int) (sent, settled int64, done bool, err error) {
	done = true
	sent = c.baseStats.SentCopies
	settled = c.baseStats.ExecCopies + c.baseStats.DroppedCopies
	for id, l := range links {
		if err := c.sendCtl(l, &envelope{Kind: frameProbe, Seq: seq}); err != nil {
			return 0, 0, false, &WorkerDied{Worker: id, Err: err}
		}
	}
	for id, l := range links {
		reply, err := c.awaitFrame(l, frameProbeReply)
		if err != nil {
			return 0, 0, false, &WorkerDied{Worker: id, Err: err}
		}
		sent += reply.Sent
		settled += reply.Executed + reply.Dropped
		if !reply.SpoutsDone {
			done = false
		}
	}
	return sent, settled, done, nil
}

// awaitFrame waits for the next frame of the expected kind from one
// worker, bounded by ProbeTimeout and, independently, by the worker's
// heartbeat lease — so a hung worker that swallows probes without its
// socket breaking still fails fast, at lease granularity rather than
// the full probe timeout.
func (c *Coordinator) awaitFrame(l *workerLink, kind frameKind) (*envelope, error) {
	var timeout <-chan time.Time
	if c.ProbeTimeout > 0 {
		tm := time.NewTimer(c.ProbeTimeout)
		defer tm.Stop()
		timeout = tm.C
	}
	tick := time.NewTicker(c.leaseTick())
	defer tick.Stop()
	for {
		select {
		case e, ok := <-l.inbox:
			if !ok {
				return nil, fmt.Errorf("cluster: await %d: %w", kind, l.readErr)
			}
			if e.Kind == kind {
				return e, nil
			}
		case <-tick.C:
			if c.LeaseTimeout > 0 {
				silent := time.Since(time.Unix(0, l.lastBeat.Load()))
				if silent > c.LeaseTimeout {
					return nil, fmt.Errorf("cluster: lease expired: silent for %v (> %v) without a heartbeat", silent.Round(time.Millisecond), c.LeaseTimeout)
				}
			}
		case <-timeout:
			return nil, fmt.Errorf("cluster: timeout after %v awaiting frame %d", c.ProbeTimeout, kind)
		}
	}
}

// leaseTick is how often awaitFrame re-checks the lease clock.
func (c *Coordinator) leaseTick() time.Duration {
	if c.LeaseTimeout <= 0 {
		return time.Hour // effectively never; the select still works
	}
	d := c.LeaseTimeout / 4
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// Run executes a topology across n in-process workers communicating
// over TCP loopback — the same plumbing as a multi-process deployment,
// exercised without spawning processes. makeBuilder is invoked once per
// worker, mirroring how each worker process constructs the topology
// from the same code.
func Run(makeBuilder func() *topology.Builder, workers int) (topology.Stats, error) {
	coord, err := NewCoordinator(workers)
	if err != nil {
		return topology.Stats{}, err
	}
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		w, err := NewWorker(i, workers, makeBuilder(), coord.Addr())
		if err != nil {
			return topology.Stats{}, err
		}
		go func() { errs <- w.Run() }()
	}
	stats, err := coord.Run()
	if err != nil {
		return stats, err
	}
	for i := 0; i < workers; i++ {
		if werr := <-errs; werr != nil {
			return stats, werr
		}
	}
	return stats, nil
}
