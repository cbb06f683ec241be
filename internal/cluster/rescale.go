package cluster

// Elastic rescale: the coordinator-side protocol that grows or shrinks
// a live cluster without replaying the source. The timeline is
//
//	joiners  — grow only: wait for the new workers' Joining hellos
//	loads    — every live worker reports its hosted tasks + exec counts
//	plan     — choose departing workers (shrink) and a minimal move set
//	pause    — spouts park at their window frontier (framePause/Paused)
//	quiesce  — probe until sent == executed + dropped twice: nothing in flight
//	welcome  — joiners receive the epoch-stamped table + address book
//	rescale  — frameRescale broadcasts the successor epoch and moves;
//	           workers stream moving tasks' snapshots over kind=state
//	           frames and reply frameRescaleReady when buffers drain
//	retire   — departing workers ship final stats (folded into the
//	           coordinator's base counters) and exit
//	resume   — survivors retire departed peer links and unpark spouts
//
// Everything before pause leaves the cluster untouched, so those
// failures surface as plain errors to the Rescale caller. From pause
// onward a failure is fatal: the run aborts and the caller's recovery
// machinery (checkpoint restore) takes over — the same escalation path
// as a worker death.

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// TaskLoad describes one hosted task in a frameLoadsReply: where it
// lives, how many tuples it has executed there, and whether the
// placement may move it (spouts are pinned to their worker — their
// in-memory read position cannot be streamed).
type TaskLoad struct {
	Comp    string
	Task    int
	Worker  int
	Load    int64
	Movable bool
}

// migrationChunk caps one kind=state frame's payload; a snapshot
// larger than this streams as several sequenced chunks.
const migrationChunk = 256 << 10

type rescaleReq struct {
	n    int
	done chan struct{}
	err  error
}

type infoReq struct {
	done  chan struct{}
	table map[string][]int
	epoch uint64
	err   error
}

// Rescale asks the running cluster to change to n workers. Growing
// requires the extra workers to have dialled in with Joining hellos
// (NewJoiningWorker) before or shortly after the call. The request is
// serviced by the coordinator's control loop between probe rounds;
// the call blocks until the rescale completes or fails. A failure
// before the cluster was touched (bad n, missing joiners, a shrink
// that would evict a spout) leaves the run unharmed; a failure
// mid-protocol aborts the run, surfacing through Coordinator.Run.
func (c *Coordinator) Rescale(n int) error {
	req := &rescaleReq{n: n, done: make(chan struct{})}
	select {
	case c.rescaleCh <- req:
	case <-c.finished:
		return errors.New("cluster: rescale after run finished")
	}
	select {
	case <-req.done:
		return req.err
	case <-c.finished:
		select {
		case <-req.done:
			return req.err
		default:
			return errors.New("cluster: run finished during rescale")
		}
	}
}

// PlacementInfo reports the live placement table and its epoch,
// assembled from a loads round against the running workers (the
// coordinator holds no table of its own — the workers are the source
// of truth). Serviced between probe rounds like Rescale.
func (c *Coordinator) PlacementInfo() (map[string][]int, uint64, error) {
	req := &infoReq{done: make(chan struct{})}
	select {
	case c.infoCh <- req:
	case <-c.finished:
		return nil, 0, errors.New("cluster: placement query after run finished")
	}
	select {
	case <-req.done:
		return req.table, req.epoch, req.err
	case <-c.finished:
		select {
		case <-req.done:
			return req.table, req.epoch, req.err
		default:
			return nil, 0, errors.New("cluster: run finished during placement query")
		}
	}
}

// acceptJoiners runs for the life of the listener once the initial
// worker set has registered: late hellos carrying Joining are queued
// for the next rescale; anything else is a stray connection and is
// dropped.
func (c *Coordinator) acceptJoiners() {
	for {
		raw, err := c.ln.Accept()
		if err != nil {
			return // listener closed with the run
		}
		go func() {
			cn := newConn(raw)
			hello, err := cn.recv()
			if err != nil || hello.Kind != frameHello || !hello.Joining {
				cn.close()
				return
			}
			l := &workerLink{id: hello.WorkerID, c: cn, inbox: make(chan *envelope, 4), addr: hello.DataAddr}
			l.lastBeat.Store(time.Now().UnixNano())
			select {
			case c.joinCh <- l:
			case <-c.finished:
				cn.close()
			}
		}()
	}
}

// doRescale runs one rescale against the live links/addresses maps
// (owned by the Run goroutine, mutated in place). fatal reports
// whether the failure happened after the protocol started mutating
// cluster state — the Run loop then aborts the run.
func (c *Coordinator) doRescale(n int, links map[int]*workerLink, addresses map[int]string) (err error, fatal bool) {
	begin := time.Now()
	cur := len(links)
	if n < 1 {
		return fmt.Errorf("cluster: rescale to %d workers", n), false
	}

	// Grow: collect the joining workers' links. They idle (blocked on
	// their handshake recv) until welcomed below.
	var joiners []*workerLink
	closeJoiners := func() {
		for _, j := range joiners {
			j.c.close()
		}
	}
	if n > cur {
		deadline := time.NewTimer(c.joinTimeout())
		defer deadline.Stop()
		for cur+len(joiners) < n {
			select {
			case j := <-c.joinCh:
				if _, dup := links[j.id]; dup {
					closeJoiners()
					return fmt.Errorf("cluster: joining worker reuses live id %d", j.id), false
				}
				joiners = append(joiners, j)
			case <-deadline.C:
				closeJoiners()
				return fmt.Errorf("cluster: rescale to %d: %d joining workers never arrived", n, n-cur-len(joiners)), false
			}
		}
	}

	// Loads round: learn the live table and per-task activity. Hosting
	// cannot change under us (no migration is running), so the table is
	// exact; the load values are a live sample, which is all the
	// planner needs.
	loads, err := c.collectLoads(links)
	if err != nil {
		closeJoiners()
		return err, true
	}
	table, err := tableFromLoads(loads)
	if err != nil {
		closeJoiners()
		return err, true
	}
	pl := PlacementAt(c.epoch, cur, table)

	// Shrink: depart the highest worker ids that host no pinned
	// (spout) task. Validated before anything pauses, so an impossible
	// shrink is a benign error.
	pinned := make(map[int]bool)
	for _, tl := range loads {
		if !tl.Movable {
			pinned[tl.Worker] = true
		}
	}
	departing := make(map[int]bool)
	if n < cur {
		ids := make([]int, 0, len(links))
		for id := range links {
			ids = append(ids, id)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(ids)))
		for _, id := range ids {
			if len(departing) == cur-n {
				break
			}
			if !pinned[id] {
				departing[id] = true
			}
		}
		if len(departing) < cur-n {
			closeJoiners()
			return fmt.Errorf("cluster: cannot shrink to %d: only %d of %d workers are free of pinned spout tasks",
				n, cur-len(pinned), cur), false
		}
	}

	// Plan the migration and the successor placement.
	targets := make([]int, 0, n)
	for id := range links {
		if !departing[id] {
			targets = append(targets, id)
		}
	}
	for _, j := range joiners {
		targets = append(targets, j.id)
	}
	sort.Ints(targets)
	moves := PlanMoves(loads, departing, targets)
	next, err := pl.Apply(c.epoch+1, n, moves)
	if err != nil {
		closeJoiners()
		return err, false
	}

	// ---- Point of no return: the cluster is now being reshaped. ----

	// Park every spout at its window frontier, then drain the pipeline.
	for id, l := range links {
		if err := c.sendCtl(l, &envelope{Kind: framePause}); err != nil {
			return &WorkerDied{Worker: id, Err: err}, true
		}
	}
	frontier := -1
	for id, l := range links {
		rep, err := c.awaitFrame(l, framePaused)
		if err != nil {
			return &WorkerDied{Worker: id, Err: err}, true
		}
		if rep.Window > frontier {
			frontier = rep.Window
		}
	}
	if err := c.quiesce(links); err != nil {
		return err, true
	}

	// Welcome the joiners: they cannot derive the current table from
	// (spec, workers) — earlier rescales may have reshaped it — so the
	// epoch-stamped table travels with the address book.
	for _, j := range joiners {
		links[j.id] = j
		addresses[j.id] = j.addr
	}
	addrCopy := make(map[int]string, len(addresses))
	for id, a := range addresses {
		addrCopy[id] = a
	}
	for _, j := range joiners {
		go j.read()
		if err := c.sendCtl(j, &envelope{Kind: frameStart, Addresses: addrCopy, Table: table, Epoch: c.epoch, Workers: cur}); err != nil {
			return &WorkerDied{Worker: j.id, Err: err}, true
		}
	}

	// Broadcast the rescale; workers migrate and reply ready once every
	// streamed chunk is acknowledged and every expected task installed.
	departList := make([]int, 0, len(departing))
	for id := range departing {
		departList = append(departList, id)
	}
	sort.Ints(departList)
	for id, l := range links {
		e := &envelope{Kind: frameRescale, Epoch: c.epoch + 1, Workers: n,
			Moves: moves, Departing: departList, Addresses: addrCopy, Window: frontier}
		if err := c.sendCtl(l, e); err != nil {
			return &WorkerDied{Worker: id, Err: err}, true
		}
	}
	for id, l := range links {
		if _, err := c.awaitFrame(l, frameRescaleReady); err != nil {
			return &WorkerDied{Worker: id, Err: err}, true
		}
	}

	// Retire the departing workers, folding their final monotonic
	// counters into the coordinator's base: the global sent == executed
	// + dropped probe invariant must keep seeing their contribution (a
	// worker's own ledger need not balance — only the global sums do),
	// and their component stats belong in the final merge.
	for _, id := range departList {
		l := links[id]
		if err := c.sendCtl(l, &envelope{Kind: frameRetire}); err != nil {
			return &WorkerDied{Worker: id, Err: err}, true
		}
		done, err := c.awaitFrame(l, frameDone)
		if err != nil {
			return &WorkerDied{Worker: id, Err: err}, true
		}
		addStats(&c.baseStats, done.Stats)
		l.c.close()
		delete(links, id)
		delete(addresses, id)
	}

	// Resume the survivors: retire departed peer links (and their
	// telemetry series), unpark the spouts under the new epoch.
	for id, l := range links {
		if err := c.sendCtl(l, &envelope{Kind: frameResume, Departing: departList}); err != nil {
			return &WorkerDied{Worker: id, Err: err}, true
		}
	}

	c.epoch++
	c.lastTable = next.Table()
	if c.Telemetry != nil {
		c.Telemetry.Counter("cluster_rescales_total").Inc()
		c.Telemetry.Gauge("cluster_epoch").Set(float64(c.epoch))
		c.Telemetry.Gauge("rescale_duration_seconds").Set(time.Since(begin).Seconds())
	}
	return nil, false
}

// quiesce probes until two consecutive identical snapshots with
// sent == executed + dropped, ignoring SpoutsDone: the spouts are parked, not
// exhausted. Afterwards nothing is queued, executing, or in flight.
func (c *Coordinator) quiesce(links map[int]*workerLink) error {
	var prev int64 = -1
	for seq := 1 << 20; ; seq++ {
		sent, settled, _, err := c.probe(links, seq)
		if err != nil {
			return err
		}
		if sent == settled && sent == prev {
			return nil
		}
		prev = sent
		if sent != settled {
			prev = -1
			time.Sleep(time.Millisecond)
		}
	}
}

// collectLoads runs one loads round: every live worker reports its
// hosted tasks with their execution counts and movability.
func (c *Coordinator) collectLoads(links map[int]*workerLink) ([]TaskLoad, error) {
	for id, l := range links {
		if err := c.sendCtl(l, &envelope{Kind: frameLoads}); err != nil {
			return nil, &WorkerDied{Worker: id, Err: err}
		}
	}
	var all []TaskLoad
	for id, l := range links {
		rep, err := c.awaitFrame(l, frameLoadsReply)
		if err != nil {
			return nil, &WorkerDied{Worker: id, Err: err}
		}
		all = append(all, rep.Loads...)
	}
	return all, nil
}

// tableFromLoads reassembles the full placement table from the union
// of per-worker hosting reports; every task must be hosted exactly
// once or the cluster's routing state has already forked.
func tableFromLoads(loads []TaskLoad) (map[string][]int, error) {
	size := make(map[string]int)
	for _, tl := range loads {
		if tl.Task < 0 {
			return nil, fmt.Errorf("cluster: negative task index in loads report: %s[%d]", tl.Comp, tl.Task)
		}
		if tl.Task+1 > size[tl.Comp] {
			size[tl.Comp] = tl.Task + 1
		}
	}
	table := make(map[string][]int, len(size))
	for comp, sz := range size {
		assign := make([]int, sz)
		for i := range assign {
			assign[i] = -1
		}
		table[comp] = assign
	}
	for _, tl := range loads {
		if table[tl.Comp][tl.Task] != -1 {
			return nil, fmt.Errorf("cluster: task %s[%d] reported by two workers", tl.Comp, tl.Task)
		}
		table[tl.Comp][tl.Task] = tl.Worker
	}
	for comp, assign := range table {
		for task, w := range assign {
			if w == -1 {
				return nil, fmt.Errorf("cluster: task %s[%d] hosted nowhere", comp, task)
			}
		}
	}
	return table, nil
}

// PlanMoves computes the migration set for a rescale: every movable
// task on a departing worker is forced off (hottest first, onto the
// least-loaded target), then a single hottest-first rebalance pass
// moves a task only when its new home stays strictly below its old
// home's load — so the plan moves the fewest, hottest tasks rather
// than reshuffling everything. Each task weighs its executed-tuple
// count plus one, so plain task-count balancing emerges when the
// counters are cold (a rescale before any data flowed). The result is
// deterministic: ties break on component name, then task index.
func PlanMoves(loads []TaskLoad, departing map[int]bool, targets []int) []Move {
	weight := func(tl TaskLoad) int64 { return tl.Load + 1 }
	cur := make(map[int]int64, len(targets))
	for _, id := range targets {
		cur[id] = 0
	}
	var forced, movable []TaskLoad
	for _, tl := range loads {
		if departing[tl.Worker] {
			forced = append(forced, tl)
			continue
		}
		cur[tl.Worker] += weight(tl)
		if tl.Movable {
			movable = append(movable, tl)
		}
	}
	byHeat := func(s []TaskLoad) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].Load != s[j].Load {
				return s[i].Load > s[j].Load
			}
			if s[i].Comp != s[j].Comp {
				return s[i].Comp < s[j].Comp
			}
			return s[i].Task < s[j].Task
		})
	}
	byHeat(forced)
	byHeat(movable)
	coldest := func() int {
		best, bestLoad := -1, int64(0)
		for _, id := range targets {
			if best == -1 || cur[id] < bestLoad {
				best, bestLoad = id, cur[id]
			}
		}
		return best
	}
	var moves []Move
	for _, tl := range forced {
		to := coldest()
		moves = append(moves, Move{Comp: tl.Comp, Task: tl.Task, From: tl.Worker, To: to})
		cur[to] += weight(tl)
	}
	for _, tl := range movable {
		to := coldest()
		if to == tl.Worker {
			continue
		}
		w := weight(tl)
		if cur[to]+w >= cur[tl.Worker] {
			continue // moving it would not narrow the spread
		}
		moves = append(moves, Move{Comp: tl.Comp, Task: tl.Task, From: tl.Worker, To: to})
		cur[tl.Worker] -= w
		cur[to] += w
	}
	return moves
}

// joinTimeout bounds how long a grow waits for its joining workers.
func (c *Coordinator) joinTimeout() time.Duration {
	if c.ProbeTimeout > 0 {
		return c.ProbeTimeout
	}
	return 30 * time.Second
}
