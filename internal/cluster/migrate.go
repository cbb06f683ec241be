package cluster

// Worker-side elastic rescale: spout parking at the window frontier,
// load reporting, live state migration over kind=state frames, and
// peer-link retirement. The safety argument leans on two invariants
// the rest of the runtime already provides: (1) the coordinator only
// broadcasts frameRescale after the pipeline is fully quiescent
// (spouts parked at a frontier, sent == executed twice), so a bolt's
// Snapshotter state is exactly its post-window durable state — the
// same bytes a checkpoint would have written; (2) state chunks ride
// the per-peer resend buffers, so a sever mid-migration replays them
// on the next connection instead of losing half a snapshot.

import (
	"fmt"
	"time"

	"repro/internal/state"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// taskKey identifies one task instance across migration bookkeeping.
type taskKey struct {
	comp string
	task int
}

// pausePoint is the executor's spout gate on a worker, called before
// every NextTuple; false stops the spout once the worker is killed.
// When a pause is requested and the spout sits at a window frontier
// (or has no notion of frontiers), it parks until resumed. Spouts not
// yet at a frontier return immediately and keep pumping — the park
// happens on the first call where the window boundary has been
// reached, so downstream state is exactly post-window when the
// migration snapshots it.
func (w *Worker) pausePoint(s topology.Spout) bool {
	if w.killed.Load() {
		return false
	}
	w.pauseMu.Lock()
	defer w.pauseMu.Unlock()
	if !w.pauseWant {
		return true
	}
	f, windowed := s.(topology.Frontiered)
	if windowed && !f.AtFrontier() {
		return true
	}
	if windowed && f.Frontier() > w.frontier {
		w.frontier = f.Frontier()
	}
	w.parked++
	w.pauseCond.Broadcast()
	for w.pauseWant && !w.killed.Load() {
		w.pauseCond.Wait()
	}
	w.parked--
	return !w.killed.Load()
}

// spoutExited retires one spout from the pause tally: a spout
// exhausting itself while a pause gathers counts as parked, so the
// waiter is woken to re-check.
func (w *Worker) spoutExited() {
	w.spoutsLeft.Add(-1)
	w.pauseMu.Lock()
	w.pauseCond.Broadcast()
	w.pauseMu.Unlock()
}

// requestPause asks every live spout to park at its next frontier and
// blocks until they all have (exhausted spouts count as parked). It
// returns the highest frontier window a parked spout reported.
func (w *Worker) requestPause() int {
	w.pauseMu.Lock()
	defer w.pauseMu.Unlock()
	w.pauseWant = true
	for int64(w.parked) < w.spoutsLeft.Load() && !w.killed.Load() {
		w.pauseCond.Wait()
	}
	return w.frontier
}

// resumeSpouts unparks every spout blocked in pausePoint.
func (w *Worker) resumeSpouts() {
	w.pauseMu.Lock()
	w.pauseWant = false
	w.pauseCond.Broadcast()
	w.pauseMu.Unlock()
}

// taskLoads reports every locally hosted task with its cumulative
// execution count — the live signal the coordinator's planner uses to
// move the fewest, hottest tasks. Spout tasks are pinned (their read
// position cannot be streamed), so they report Movable false.
func (w *Worker) taskLoads() []TaskLoad {
	pl := w.placement.Load()
	var out []TaskLoad
	for _, comp := range w.spec {
		for _, task := range pl.TasksOn(comp.ID, w.id) {
			load := w.x.TaskExecuted(comp.ID, task)
			out = append(out, TaskLoad{Comp: comp.ID, Task: task, Worker: w.id, Load: load, Movable: !comp.IsSpout})
		}
	}
	return out
}

// handleRescale executes one worker's share of a rescale. It runs on
// its own goroutine so the control loop keeps answering heartbeats
// and aborts while snapshots stream.
func (w *Worker) handleRescale(coord *conn, e *envelope) {
	cur := w.placement.Load()
	next, err := cur.Apply(e.Epoch, e.Workers, e.Moves)
	if err != nil {
		// The coordinator computed the moves from the same table this
		// worker routes by, so this cannot happen unless the cluster's
		// state already forked; record it loudly but still answer, so
		// the protocol fails at the coordinator rather than hanging.
		w.x.Fail("rescale", int(e.Epoch), err)
		_ = coord.send(&envelope{Kind: frameRescaleReady, WorkerID: w.id})
		return
	}
	// Fresh address book first — outbound migrations may target workers
	// this worker has never dialled — then the epoch swap. The routing
	// hot path reads the new table with its usual single atomic load.
	addrs := make(map[int]string, len(e.Addresses))
	for id, a := range e.Addresses {
		addrs[id] = a
	}
	w.addrs.Store(&addrs)
	w.placement.Store(next)

	var expect []taskKey
	for _, m := range e.Moves {
		switch {
		case m.From == w.id:
			if err := w.migrateOut(m, e.Epoch, e.Window); err != nil {
				w.x.Fail(m.Comp, m.Task, err)
			}
		case m.To == w.id:
			expect = append(expect, taskKey{m.Comp, m.Task})
		}
	}

	// Wait for every inbound task to be streamed in and installed.
	w.migMu.Lock()
	for !w.killed.Load() {
		ready := true
		for _, k := range expect {
			if !w.installed[k] {
				ready = false
				break
			}
		}
		if ready {
			break
		}
		w.migCond.Wait()
	}
	for _, k := range expect {
		delete(w.installed, k)
	}
	w.migMu.Unlock()

	// Drain the resend buffers: every streamed chunk (and any straggler
	// tuple frame) must be acknowledged before the coordinator may
	// retire links — a departing worker's buffers must be empty when it
	// exits, and a survivor must not still owe a departing peer frames.
	for !w.killed.Load() && w.UnackedFrames() > 0 {
		time.Sleep(time.Millisecond)
	}
	_ = coord.send(&envelope{Kind: frameRescaleReady, WorkerID: w.id})
}

// migrateOut stops one local task, snapshots it, and streams the
// snapshot to its new home in sequenced kind=state chunks. The bolt
// loop exits without Cleanup — the operator is not shutting down, it
// is moving — and Recover is never replayed on the receiving side.
func (w *Worker) migrateOut(m Move, epoch uint64, window int) error {
	w.tasksMu.Lock()
	var h *taskHandle
	if hs := w.tasks[m.Comp]; m.Task >= 0 && m.Task < len(hs) {
		h = hs[m.Task].Swap(nil)
	}
	w.tasksMu.Unlock()
	if h == nil {
		return fmt.Errorf("cluster: move %s: task not hosted here", m)
	}

	h.moved.Store(true)
	h.Box.Close()
	<-h.done // the loop drains any buffered tuples, then exits sans Cleanup

	var env []byte
	if s, ok := h.Bolt.(state.Snapshotter); ok {
		var err error
		if env, err = state.Encode(m.Comp, s); err != nil {
			return err
		}
	}
	off := 0
	for {
		end := off + migrationChunk
		if end > len(env) {
			end = len(env)
		}
		last := end == len(env)
		err := w.sendToPeer(m.To, &envelope{
			Kind: frameState, TargetComp: m.Comp, TargetTask: m.Task,
			Epoch: epoch, Window: window, StateData: env[off:end], StateLast: last,
		})
		if err != nil {
			return err
		}
		if last {
			break
		}
		off = end
	}
	w.tel.migOut.Inc()
	w.tel.migOutBytes.Add(int64(len(env)))
	return nil
}

// acceptStateChunk assembles inbound kind=state chunks (called from
// the read loop under the sender's dedup cursor, so replayed chunks
// never reach it twice) and installs the task when the last chunk
// lands.
func (w *Worker) acceptStateChunk(e *envelope) {
	k := taskKey{e.TargetComp, e.TargetTask}
	w.migMu.Lock()
	buf := append(w.migIn[k], e.StateData...)
	if !e.StateLast {
		w.migIn[k] = buf
		w.migMu.Unlock()
		return
	}
	delete(w.migIn, k)
	w.migMu.Unlock()

	w.installTask(e.TargetComp, e.TargetTask, buf)
	w.tel.migIn.Inc()
	w.tel.migInBytes.Add(int64(len(buf)))

	w.migMu.Lock()
	w.installed[k] = true
	w.migCond.Broadcast()
	w.migMu.Unlock()
}

// installTask builds a fresh bolt instance for a migrated task,
// installs its mailbox, and starts its loop with the streamed
// snapshot as restore payload. A non-nil (possibly empty) payload
// marks the migration path: Prepare runs, Restore replaces Recover —
// nothing crashed, so re-emitting recovery state would duplicate it.
func (w *Worker) installTask(comp string, task int, snapshot []byte) {
	t := w.x.NewTask(comp, task)
	if t == nil {
		w.x.Fail(comp, task, "migration for unknown task")
		return
	}
	if snapshot == nil {
		snapshot = []byte{}
	}
	h := w.installBolt(comp, task, t)
	if h == nil {
		w.x.Fail(comp, task, "migration raced shutdown")
		return
	}
	go w.runBolt(h, snapshot)
}

// retirePeers tears down the outbound links, receive-side cursors,
// address-book entries and telemetry series of departed workers —
// the per-peer series would otherwise linger forever (the leak the
// elastic-rescale issue calls out).
func (w *Worker) retirePeers(departed []int) {
	if len(departed) == 0 {
		return
	}
	cur := *w.addrs.Load()
	addrs := make(map[int]string, len(cur))
	for id, a := range cur {
		addrs[id] = a
	}
	for _, id := range departed {
		delete(addrs, id)
	}
	w.addrs.Store(&addrs)

	w.peersMu.Lock()
	for _, id := range departed {
		if p := w.peers[id]; p != nil {
			p.close()
			delete(w.peers, id)
		}
	}
	w.peersMu.Unlock()

	w.inboundMu.Lock()
	for _, id := range departed {
		delete(w.inbound, id)
	}
	w.inboundMu.Unlock()

	if reg := w.Telemetry; reg != nil {
		id := fmt.Sprint(w.id)
		names := make([]string, 0, len(departed))
		for _, d := range departed {
			names = append(names, telemetry.Name("cluster_peer_backoff_seconds", "worker", id, "peer", fmt.Sprint(d)))
		}
		reg.Drop(names...)
	}
}

// dropOwnPeerSeries retires a departing worker's own per-peer gauges
// before it exits; its peers drop their mirror series in retirePeers.
func (w *Worker) dropOwnPeerSeries() {
	reg := w.Telemetry
	if reg == nil {
		return
	}
	id := fmt.Sprint(w.id)
	w.peersMu.Lock()
	names := make([]string, 0, len(w.peers))
	for pid := range w.peers {
		names = append(names, telemetry.Name("cluster_peer_backoff_seconds", "worker", id, "peer", fmt.Sprint(pid)))
	}
	w.peersMu.Unlock()
	reg.Drop(names...)
}
