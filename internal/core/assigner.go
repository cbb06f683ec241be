package core

import (
	"fmt"

	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/symbol"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// assignerBolt is the Assigner of Fig. 2: a dispatcher that forwards
// documents to the Joiner tasks according to the current partition
// table (direct grouping), broadcasts documents with uncovered pairs to
// every Joiner to guarantee join completeness, requests δ-gated
// partition updates from the Merger, and triggers θ repartitioning when
// the routing quality degrades (Sec. VI-A).
type assignerBolt struct {
	cfg  Config
	task int

	table   *partition.Table
	spec    *expansion.Expansion
	version int

	// generation is the version of the last adopted table that came out
	// of a full computation (the initial one or a θ recomputation); the
	// additive δ tables that follow extend it.
	generation int

	// unseen counts occurrences of uncovered pairs at this task; the
	// document that makes a pair reach δ becomes an update request.
	// Keyed by symbol in memory, by strings in snapshots.
	unseen map[symbol.Pair]int

	scratch partition.RouteScratch
	all     []int // every joiner: the broadcast target list, never written

	// Per-window routing statistics (this task's share).
	window        int
	documents     int
	deliveries    int
	perJoiner     []int
	broadcasts    int
	updates       int
	repartitioned bool
	// genLow/genHigh span the table generations this window's documents
	// were routed under (meaningful while documents > 0).
	genLow, genHigh int

	// Quality baseline, established on the first completed window
	// after a recomputed table (Sec. VI-A).
	baselineSet  bool
	baselineRepl float64
	baselineGini float64
	awaitingBase bool

	// Deployment barrier. The paper computes partitions upfront and
	// deploys them before the next window is routed; an in-process run
	// streams far faster than the merger round-trip, so after every
	// computation window the assigner buffers documents and window
	// punctuation until the resulting table arrives, preserving the
	// paper's deployment order.
	//
	// pendingRepart is the set of windows whose punctuation must engage
	// the barrier (a repartition was requested at the end of the
	// preceding window). It is a set, not a single high-water mark: two
	// θ verdicts in consecutive windows each schedule their own
	// computation window, and a later verdict must not swallow an
	// earlier window's still-pending barrier.
	waiting       bool
	waitWindow    int
	buffered      []topology.Tuple
	pendingRepart map[int]bool

	// lastDecision is the verdict emitted for the most recently
	// finished window, kept for the recovery re-emission (see Recover).
	lastDecision decisionMsg

	cp         *checkpointer
	numJoiners int

	// Live instruments (nil-safe no-ops when cfg.Telemetry is off):
	// routing counters plus the per-window replication and Gini gauges
	// computed at every window close.
	tel struct {
		documents   *telemetry.Counter
		deliveries  *telemetry.Counter
		broadcasts  *telemetry.Counter
		updates     *telemetry.Counter
		reparts     *telemetry.Counter
		replication *telemetry.Gauge
		gini        *telemetry.Gauge
	}
}

func newAssignerBolt(cfg Config, task int) *assignerBolt {
	b := &assignerBolt{
		cfg:           cfg,
		task:          task,
		unseen:        make(map[symbol.Pair]int),
		pendingRepart: make(map[int]bool),
		lastDecision:  decisionMsg{Window: -1, Task: task},
		cp:            newCheckpointer(cfg, "assigner", task),
	}
	if reg := cfg.Telemetry; reg != nil {
		id := fmt.Sprint(task)
		b.tel.documents = reg.Counter(telemetry.Name("partition_documents_total", "task", id))
		b.tel.deliveries = reg.Counter(telemetry.Name("partition_deliveries_total", "task", id))
		b.tel.broadcasts = reg.Counter(telemetry.Name("partition_broadcasts_total", "task", id))
		b.tel.updates = reg.Counter(telemetry.Name("partition_update_requests_total", "task", id))
		b.tel.reparts = reg.Counter(telemetry.Name("partition_repartition_triggers_total", "task", id))
		b.tel.replication = reg.Gauge(telemetry.Name("partition_window_replication", "task", id))
		b.tel.gini = reg.Gauge(telemetry.Name("partition_window_gini", "task", id))
	}
	return b
}

// Prepare implements topology.Bolt.
func (b *assignerBolt) Prepare(ctx *topology.TaskContext) {
	b.numJoiners = ctx.NumTasksOf("joiner")
	if b.numJoiners == 0 {
		b.numJoiners = b.cfg.M
	}
	b.perJoiner = make([]int, b.numJoiners)
	b.all = make([]int, b.numJoiners)
	for i := range b.all {
		b.all[i] = i
	}
	b.cp.restore(b)
}

// Recover implements topology.Recoverer: the verdict for the cut
// window was emitted just before the snapshot and may have died in
// flight with the crashed attempt, yet the creators cannot close the
// next window without every assigner's verdict — so a restored
// assigner re-emits it. Creators deduplicate verdicts by task, and the
// merger's resched high-water mark ignores verdicts it already
// relayed, so the re-emission is idempotent.
func (b *assignerBolt) Recover(c topology.Collector) {
	if b.lastDecision.Window < 0 {
		return
	}
	c.EmitTo(streamRepartition, topology.Values{"msg": b.lastDecision})
}

// Cleanup implements topology.Bolt.
func (b *assignerBolt) Cleanup() {}

// Execute implements topology.Bolt.
func (b *assignerBolt) Execute(t topology.Tuple, c topology.Collector) {
	switch t.Stream {
	case streamDocs, streamWindowEnd:
		if b.waiting {
			b.buffered = append(b.buffered, t)
			return
		}
		b.handleStreamTuple(t, c)
	case streamTable:
		b.adoptTable(t.Values["msg"].(tableMsg), c)
	case streamResched:
		// The merger relayed a repartition verdict issued at window w;
		// the creators compute at the end of window w+1, so the
		// barrier engages after that window's punctuation.
		msg := t.Values["msg"].(decisionMsg)
		b.pendingRepart[msg.Window+1] = true
	}
}

func (b *assignerBolt) handleStreamTuple(t topology.Tuple, c topology.Collector) {
	switch t.Stream {
	case streamDocs:
		b.window = t.Values["window"].(int)
		b.route(t.Values["doc"].(document.Document), c)
	case streamWindowEnd:
		w := t.Values["window"].(int)
		b.finishWindow(w, c)
		// Engage the deployment barrier after every window whose
		// sample produces a new table: the first window, and any
		// window with a pending repartition request.
		if b.version == 0 || b.pendingRepart[w] {
			b.waiting = true
			b.waitWindow = w
		}
		// The punctuation carries the checkpoint barrier: this task
		// has now fully incorporated window w, snapshot it.
		if _, ok := topology.CheckpointID(t); ok {
			b.cp.save(w, b)
		}
	}
}

// adoptTable switches to a newer partition-table version and releases
// the deployment barrier when the awaited table arrived.
func (b *assignerBolt) adoptTable(msg tableMsg, c topology.Collector) {
	if msg.Version <= b.version {
		return // stale or duplicate broadcast
	}
	if msg.Recomputed || b.version == 0 {
		b.generation = msg.Version
	}
	b.version = msg.Version
	b.table = msg.Table
	b.spec = msg.Expansion
	if msg.Recomputed || !b.baselineSet {
		// A full (re)computation resets the quality baseline.
		b.baselineSet = false
		b.awaitingBase = true
	}
	for sp := range b.unseen {
		if b.table.CoversSym(sp) {
			delete(b.unseen, sp)
		}
	}
	if b.waiting && msg.Window >= b.waitWindow {
		b.waiting = false
		for w := range b.pendingRepart {
			if w <= msg.Window {
				delete(b.pendingRepart, w)
			}
		}
		b.drain(c)
	}
}

// drain replays buffered stream tuples in arrival order; the barrier
// may re-engage mid-drain (another computation window boundary), in
// which case the remainder stays buffered.
func (b *assignerBolt) drain(c topology.Collector) {
	buf := b.buffered
	b.buffered = nil
	for i, t := range buf {
		if b.waiting {
			b.buffered = append(b.buffered, buf[i:]...)
			return
		}
		b.handleStreamTuple(t, c)
	}
}

// route forwards one document to its joiners and handles the dynamics
// around uncovered pairs.
func (b *assignerBolt) route(d document.Document, c topology.Collector) {
	if b.documents == 0 {
		b.genLow = b.generation
	}
	b.genHigh = b.generation // generations only grow
	b.documents++
	targets, broadcast := b.targets(d, c)
	for _, j := range targets {
		b.perJoiner[j]++
		// The full target list travels with the document so that, for
		// any pair of documents replicated to several common joiners,
		// only the lowest-indexed common joiner emits the join result —
		// the exact result is produced exactly once without a global
		// de-duplication stage.
		c.EmitDirect(streamToJoin, j, topology.Values{"doc": d, "window": b.window, "targets": targets})
	}
	b.deliveries += len(targets)
	b.tel.documents.Inc()
	b.tel.deliveries.Add(int64(len(targets)))
	if broadcast {
		b.broadcasts++
		b.tel.broadcasts.Inc()
	}
}

// targets computes the joiner task set for a document: the matching
// partitions when every (transformed) pair is covered, all joiners
// otherwise. Uncovered pairs are counted toward the δ update gate; the
// document whose pair reaches δ is sent to the Merger as an update
// request. The expansion is applied on the fly: the table walks the
// document's own pairs minus the component pairs plus the synthetic
// one, one lookup per pair. Joiners only read the returned list.
func (b *assignerBolt) targets(d document.Document, c topology.Collector) ([]int, bool) {
	if b.cfg.Routing == HashPairsRouting {
		return b.hashTargets(d), false
	}
	if b.table == nil {
		// No partitions yet (start of the stream): conservative
		// broadcast keeps the join complete.
		return b.all, true
	}
	syms := d.InternedPairs()
	drop, synthetic, ok := b.spec.Synthetic(syms)
	if !ok {
		// Missing expansion component: broadcast (Sec. VI-B).
		return b.all, true
	}
	targets := b.table.RouteSyms(&b.scratch, syms, drop, synthetic)
	if len(b.scratch.Uncovered) > 0 {
		hitDelta := false
		for _, sp := range b.scratch.Uncovered {
			n := b.unseen[sp] + 1
			b.unseen[sp] = n
			if n == b.cfg.Delta {
				hitDelta = true
			}
		}
		if hitDelta {
			b.updates++
			b.tel.updates.Inc()
			c.EmitTo(streamUpdate, topology.Values{"msg": updateMsg{Doc: d}})
		}
		return b.all, true
	}
	if targets != nil {
		return targets, false
	}
	return b.all, true
}

// finishWindow emits this task's routing statistics, evaluates the θ
// trigger, punctuates the joiners and resets per-window state.
func (b *assignerBolt) finishWindow(w int, c topology.Collector) {
	repl := 0.0
	gini := 0.0
	if b.documents > 0 {
		repl = float64(b.deliveries) / float64(b.documents)
		gini, _ = metrics.SafeGini(b.perJoiner)
	}
	b.tel.replication.Set(repl)
	b.tel.gini.Set(gini)
	if b.baselineSet && b.documents > 0 {
		// θ trigger: replication grew by more than θ relative to the
		// baseline, or the load balance worsened by more than θ.
		if metrics.RelChange(b.baselineRepl, repl) > b.cfg.Theta ||
			gini-b.baselineGini > b.cfg.Theta {
			b.repartitioned = true
			b.tel.reparts.Inc()
			// Engage the local barrier directly; the merger's relay
			// covers the peer assigners.
			b.pendingRepart[w+1] = true
		}
	} else if b.awaitingBase && b.documents > 0 {
		b.baselineRepl = repl
		b.baselineGini = gini
		b.baselineSet = true
		b.awaitingBase = false
	}
	// Every window produces an explicit verdict: the creators wait for
	// all of them before deciding whether the next window recomputes.
	b.lastDecision = decisionMsg{Window: w, Task: b.task, Repartition: b.repartitioned}
	c.EmitTo(streamRepartition, topology.Values{"msg": b.lastDecision})

	c.EmitTo(streamAssignerStats, topology.Values{"msg": assignerStatsMsg{
		Window:        w,
		Task:          b.task,
		Documents:     b.documents,
		Deliveries:    b.deliveries,
		PerJoiner:     append([]int(nil), b.perJoiner...),
		Broadcasts:    b.broadcasts,
		Updates:       b.updates,
		Repartitioned: b.repartitioned,
		GenLow:        b.genLow,
		GenHigh:       b.genHigh,
		Checkpoint:    b.cp != nil,
	}})
	// The joiner punctuation relays the window's checkpoint barrier
	// downstream, keeping the joiners' snapshots on the same cut.
	jwend := topology.Values{"window": w, "task": b.task}
	if b.cp != nil {
		topology.WithCheckpoint(jwend, w)
	}
	c.EmitTo(streamJoinerWindow, jwend)

	b.documents = 0
	b.deliveries = 0
	for i := range b.perJoiner {
		b.perJoiner[i] = 0
	}
	b.broadcasts = 0
	b.updates = 0
	b.repartitioned = false
}

// hashTargets implements HashPairsRouting: the joiner set is the set of
// pair hashes. Two joinable documents share a pair and therefore a
// hash target — join completeness holds without any partition table or
// table-version coordination.
func (b *assignerBolt) hashTargets(d document.Document) []int {
	set := &b.scratch.Matched
	set.Reset(b.numJoiners)
	for _, p := range d.Pairs() {
		set.Add(pairHash(p) % b.numJoiners)
	}
	return set.List()
}

// pairHash reduces the pair's key hash — FNV-1a over document.Pair.Key,
// the value every process agrees on — to a non-negative int.
func pairHash(p document.Pair) int { return int(p.KeyHash() % (1 << 31)) }
