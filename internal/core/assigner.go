package core

import (
	"fmt"
	"time"

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
// every Joiner to guarantee join completeness, collects δ-gated
// partition update requests and evaluates the θ repartitioning trigger
// (Sec. VI-A). Both travel to the Merger in one verdict per window, and
// the Merger's answer — control(w) — is adopted at punctuation w, before
// any document of window w+1 is routed.
type assignerBolt struct {
	cfg  Config
	task int

	table   *partition.Table
	spec    *expansion.Expansion
	version int

	// generation is the version of the last adopted table that came out
	// of a full computation (the initial one or a θ recomputation); the
	// additive δ tables that follow extend it. Every assigner adopts the
	// same control message at the same punctuation, so a window is
	// routed under one generation by construction; genLow/genHigh below
	// assert it.
	generation int

	// unseen counts occurrences of uncovered pairs at this task; the
	// document that makes a pair reach δ becomes an update request.
	// Keyed by symbol in memory, by strings in snapshots.
	unseen map[symbol.Pair]int

	scratch partition.RouteScratch
	all     []int // every joiner: the broadcast target list, never written

	// Per-window routing statistics (this task's share). updates holds
	// the documents that made an uncovered pair reach δ, in routing
	// order; they ride the window's verdict.
	window        int
	documents     int
	deliveries    int
	perJoiner     []int
	broadcasts    int
	updates       []document.Document
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

	// Lock-step barrier. The paper computes partitions upfront and
	// deploys them before the next window is routed. At every window
	// punctuation the assigner sends its verdict and buffers stream
	// tuples until the merger's control message for that window
	// arrives; waitStart times the wait.
	waiting    bool
	waitWindow int
	waitStart  time.Time
	buffered   []topology.Tuple

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
		barrierWait *telemetry.Histogram
	}
}

func newAssignerBolt(cfg Config, task int) *assignerBolt {
	b := &assignerBolt{
		cfg:    cfg,
		task:   task,
		unseen: make(map[symbol.Pair]int),
		cp:     newCheckpointer(cfg, "assigner", task),
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
		b.tel.barrierWait = reg.Histogram("core_barrier_wait_seconds")
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
	case streamControl:
		b.adopt(t.Values["msg"].(controlMsg), c)
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
		b.waiting = true
		b.waitWindow = w
		b.waitStart = time.Now()
		// The punctuation carries the checkpoint barrier: this task
		// has now fully incorporated window w, snapshot it.
		if _, ok := topology.CheckpointID(t); ok {
			b.cp.save(w, b)
		}
	}
}

// adopt applies the merger's control message for the awaited window —
// the new table, if one is attached — and releases the barrier. Any
// other control message is a duplicate and is ignored.
func (b *assignerBolt) adopt(ctl controlMsg, c topology.Collector) {
	if !b.waiting || ctl.Window != b.waitWindow {
		return
	}
	if ctl.Table != nil {
		if ctl.Recomputed || b.version == 0 {
			b.generation = ctl.Version
		}
		if ctl.Recomputed || !b.baselineSet {
			// A full (re)computation resets the quality baseline.
			b.baselineSet = false
			b.awaitingBase = true
		}
		b.version = ctl.Version
		b.table = ctl.Table
		b.spec = ctl.Expansion
		for sp := range b.unseen {
			if b.table.CoversSym(sp) {
				delete(b.unseen, sp)
			}
		}
	}
	b.tel.barrierWait.Observe(time.Since(b.waitStart))
	b.waiting = false
	b.drain(c)
}

// drain replays buffered stream tuples in arrival order until the
// barrier re-engages at the next punctuation.
func (b *assignerBolt) drain(c topology.Collector) {
	for len(b.buffered) > 0 && !b.waiting {
		t := b.buffered[0]
		b.buffered[0] = topology.Tuple{}
		b.buffered = b.buffered[1:]
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
	targets, broadcast := b.targets(d)
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
// document whose pair reaches δ becomes an update request in the
// window's verdict. The expansion is applied on the fly: the table
// walks the document's own pairs minus the component pairs plus the
// synthetic one, one lookup per pair. Joiners only read the returned
// list.
func (b *assignerBolt) targets(d document.Document) ([]int, bool) {
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
			b.updates = append(b.updates, d)
			b.tel.updates.Inc()
		}
		return b.all, true
	}
	if targets != nil {
		return targets, false
	}
	return b.all, true
}

// finishWindow evaluates the θ trigger, sends the window's verdict to
// the merger, emits this task's routing statistics, punctuates the
// joiners and resets per-window state.
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
		}
	} else if b.awaitingBase && b.documents > 0 {
		b.baselineRepl = repl
		b.baselineGini = gini
		b.baselineSet = true
		b.awaitingBase = false
	}
	c.EmitTo(streamVerdict, topology.Values{"msg": verdictMsg{
		Window:      w,
		Task:        b.task,
		Repartition: b.repartitioned,
		Updates:     b.updates,
	}})

	c.EmitTo(streamAssignerStats, topology.Values{"msg": assignerStatsMsg{
		Window:        w,
		Task:          b.task,
		Documents:     b.documents,
		Deliveries:    b.deliveries,
		PerJoiner:     append([]int(nil), b.perJoiner...),
		Broadcasts:    b.broadcasts,
		Updates:       len(b.updates),
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
	b.updates = nil
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
