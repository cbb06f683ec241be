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
// table (direct grouping) and broadcasts documents with uncovered pairs
// to every Joiner to guarantee join completeness. It decides nothing
// about the dynamics of Sec. VI-A: at every window punctuation it sends
// the Merger one verdict of counts — its routing counts and its
// occurrences of uncovered pairs — and the Merger, which sums every
// assigner's verdict, tests θ and δ over the whole stream. Its answer,
// control(w), is adopted at punctuation w, before any document of
// window w+1 is routed.
type assignerBolt struct {
	cfg  Config
	task int

	// The last adopted control message, the only state that survives a
	// window: the table and expansion documents are routed under, the
	// table's version and its generation — the version of the last
	// fully computed table, which the additive δ tables extend. Every
	// assigner adopts the same control message at the same punctuation,
	// so a window is routed under one generation by construction; the
	// verdict's GenLow/GenHigh assert it.
	table      *partition.Table
	spec       *expansion.Expansion
	version    int
	generation int

	scratch partition.RouteScratch
	all     []int // every joiner: the broadcast target list, never written

	// window is the window being routed and v its verdict so far;
	// uncovered indexes v.Uncovered by pair.
	window    int
	v         verdictMsg
	uncovered map[symbol.Pair]int

	// Lock-step barrier. The paper computes partitions upfront and
	// deploys them before the next window is routed. At every window
	// punctuation the assigner sends its verdict and buffers stream
	// tuples until the merger's control message for that window
	// arrives; waitStart times the wait.
	waiting    bool
	waitWindow int
	waitStart  time.Time
	buffered   []topology.Tuple

	numJoiners int

	// Live instruments (nil-safe no-ops when cfg.Telemetry is off).
	tel struct {
		documents   *telemetry.Counter
		deliveries  *telemetry.Counter
		broadcasts  *telemetry.Counter
		barrierWait *telemetry.Histogram
	}
}

func newAssignerBolt(cfg Config, task int) *assignerBolt {
	b := &assignerBolt{cfg: cfg, task: task, uncovered: make(map[symbol.Pair]int)}
	if reg := cfg.Telemetry; reg != nil {
		id := fmt.Sprint(task)
		b.tel.documents = reg.Counter(telemetry.Name("partition_documents_total", "task", id))
		b.tel.deliveries = reg.Counter(telemetry.Name("partition_deliveries_total", "task", id))
		b.tel.broadcasts = reg.Counter(telemetry.Name("partition_broadcasts_total", "task", id))
		b.tel.barrierWait = reg.Histogram("core_barrier_wait_seconds")
	}
	return b
}

// Prepare implements topology.Bolt. On a recovery restart the
// assigner starts at the barrier of the cut window: the restored merger
// re-sends control(cut) with the full table, and the replayed stream
// begins at the window after the cut.
func (b *assignerBolt) Prepare(ctx *topology.TaskContext) {
	b.numJoiners = ctx.NumTasksOf("joiner")
	if b.numJoiners == 0 {
		b.numJoiners = b.cfg.M
	}
	b.all = make([]int, b.numJoiners)
	for i := range b.all {
		b.all[i] = i
	}
	b.v = verdictMsg{Stats: *metrics.NewWindowStats(b.numJoiners)}
	if rp := b.cfg.recovery; rp != nil && rp.restoreWindow >= 0 {
		b.waiting = true
		b.waitWindow = rp.restoreWindow
		b.waitStart = time.Now()
	}
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
		_, ckpt := topology.CheckpointID(t)
		b.finishWindow(w, ckpt, c)
		b.waiting = true
		b.waitWindow = w
		b.waitStart = time.Now()
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
		// Expansion, version and generation change only with the table.
		b.table = ctl.Table
		b.spec = ctl.Expansion
		b.version = ctl.Version
		b.generation = ctl.Generation
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

// route forwards one document to its joiners and counts it into the
// window's verdict.
func (b *assignerBolt) route(d document.Document, c topology.Collector) {
	if b.v.Stats.Documents == 0 {
		b.v.GenLow = b.generation
	}
	b.v.GenHigh = b.generation // generations only grow
	targets, broadcast := b.targets(d)
	b.v.Stats.RecordDelivery(targets, broadcast)
	for _, j := range targets {
		// The full target list travels with the document so that, for
		// any pair of documents replicated to several common joiners,
		// only the lowest-indexed common joiner emits the join result —
		// the exact result is produced exactly once without a global
		// de-duplication stage.
		c.EmitDirect(streamToJoin, j, topology.Values{"doc": d, "window": b.window, "targets": targets})
	}
	b.tel.documents.Inc()
	b.tel.deliveries.Add(int64(len(targets)))
	if broadcast {
		b.tel.broadcasts.Inc()
	}
}

// targets computes the joiner task set for a document: the matching
// partitions when every (transformed) pair is covered, all joiners
// otherwise. Uncovered pairs are counted into the window's verdict for
// the merger's δ gate. The expansion is applied on the fly: the table
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
		b.v.count(b.uncovered, b.scratch.Uncovered, d)
		return b.all, true
	}
	if targets != nil {
		return targets, false
	}
	return b.all, true
}

// finishWindow sends the window's verdict to the merger, punctuates the
// joiners — relaying the window's checkpoint barrier, if the reader's
// punctuation carried one — and starts the next window's verdict.
func (b *assignerBolt) finishWindow(w int, ckpt bool, c topology.Collector) {
	b.v.Window = w
	b.v.Task = b.task
	c.EmitTo(streamVerdict, topology.Values{"msg": b.v})
	b.v = verdictMsg{Stats: *metrics.NewWindowStats(b.numJoiners)}
	clear(b.uncovered)
	jwend := topology.Values{"window": w, "task": b.task}
	if ckpt {
		topology.WithCheckpoint(jwend, w)
	}
	c.EmitTo(streamJoinerWindow, jwend)
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
