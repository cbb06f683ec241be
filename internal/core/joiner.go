package core

import (
	"fmt"

	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/state"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// joinerBolt is the Joiner of Fig. 2: each task owns a windowed join
// engine (FPJ by default); documents arrive via direct grouping from
// the Assigners, join results are produced per tumbling window, and the
// window tumbles once every Assigner task has punctuated it.
//
// Two engineering details keep the distributed result exactly equal to
// a single-node join:
//
//   - Replication means a joinable pair can be co-located on several
//     machines. Every delivered document carries its full target list;
//     a joiner owns a pair only when it is the lowest-indexed joiner in
//     the intersection of the two documents' target lists, so each
//     pair is produced exactly once across the cluster.
//
//   - The Assigners advance through the stream independently, so a fast
//     Assigner's documents for window w+1 can arrive before a slow
//     Assigner's punctuation for window w. Such documents are buffered
//     and replayed right after the tumble.
//
// The result path is pair-first (DESIGN.md "Result path"): the window
// is probed for partner ids, ownership is decided on those ids, and a
// merged document is built only for a pair this task owns and only when
// the run has a result consumer (Config.OnResult, which also carries
// the query fan-out and the recovery stager). Results leave through
// that callback; no stream carries them.
type joinerBolt struct {
	cfg  Config
	task int

	windowed *join.Windowed
	targets  map[uint64][]int // doc id -> joiner targets, current window
	pairs    int              // pairs this task owns, this window
	// sink receives this task's results with their window; nil when the
	// run has no result consumer. results backs the owned pairs'
	// materialisation across documents.
	sink    func(window int, res join.Result)
	results []join.Result
	// ownerless counts pairs whose two target lists share no joiner —
	// impossible while every document reaches exactly its targets.
	// Execute turns a non-zero count into a task failure.
	ownerless int

	current int
	pending map[int][]pendingDoc

	// Memory governance (Config.MemoryBudget): gov meters the windowed
	// engine plus the pending buffers and, under pressure, spills whole
	// pending-window buffers to disk — they are not yet join state, so
	// spilling them is correctness-neutral. spilledPend marks windows
	// with a spill file (reloaded in maybeTumble right before replay);
	// pendBytes tracks each buffered window's accounted bytes and
	// pendTotal their sum, so Account stays O(1) per document.
	gov         *join.Governor
	spilledPend map[int]bool
	pendBytes   map[int]int64
	pendTotal   int64

	// markers counts per-window punctuation from the assigners; the
	// window tumbles when all of them reported. ckptW marks windows
	// whose punctuation carried a checkpoint barrier.
	markers      map[int]int
	ckptW        map[int]bool
	numAssigners int

	cp *checkpointer

	// Live instruments (nil-safe no-ops when cfg.Telemetry is off).
	telPairs     *telemetry.Counter // pairs this joiner owns and delivers
	telOwnerless *telemetry.Counter // pairs no joiner could own
}

type pendingDoc struct {
	doc     document.Document
	targets []int
}

func newJoinerBolt(cfg Config, task int) *joinerBolt {
	eng, err := join.New(cfg.Engine)
	if err != nil {
		// Config validation happens before the topology is built; an
		// unknown engine here is a programming error.
		panic(err)
	}
	b := &joinerBolt{
		cfg:         cfg,
		task:        task,
		windowed:    join.NewWindowed(eng),
		targets:     make(map[uint64][]int),
		pending:     make(map[int][]pendingDoc),
		markers:     make(map[int]int),
		ckptW:       make(map[int]bool),
		cp:          newCheckpointer(cfg, "joiner", task),
		spilledPend: make(map[int]bool),
		pendBytes:   make(map[int]int64),
	}
	switch {
	case cfg.onResultWindowed != nil:
		b.sink = cfg.onResultWindowed
	case cfg.OnResult != nil:
		b.sink = func(_ int, res join.Result) { cfg.OnResult(res) }
	}
	if reg := cfg.Telemetry; reg != nil {
		id := fmt.Sprint(task)
		b.telPairs = reg.Counter(telemetry.Name("join_pairs_total", "task", id))
		b.telOwnerless = reg.Counter(telemetry.Name("join_ownerless_pairs_total", "task", id))
		b.windowed.SetInstruments(join.Instruments{
			ProbeSeconds: reg.Histogram(telemetry.Name("join_probe_seconds", "task", id)),
			Partners:     reg.Counter(telemetry.Name("join_probe_partners_total", "task", id)),
			Results:      reg.Counter(telemetry.Name("join_results_total", "task", id)),
			Duplicates:   reg.Counter(telemetry.Name("join_duplicates_total", "task", id)),
			WindowDocs:   reg.Gauge(telemetry.Name("join_window_docs", "task", id)),
			TreeNodes:    reg.Gauge(telemetry.Name("join_fptree_nodes", "task", id)),
		})
	}
	if cfg.MemoryBudget > 0 {
		var spill state.Store
		if cfg.SpillDir != "" {
			if fs, err := state.NewFSStore(cfg.SpillDir); err == nil {
				spill = fs
			}
			// An unusable spill dir degrades to a store-less governor:
			// pressure is still metered, relief comes from backpressure.
		}
		var ins join.GovernorInstruments
		if reg := cfg.Telemetry; reg != nil {
			id := fmt.Sprint(task)
			ins = join.GovernorInstruments{
				SpillPanes:    reg.Counter(telemetry.Name("state_spill_panes_total", "task", id)),
				SpillBytes:    reg.Counter(telemetry.Name("state_spill_bytes_total", "task", id)),
				Reloads:       reg.Counter(telemetry.Name("state_spill_reloads_total", "task", id)),
				Failures:      reg.Counter(telemetry.Name("state_spill_failures_total", "task", id)),
				ForcedTumbles: reg.Counter(telemetry.Name("state_forced_tumbles_total", "task", id)),
				Shed:          reg.Counter(telemetry.Name("state_shed_total", "task", id)),
				Pressure:      reg.Gauge(telemetry.Name("state_pressure_level", "task", id)),
				Accounted:     reg.Gauge(telemetry.Name("state_accounted_bytes", "task", id)),
			}
		}
		b.gov = join.NewGovernor(join.GovernorConfig{
			Budget: cfg.MemoryBudget,
			Store:  spill,
			Task:   "joiner-" + fmt.Sprint(task),
			Ins:    ins,
		})
	}
	return b
}

// Prepare implements topology.Bolt.
func (b *joinerBolt) Prepare(ctx *topology.TaskContext) {
	b.numAssigners = ctx.NumTasksOf("assigner")
	if b.numAssigners == 0 {
		b.numAssigners = b.cfg.Assigners
	}
	b.cp.restore(b)
}

// Cleanup implements topology.Bolt.
func (b *joinerBolt) Cleanup() {}

// Execute implements topology.Bolt.
func (b *joinerBolt) Execute(t topology.Tuple, c topology.Collector) {
	switch t.Stream {
	case streamToJoin:
		w := t.Values["window"].(int)
		p := pendingDoc{doc: t.Values["doc"].(document.Document), targets: t.Values["targets"].([]int)}
		if w == b.current {
			b.process(p)
		} else {
			b.pending[w] = append(b.pending[w], p)
			if b.gov != nil {
				b.pendBytes[w] += pendingDocBytes(p)
				b.pendTotal += pendingDocBytes(p)
			}
		}
		b.govern()
	case streamJoinerWindow:
		w := t.Values["window"].(int)
		b.markers[w]++
		if _, ok := topology.CheckpointID(t); ok {
			b.ckptW[w] = true
		}
		b.maybeTumble(c)
	}
	if n := b.ownerless; n > 0 {
		// The runtimes record a recovered Execute panic under
		// Report.Topology.Failures; everything else this tuple caused
		// is already done, so nothing but the ownerless pairs is lost.
		b.ownerless = 0
		panic(fmt.Sprintf("%d join pair(s) share no target joiner and were not produced (joiner task %d holds both documents)", n, b.task))
	}
}

// process probes the current window with one document and delivers
// its owned pairs.
func (b *joinerBolt) process(p pendingDoc) {
	b.targets[p.doc.ID] = p.targets
	b.deliver(p.doc, b.windowed.Partners(p.doc))
}

// deliver is the result path of one document: partners holds the ids
// the window found for d; they are filtered in place down to the pairs
// this task owns, counted, and — only if somebody receives results —
// materialised and handed over.
func (b *joinerBolt) deliver(d document.Document, partners []uint64) {
	if len(partners) == 0 {
		return
	}
	right := b.targets[d.ID]
	owned := partners[:0]
	for _, id := range partners {
		if b.ownsPair(b.targets[id], right) {
			owned = append(owned, id)
		}
	}
	b.pairs += len(owned)
	b.telPairs.Add(int64(len(owned)))
	if len(owned) == 0 || b.sink == nil {
		return
	}
	b.results = b.windowed.Materialize(b.results[:0], d, owned)
	for _, res := range b.results {
		b.sink(b.current, res)
	}
}

// ownsPair reports whether this task is the lowest-indexed joiner in
// both (ascending) target lists.
func (b *joinerBolt) ownsPair(lt, rt []int) bool {
	i, j := 0, 0
	for i < len(lt) && j < len(rt) {
		switch {
		case lt[i] == rt[j]:
			return lt[i] == b.task // first (smallest) common target
		case lt[i] < rt[j]:
			i++
		default:
			j++
		}
	}
	// This task holds both documents, so it is in both lists — unless
	// a target list is wrong. Claiming the pair would duplicate it on
	// every joiner that holds it; count it and fail the task instead.
	b.ownerless++
	b.telOwnerless.Inc()
	return false
}

// maybeTumble closes the current window while all assigners have
// punctuated it, replaying buffered documents of the next window.
func (b *joinerBolt) maybeTumble(c topology.Collector) {
	for b.markers[b.current] == b.numAssigners {
		w := b.current
		ckpt := b.ckptW[w]
		delete(b.markers, w)
		delete(b.ckptW, w)
		docs, _ := b.windowed.Tumble()
		c.EmitTo(streamJoinerStats, topology.Values{"msg": joinerStatsMsg{
			Window: w,
			Task:   b.task,
			Docs:   docs,
			Pairs:  b.pairs,
		}})
		b.pairs = 0
		clear(b.targets)
		b.current++
		// Snapshot at the barrier, post-tumble and pre-replay: the
		// state is "window w incorporated, next window empty"; the
		// buffered next-window documents are deliberately dropped — a
		// restart's replayed stream re-delivers them.
		if ckpt {
			b.cp.save(w, b)
		}
		for _, p := range b.takePending(b.current) {
			b.process(p)
		}
	}
}

// pendingDocBytes estimates one buffered document's resident
// footprint: the document, its target list and the pendingDoc
// bookkeeping around them.
func pendingDocBytes(p pendingDoc) int64 {
	const perDoc = 48 // pendingDoc struct + slice headers
	return p.doc.MemBytes() + int64(len(p.targets))*8 + perDoc
}

// govern refreshes the memory governor's byte account (windowed join
// state plus buffered future-window documents) and, while pressure
// calls for it, spills whole pending-window buffers to disk, largest
// first. The current window's probe structures are never candidates —
// every arriving document probes them — so when they alone exceed the
// budget the pressure gauge rises and relief comes from MaxPending
// backpressure parking the spout.
func (b *joinerBolt) govern() {
	if b.gov == nil {
		return
	}
	level := b.gov.Account(b.windowed.MemBytes() + b.pendTotal)
	if level < join.PressureSpill || !b.gov.CanSpill() {
		return
	}
	for b.gov.Accounted() > b.gov.Budget() {
		w, ok := b.largestUnspilledPending()
		if !ok || !b.spillPending(w) {
			return
		}
	}
}

// largestUnspilledPending picks the buffered window with the most
// accounted bytes that has no spill file yet (each window spills at
// most once; later arrivals for a spilled window stay resident and
// replay after the reloaded prefix).
func (b *joinerBolt) largestUnspilledPending() (int, bool) {
	best, bestBytes := 0, int64(0)
	for w, n := range b.pendBytes {
		if n > bestBytes && !b.spilledPend[w] && len(b.pending[w]) > 0 {
			best, bestBytes = w, n
		}
	}
	return best, bestBytes > 0
}

// spillPending writes window w's buffer to the spill store and, only
// after the governor's read-back verification succeeds, releases the
// resident copy. A failed spill costs nothing but the failure counter:
// the buffer stays in memory and the documents are never at risk.
func (b *joinerBolt) spillPending(w int) bool {
	snap := pendingSnapshot{docs: b.pending[w]}
	if _, err := b.gov.Spill(w, spillKindPending, &snap); err != nil {
		return false
	}
	b.spilledPend[w] = true
	b.pendTotal -= b.pendBytes[w]
	delete(b.pendBytes, w)
	b.pending[w] = nil
	b.gov.Account(b.windowed.MemBytes() + b.pendTotal)
	return true
}

// takePending returns window w's buffered documents in arrival order —
// the spilled prefix reloaded from disk first, then whatever
// accumulated in memory after the spill — and drops all bookkeeping
// for w. A reload failure (the file corrupted at rest despite the
// write-time verification) degrades instead of crashing: the failure
// is counted, the spilled prefix is lost, the run continues.
func (b *joinerBolt) takePending(w int) []pendingDoc {
	resident := b.pending[w]
	delete(b.pending, w)
	if b.gov != nil {
		b.pendTotal -= b.pendBytes[w]
		delete(b.pendBytes, w)
	}
	if !b.spilledPend[w] {
		return resident
	}
	delete(b.spilledPend, w)
	var snap pendingSnapshot
	if err := b.gov.Reload(w, spillKindPending, &snap); err != nil {
		return resident
	}
	b.gov.Drop(w)
	return append(snap.docs, resident...)
}
