package core

import (
	"cmp"
	"encoding/gob"
	"io"
	"slices"
	"strings"

	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/symbol"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// mergerBolt is the single-instance Merger of Fig. 2: it consolidates
// the creators' local association groups into the global partitions,
// counts the dynamics of Sec. VI-A over the whole stream — the θ
// repartitioning trigger and the δ gate on uncovered pairs — from the
// assigners' verdicts, folds δ-gated partition updates into the table,
// and decides every window in one control message to the Assigners and
// the creators.
type mergerBolt struct {
	cfg Config

	rounds     map[int]*windowRound
	version    int
	generation int // the version of the last fully computed table
	table      *partition.Table
	spec       *expansion.Expansion

	// unseen counts the occurrences of every uncovered pair over the
	// stream; a pair reaching δ makes a partition update. Pairs leave
	// it once a table covers them.
	unseen map[symbol.Pair]int

	// baseline is the θ baseline: the statistics of the first window
	// routed under the last computed table (Sec. VI-A); nil until that
	// window is decided.
	baseline *metrics.WindowStats

	// last is the control message of the most recently decided window.
	// A restored merger re-emits it: the fresh assigners sit at that
	// window's barrier, and the creators need it to close the next
	// window.
	last controlMsg

	cp *checkpointer

	tel struct {
		updates *telemetry.Counter
	}
}

// windowRound gathers everything window w's control message depends
// on: every assigner's verdict, every creator's report and, on a
// computation window, every creator's local groups after the merger
// broadcast the consensus expansion. Inputs are kept by task, so a
// duplicate cannot be counted twice and the fold order is the task
// order, never the arrival order.
type windowRound struct {
	verdicts   []*verdictMsg
	reported   []bool
	proposals  []*expansion.Expansion
	groups     [][]partition.AssocGroup
	grouped    []bool
	computing  bool
	spec       *expansion.Expansion
	checkpoint bool
}

func newMergerBolt(cfg Config) *mergerBolt {
	b := &mergerBolt{
		cfg:    cfg,
		rounds: make(map[int]*windowRound),
		unseen: make(map[symbol.Pair]int),
		last:   controlMsg{Window: -1},
		cp:     newCheckpointer(cfg, "merger", 0),
	}
	if reg := cfg.Telemetry; reg != nil {
		b.tel.updates = reg.Counter("partition_update_requests_total")
	}
	return b
}

// Prepare implements topology.Bolt.
func (b *mergerBolt) Prepare(*topology.TaskContext) {
	b.cp.restore(b)
}

// Recover implements topology.Recoverer: a restored merger re-emits
// the control message of the cut window, with the full current table,
// and its nextMsg (a fresh merger has decided nothing and stays
// silent). The fresh assigners start at that window's barrier and hold
// no table; the fresh creators need the nextMsg to close the first
// replayed window.
func (b *mergerBolt) Recover(c topology.Collector) {
	if b.last.Window >= 0 {
		ctl := b.last
		ctl.Table = b.table
		b.emitControl(ctl, c)
	}
}

// emitControl sends control(w) to the assigners and its ComputeNext,
// without the table, to the creators.
func (b *mergerBolt) emitControl(ctl controlMsg, c topology.Collector) {
	c.EmitTo(streamControl, topology.Values{"msg": ctl})
	c.EmitTo(streamNext, topology.Values{"msg": nextMsg{Window: ctl.Window, ComputeNext: ctl.ComputeNext}})
}

// Cleanup implements topology.Bolt.
func (b *mergerBolt) Cleanup() {}

// Execute implements topology.Bolt.
func (b *mergerBolt) Execute(t topology.Tuple, c topology.Collector) {
	switch t.Stream {
	case streamCreatorWindow:
		msg := t.Values["msg"].(creatorWindowMsg)
		r := b.round(msg.Window)
		if r.reported[msg.Task] {
			return
		}
		r.reported[msg.Task] = true
		r.checkpoint = r.checkpoint || msg.Checkpoint
		if msg.Computing {
			r.computing = true
			r.proposals[msg.Task] = msg.Proposal
		}
		if r.computing && countSet(r.reported) == b.cfg.Creators {
			r.spec = consensusExpansion(r.proposals)
			c.EmitTo(streamExpansion, topology.Values{"msg": expansionMsg{Window: msg.Window, Spec: r.spec}})
		}
		b.maybeDecide(msg.Window, r, c)
	case streamLocalGroups:
		msg := t.Values["msg"].(localGroupsMsg)
		r := b.round(msg.Window)
		if r.grouped[msg.Task] {
			return
		}
		r.grouped[msg.Task] = true
		r.groups[msg.Task] = msg.Groups
		b.maybeDecide(msg.Window, r, c)
	case streamVerdict:
		msg := t.Values["msg"].(verdictMsg)
		r := b.round(msg.Window)
		if r.verdicts[msg.Task] != nil {
			return
		}
		r.verdicts[msg.Task] = &msg
		b.maybeDecide(msg.Window, r, c)
	}
}

func (b *mergerBolt) round(w int) *windowRound {
	r, ok := b.rounds[w]
	if !ok {
		r = &windowRound{
			verdicts:  make([]*verdictMsg, b.cfg.Assigners),
			reported:  make([]bool, b.cfg.Creators),
			proposals: make([]*expansion.Expansion, b.cfg.Creators),
			groups:    make([][]partition.AssocGroup, b.cfg.Creators),
			grouped:   make([]bool, b.cfg.Creators),
		}
		b.rounds[w] = r
	}
	return r
}

func countSet(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// maybeDecide emits window w's control message once the round is
// complete. It sums the window's verdicts, tests θ and counts δ, then
// attaches the table the assigners route w+1 under: on a computation
// window the recomputed table (the window's δ updates are superseded by
// it); otherwise the current table with the window's updates folded
// in, if any applied; otherwise none.
func (b *mergerBolt) maybeDecide(w int, r *windowRound, c topology.Collector) {
	if countSet(r.reported) < b.cfg.Creators || (r.computing && countSet(r.grouped) < b.cfg.Creators) {
		return
	}
	for _, v := range r.verdicts {
		if v == nil {
			return
		}
	}
	delete(b.rounds, w)
	ev := mergerEventMsg{Window: w, Stats: *metrics.NewWindowStats(b.cfg.M), Checkpoint: r.checkpoint}
	updates := b.tally(&ev, r.verdicts)
	ev.Stats.Repartitioned = b.theta(&ev.Stats)
	b.tel.updates.Add(int64(len(updates)))

	ctl := controlMsg{Window: w, ComputeNext: ev.Stats.Repartitioned}
	var table *partition.Table
	if r.computing {
		table = b.buildTable(r)
		b.spec = r.spec
		ctl.Recomputed = b.version > 0
	} else {
		table = b.foldUpdates(updates)
	}
	if table != nil {
		b.table = table
		b.version++
		if r.computing {
			b.generation = b.version
			b.baseline = nil
		}
		for sp := range b.unseen {
			if table.CoversSym(sp) {
				delete(b.unseen, sp)
			}
		}
		ctl.Table = table
	}
	ctl.Version = b.version
	ctl.Generation = b.generation
	ctl.Expansion = b.spec
	b.last = ctl
	b.emitControl(ctl, c)
	ev.NewTable = ctl.Table != nil
	ev.Recomputed = ctl.Recomputed
	c.EmitTo(streamMergerEvents, topology.Values{"msg": ev})
	if r.checkpoint {
		b.cp.save(w, b)
	}
}

// tally sums the window's verdicts, in task order, into ev: routing
// counts and the span of table generations. It adds their uncovered
// pairs' occurrences to the stream-wide counts and returns the window's
// update requests: for every pair whose count reached δ in this window,
// the lowest-ID document of the window carrying it — each document
// once, in ascending ID. Neither the number of assigners nor the order
// their verdicts arrived in changes the result.
func (b *mergerBolt) tally(ev *mergerEventMsg, verdicts []*verdictMsg) []document.Document {
	st := &ev.Stats
	// occurrences sums one pair's entries; its lowest-ID document is
	// verdicts[v].Docs[doc]. Indexes, not documents, keep the map free
	// of pointers.
	type occurrences struct{ n, v, doc int }
	first := func(o occurrences) document.Document { return verdicts[o.v].Docs[o.doc] }
	n := 0
	for _, v := range verdicts {
		n += len(v.Uncovered)
	}
	window := make(map[symbol.Pair]occurrences, n)
	for i, v := range verdicts {
		if v.Stats.Documents > 0 {
			if st.Documents == 0 || v.GenLow < ev.GenLow {
				ev.GenLow = v.GenLow
			}
			if st.Documents == 0 || v.GenHigh > ev.GenHigh {
				ev.GenHigh = v.GenHigh
			}
		}
		st.Documents += v.Stats.Documents
		st.Deliveries += v.Stats.Deliveries
		st.Broadcasts += v.Stats.Broadcasts
		for j, load := range v.Stats.PerJoiner {
			st.PerJoiner[j] += load
		}
		for _, pc := range v.Uncovered {
			o, seen := window[pc.Pair]
			if !seen || v.Docs[pc.Doc].ID < first(o).ID {
				o.v, o.doc = i, pc.Doc
			}
			o.n += pc.N
			window[pc.Pair] = o
		}
	}
	var updates []document.Document
	for sp, o := range window {
		before := b.unseen[sp]
		b.unseen[sp] = before + o.n
		if before < b.cfg.Delta && before+o.n >= b.cfg.Delta {
			updates = append(updates, first(o))
		}
	}
	slices.SortFunc(updates, func(x, y document.Document) int { return cmp.Compare(x.ID, y.ID) })
	updates = slices.CompactFunc(updates, func(x, y document.Document) bool { return x.ID == y.ID })
	st.Updates = len(updates)
	return updates
}

// theta reports whether the window's routing quality degraded beyond θ
// against the baseline: replication grew by more than θ relative to it,
// or the load balance worsened by more than θ. The first window with
// documents routed under a computed table becomes the baseline instead.
func (b *mergerBolt) theta(st *metrics.WindowStats) bool {
	if st.Documents == 0 || b.table == nil {
		return false
	}
	if b.baseline == nil {
		base := *st
		b.baseline = &base
		return false
	}
	return metrics.RelChange(b.baseline.Replication(), st.Replication()) > b.cfg.Theta ||
		st.LoadBalance()-b.baseline.LoadBalance() > b.cfg.Theta
}

// buildTable consolidates the collected groups, in creator-task order,
// into m partitions.
func (b *mergerBolt) buildTable(r *windowRound) *partition.Table {
	if _, isAG := b.cfg.Partitioner.(partition.AssociationGroups); isAG {
		consolidated := partition.Consolidate(r.groups)
		return partition.AssignGroups(consolidated, b.cfg.M)
	}
	// Competitors run their whole algorithm on the combined sample
	// reconstructed from the single-document groups.
	var docs []document.Document
	for _, gs := range r.groups {
		for _, g := range gs {
			id := uint64(len(docs) + 1)
			if len(g.Docs) > 0 {
				id = g.Docs[0]
			}
			docs = append(docs, document.New(id, g.Pairs.Sorted()))
		}
	}
	return b.cfg.Partitioner.Partition(docs, b.cfg.M)
}

// foldUpdates folds the window's update requests into a copy of the
// current table, in ascending document ID. It returns nil when there is
// no table yet or no update applied: a document that cannot form the
// synthetic attribute keeps being broadcast by the assigners, which is
// already correct.
func (b *mergerBolt) foldUpdates(updates []document.Document) *partition.Table {
	if b.table == nil {
		return nil
	}
	var working *partition.Table
	for _, d := range updates {
		td, ok := b.spec.Apply(d)
		if !ok {
			continue
		}
		if working == nil {
			working = b.table.Clone()
		}
		working.AddDocument(td)
	}
	return working
}

// consensusExpansion picks the majority proposal; ties resolve to the
// lexicographically smallest component list for determinism. A nil
// proposal ("no expansion") participates in the vote.
func consensusExpansion(proposals []*expansion.Expansion) *expansion.Expansion {
	counts := make(map[string]int)
	byKey := make(map[string]*expansion.Expansion)
	for _, p := range proposals {
		key := ""
		if p != nil {
			key = strings.Join(p.Components, "\x00")
		}
		counts[key]++
		if _, ok := byKey[key]; !ok {
			byKey[key] = p
		}
	}
	bestKey, bestCount := "", -1
	for key, n := range counts {
		if n > bestCount || (n == bestCount && key < bestKey) {
			bestKey, bestCount = key, n
		}
	}
	return byKey[bestKey]
}

// mergerState is the snapshot of the mergerBolt when it decided a
// window: the table, the stream-wide δ counts (by strings, see
// snapshots.go) and the θ baseline. Undecided rounds are dropped — the
// replay regenerates every verdict and report past the cut.
type mergerState struct {
	Version    int
	Generation int
	Table      *partition.Table
	Spec       *expansion.Expansion
	Last       controlMsg
	Unseen     map[document.Pair]int
	Baseline   *metrics.WindowStats
}

// Snapshot implements state.Snapshotter.
func (b *mergerBolt) Snapshot(w io.Writer) error {
	st := mergerState{
		Version:    b.version,
		Generation: b.generation,
		Table:      b.table,
		Spec:       b.spec,
		Last:       b.last,
		Unseen:     make(map[document.Pair]int, len(b.unseen)),
		Baseline:   b.baseline,
	}
	st.Last.Table = nil // Recover attaches the current table
	for sp, n := range b.unseen {
		attr, val := symbol.PairStrings(sp)
		st.Unseen[document.Pair{Attr: attr, Val: val}] = n
	}
	return gob.NewEncoder(w).Encode(&st)
}

// Restore implements state.Snapshotter.
func (b *mergerBolt) Restore(r io.Reader) error {
	var st mergerState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	b.version = st.Version
	b.generation = st.Generation
	b.table = st.Table
	b.spec = st.Spec
	b.last = st.Last
	b.unseen = make(map[symbol.Pair]int, len(st.Unseen))
	for p, n := range st.Unseen {
		b.unseen[symbol.InternPair(p.Attr, p.Val)] = n
	}
	b.baseline = st.Baseline
	b.rounds = make(map[int]*windowRound)
	return nil
}
