package core

import (
	"strings"

	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/partition"
	"repro/internal/topology"
)

// mergerBolt is the single-instance Merger of Fig. 2: it consolidates
// the creators' local association groups into the global partitions,
// folds δ-gated partition updates into the table (Sec. VI-A), and
// decides every window in one control message to the Assigners and the
// creators.
type mergerBolt struct {
	cfg Config

	rounds  map[int]*windowRound
	version int
	table   *partition.Table
	spec    *expansion.Expansion

	// last is the control message of the most recently decided window.
	// A restored merger re-emits it: the assigners restored at the cut
	// sit at that window's barrier, and the creators need it to close
	// the next window.
	last controlMsg

	cp       *checkpointer
	restored bool
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
	return &mergerBolt{
		cfg:    cfg,
		rounds: make(map[int]*windowRound),
		last:   controlMsg{Window: -1},
		cp:     newCheckpointer(cfg, "merger", 0),
	}
}

// Prepare implements topology.Bolt.
func (b *mergerBolt) Prepare(*topology.TaskContext) {
	b.restored = b.cp.restore(b)
}

// Recover implements topology.Recoverer: a restored merger re-emits
// the control message of the cut window exactly as it was. The
// assigners' snapshots at the cut are taken at the window punctuation,
// before that message's separate Execute, so they all wait for it; the
// fresh creators need it to close the first replayed window.
func (b *mergerBolt) Recover(c topology.Collector) {
	if b.restored && b.last.Window >= 0 {
		c.EmitTo(streamControl, topology.Values{"msg": b.last})
	}
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
// complete. On a computation window it carries the recomputed table
// (the window's δ updates are superseded by it); otherwise the current
// table with the verdicts' updates folded in, if any applied; otherwise
// no table.
func (b *mergerBolt) maybeDecide(w int, r *windowRound, c topology.Collector) {
	if countSet(r.reported) < b.cfg.Creators || (r.computing && countSet(r.grouped) < b.cfg.Creators) {
		return
	}
	ctl := controlMsg{Window: w}
	for _, v := range r.verdicts {
		if v == nil {
			return
		}
		ctl.ComputeNext = ctl.ComputeNext || v.Repartition
	}
	delete(b.rounds, w)
	var table *partition.Table
	if r.computing {
		table = b.buildTable(r)
		b.spec = r.spec
		ctl.Recomputed = b.version > 0
	} else {
		table = b.foldUpdates(r.verdicts)
	}
	if table != nil {
		b.table = table
		b.version++
		ctl.Table = table
	}
	ctl.Version = b.version
	ctl.Expansion = b.spec
	b.last = ctl
	c.EmitTo(streamControl, topology.Values{"msg": ctl})
	c.EmitTo(streamMergerEvents, topology.Values{"msg": mergerEventMsg{
		Window:     w,
		NewTable:   ctl.Table != nil,
		Recomputed: ctl.Recomputed,
	}})
	if r.checkpoint {
		b.cp.save(w, b)
	}
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

// foldUpdates folds the δ-qualified documents of the window's verdicts
// into a copy of the current table, in (task, sequence) order. It
// returns nil when there is no table yet or no update applied: a
// document that cannot form the synthetic attribute keeps being
// broadcast by the assigners, which is already correct.
func (b *mergerBolt) foldUpdates(verdicts []*verdictMsg) *partition.Table {
	if b.table == nil {
		return nil
	}
	var working *partition.Table
	for _, v := range verdicts {
		for _, d := range v.Updates {
			td, ok := b.spec.Apply(d)
			if !ok {
				continue
			}
			if working == nil {
				working = b.table.Clone()
			}
			working.AddDocument(td)
		}
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
