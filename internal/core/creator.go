package core

import (
	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/partition"
	"repro/internal/topology"
)

// creatorBolt is the PartitionCreator of Fig. 2. Each task buffers its
// shuffle-grouped share of the current window; when the window is a
// computation window (the first one, or one following a θ repartition
// request) it proposes an attribute-value expansion from its sample,
// waits for the Merger's consensus decision, and then runs phase one of
// the AG algorithm (Algorithm 1) on the transformed sample, emitting
// the local association groups to the Merger.
//
// Whether window w is a computation window is decided by the Merger's
// control message for window w-1 (window 0 always computes), and the
// creator runs ahead of the assigners that earn that verdict. The
// creator therefore closes window w once it holds both the window's
// punctuation and control(w-1); meanwhile documents of later windows
// keep accumulating in their per-window buffers.
//
// For the SC and DS competitors — which have no creator-side phase —
// the creator ships its sample documents as single-document groups; the
// Merger then runs the competitor's partitioning on the combined
// sample. This mirrors the paper's setup where the competitors are
// evaluated inside the same topology.
type creatorBolt struct {
	cfg  Config
	task int

	buffers map[int][]document.Document

	// next[w] is control(w)'s ComputeNext, as the merger's nextMsg for
	// w carried it, held until window w+1 closes.
	next map[int]bool

	// pendingWend holds window-end punctuation waiting for the
	// preceding window's control message, in arrival order; ckptWend
	// marks the windows whose punctuation carried a checkpoint barrier.
	pendingWend []int
	ckptWend    map[int]bool
}

func newCreatorBolt(cfg Config, task int) *creatorBolt {
	return &creatorBolt{
		cfg:      cfg,
		task:     task,
		buffers:  make(map[int][]document.Document),
		next:     make(map[int]bool),
		ckptWend: make(map[int]bool),
	}
}

// Prepare implements topology.Bolt. A creator takes no checkpoints: a
// restart replays its sample buffers, and the restored merger's
// control message for the cut tells it whether the next window
// computes.
func (b *creatorBolt) Prepare(*topology.TaskContext) {}

// Cleanup implements topology.Bolt.
func (b *creatorBolt) Cleanup() {}

// Execute implements topology.Bolt.
func (b *creatorBolt) Execute(t topology.Tuple, c topology.Collector) {
	switch t.Stream {
	case streamDocs:
		w := t.Values["window"].(int)
		d := t.Values["doc"].(document.Document)
		b.buffers[w] = append(b.buffers[w], d)
	case streamNext:
		msg := t.Values["msg"].(nextMsg)
		b.next[msg.Window] = msg.ComputeNext
		b.drainWend(c)
	case streamWindowEnd:
		w := t.Values["window"].(int)
		b.pendingWend = append(b.pendingWend, w)
		if _, ok := topology.CheckpointID(t); ok {
			b.ckptWend[w] = true
		}
		b.drainWend(c)
	case streamExpansion:
		msg := t.Values["msg"].(expansionMsg)
		docs := b.buffers[msg.Window]
		delete(b.buffers, msg.Window)
		transformed := msg.Spec.ApplyBatch(docs)
		c.EmitTo(streamLocalGroups, topology.Values{"msg": localGroupsMsg{
			Window: msg.Window,
			Task:   b.task,
			Groups: b.localGroups(transformed),
		}})
	}
}

// drainWend closes every pending window whose predecessor's control
// message arrived.
func (b *creatorBolt) drainWend(c topology.Collector) {
	for len(b.pendingWend) > 0 {
		w := b.pendingWend[0]
		computing := w == 0
		if w > 0 {
			next, ok := b.next[w-1]
			if !ok {
				return // control(w-1) still outstanding
			}
			delete(b.next, w-1)
			computing = next
		}
		b.pendingWend = b.pendingWend[1:]
		b.closeWindow(w, computing, c)
	}
}

// closeWindow reports this creator's end-of-window state to the merger,
// attaching the expansion proposal when the window must produce new
// partitions.
func (b *creatorBolt) closeWindow(w int, computing bool, c topology.Collector) {
	msg := creatorWindowMsg{Window: w, Task: b.task, Computing: computing, Checkpoint: b.ckptWend[w]}
	delete(b.ckptWend, w)
	if computing {
		msg.Proposal = b.propose(b.buffers[w])
	} else {
		delete(b.buffers, w) // sample not needed
	}
	c.EmitTo(streamCreatorWindow, topology.Values{"msg": msg})
}

// propose derives this creator's expansion proposal from its sample
// according to the configured mode.
func (b *creatorBolt) propose(docs []document.Document) *expansion.Expansion {
	switch b.cfg.Expansion {
	case ExpansionOff:
		return nil
	case ExpansionForced:
		return expansion.AnalyzeForced(docs, b.cfg.M)
	default:
		return expansion.Analyze(docs, b.cfg.M)
	}
}

// localGroups runs the creator-side phase of the configured
// partitioner.
func (b *creatorBolt) localGroups(docs []document.Document) []partition.AssocGroup {
	if ag, ok := b.cfg.Partitioner.(partition.AssociationGroups); ok {
		return ag.Groups(docs)
	}
	// Competitors: ship each document's pair set as one group so the
	// Merger can run the whole algorithm on the combined sample.
	groups := make([]partition.AssocGroup, 0, len(docs))
	for _, d := range docs {
		g := partition.AssocGroup{Pairs: partition.NewPairSetFromSyms(d.InternedPairs()), Load: 1, Docs: []uint64{d.ID}}
		groups = append(groups, g)
	}
	return groups
}
