package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/partition"
)

// This file holds the state.Snapshotter implementations of the Fig. 2
// bolts; the merger's sits beside its δ and θ state in merger.go. A
// snapshot is always taken at a window boundary (the
// checkpoint barrier rides the window punctuation), so everything tied
// to in-flight windows — sample buffers, routed-but-unpunctuated
// documents, deployment-barrier buffers, unresolved merger rounds — is
// deliberately absent: a restart replays the stream from the window
// after the cut and regenerates all of it. What a snapshot carries is
// exactly the state that survives window boundaries.
//
// All pair-bearing state serialises through canonical strings
// (document.Pair, partition.Table's custom gob), never through interned
// symbols: symbol values are process-local and a restored attempt may
// intern in a different order.

// assignerState is an assigner's migration snapshot — an assigner
// takes no checkpoints. Between windows it holds only the last control
// message it adopted; at a rescale frontier that message was adopted,
// so the migrated task does not wait at a barrier.
type assignerState struct {
	Version    int
	Generation int
	Table      *partition.Table
	Spec       *expansion.Expansion
}

// Snapshot implements state.Snapshotter.
func (b *assignerBolt) Snapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(&assignerState{Version: b.version, Generation: b.generation, Table: b.table, Spec: b.spec})
}

// Restore implements state.Snapshotter.
func (b *assignerBolt) Restore(r io.Reader) error {
	var st assignerState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	b.version, b.generation, b.table, b.spec = st.Version, st.Generation, st.Table, st.Spec
	b.waiting = false
	b.buffered = nil
	return nil
}

// Snapshot implements state.Snapshotter for live migration only — a
// creator takes no checkpoints. At a rescale frontier F the creator
// holds control(F)'s verdict on whether window F+1 computes, and
// nothing re-sends it.
func (b *creatorBolt) Snapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(b.next)
}

// Restore implements state.Snapshotter.
func (b *creatorBolt) Restore(r io.Reader) error {
	b.next = make(map[int]bool)
	return gob.NewDecoder(r).Decode(&b.next)
}

// joinerState is the snapshot of one joinerBolt right after a tumble:
// the next window's index and the windowed engine's own snapshot
// (which serialises through internal/join's Snapshotter).
type joinerState struct {
	Current  int
	Windowed []byte
}

// Snapshot implements state.Snapshotter.
func (b *joinerBolt) Snapshot(w io.Writer) error {
	var buf bytes.Buffer
	if err := b.windowed.Snapshot(&buf); err != nil {
		return err
	}
	st := joinerState{Current: b.current, Windowed: buf.Bytes()}
	return gob.NewEncoder(w).Encode(&st)
}

// Restore implements state.Snapshotter.
func (b *joinerBolt) Restore(r io.Reader) error {
	var st joinerState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	if err := b.windowed.Restore(bytes.NewReader(st.Windowed)); err != nil {
		return err
	}
	b.current = st.Current
	b.targets = make(map[uint64][]int)
	b.pending = make(map[int][]pendingDoc)
	b.markers = make(map[int]int)
	b.ckptW = make(map[int]bool)
	b.pairs = 0
	// Spill files of the failed attempt are stale (the replayed stream
	// re-delivers every buffered document); forget them rather than
	// reload them and double-process.
	b.spilledPend = make(map[int]bool)
	b.pendBytes = make(map[int]int64)
	b.pendTotal = 0
	return nil
}

// spillKindPending tags the spill envelope of a joiner's buffered
// future-window documents (Config.MemoryBudget).
const spillKindPending = "joiner-pending"

// pendingSnapshot carries one buffered window's pendingDoc list
// through the memory governor's spill path. Documents travel in their
// symbol-aware gob form (strings on the wire), so a spill file reloads
// correctly even across a symbol epoch.
type pendingSnapshot struct {
	docs []pendingDoc
}

type pendingGob struct {
	Docs    []document.Document
	Targets [][]int
}

// Snapshot implements state.Snapshotter.
func (p *pendingSnapshot) Snapshot(w io.Writer) error {
	g := pendingGob{
		Docs:    make([]document.Document, len(p.docs)),
		Targets: make([][]int, len(p.docs)),
	}
	for i, pd := range p.docs {
		g.Docs[i] = pd.doc
		g.Targets[i] = pd.targets
	}
	return gob.NewEncoder(w).Encode(&g)
}

// Restore implements state.Snapshotter.
func (p *pendingSnapshot) Restore(r io.Reader) error {
	var g pendingGob
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return err
	}
	if len(g.Docs) != len(g.Targets) {
		return fmt.Errorf("core: pending spill: %d documents but %d target lists", len(g.Docs), len(g.Targets))
	}
	p.docs = make([]pendingDoc, len(g.Docs))
	for i := range g.Docs {
		p.docs[i] = pendingDoc{doc: g.Docs[i], targets: g.Targets[i]}
	}
	return nil
}

// collectorState is the snapshot of the collectorBolt at the completion
// of a window: the completed-window prefix.
type collectorState struct {
	Windows map[int]collectorWindowState
}

type collectorWindowState struct {
	Event mergerEventMsg
	Pairs int
	Docs  int
}

// Snapshot implements state.Snapshotter. Only completed windows are
// carried — they form a prefix of the stream, and the replay will
// regenerate every partial past the cut.
func (b *collectorBolt) Snapshot(w io.Writer) error {
	st := collectorState{Windows: make(map[int]collectorWindowState)}
	for win, agg := range b.windows {
		if agg.done {
			st.Windows[win] = collectorWindowState{Event: agg.ev, Pairs: agg.pairs, Docs: agg.docs}
		}
	}
	return gob.NewEncoder(w).Encode(&st)
}

// Restore implements state.Snapshotter.
func (b *collectorBolt) Restore(r io.Reader) error {
	var st collectorState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	b.windows = make(map[int]*windowAgg, len(st.Windows))
	for win, ws := range st.Windows {
		b.windows[win] = &windowAgg{ev: ws.Event, decided: true, jdone: b.cfg.M, pairs: ws.Pairs, docs: ws.Docs, done: true}
	}
	return nil
}
