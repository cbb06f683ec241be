package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/symbol"
)

// This file holds the state.Snapshotter implementations of the Fig. 2
// bolts. A snapshot is always taken at a window boundary (the
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

// assignerState is the snapshot of one assignerBolt at the close of a
// window. Per-window routing counters are zero at that point (just
// reset by finishWindow) and are not carried.
type assignerState struct {
	Version    int
	Generation int
	Table      *partition.Table
	Spec       *expansion.Expansion
	Unseen     map[document.Pair]int

	BaselineSet  bool
	BaselineRepl float64
	BaselineGini float64
	AwaitingBase bool

	// Waiting and WaitWindow: a checkpoint snapshot is taken at the
	// punctuation, so it always waits for that window's control
	// message; a migration snapshot at a rescale frontier never does.
	Waiting    bool
	WaitWindow int
}

// Snapshot implements state.Snapshotter.
func (b *assignerBolt) Snapshot(w io.Writer) error {
	st := assignerState{
		Version:      b.version,
		Generation:   b.generation,
		Table:        b.table,
		Spec:         b.spec,
		Unseen:       make(map[document.Pair]int, len(b.unseen)),
		BaselineSet:  b.baselineSet,
		BaselineRepl: b.baselineRepl,
		BaselineGini: b.baselineGini,
		AwaitingBase: b.awaitingBase,
		Waiting:      b.waiting,
		WaitWindow:   b.waitWindow,
	}
	for sp, n := range b.unseen {
		attr, val := symbol.PairStrings(sp)
		st.Unseen[document.Pair{Attr: attr, Val: val}] = n
	}
	return gob.NewEncoder(w).Encode(&st)
}

// Restore implements state.Snapshotter.
func (b *assignerBolt) Restore(r io.Reader) error {
	var st assignerState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	b.version = st.Version
	b.generation = st.Generation
	if b.generation == 0 {
		b.generation = st.Version // written before generations were tracked
	}
	b.table = st.Table
	b.spec = st.Spec
	b.unseen = make(map[symbol.Pair]int, len(st.Unseen))
	for p, n := range st.Unseen {
		b.unseen[symbol.InternPair(p.Attr, p.Val)] = n
	}
	b.baselineSet = st.BaselineSet
	b.baselineRepl = st.BaselineRepl
	b.baselineGini = st.BaselineGini
	b.awaitingBase = st.AwaitingBase
	b.waiting = st.Waiting
	b.waitWindow = st.WaitWindow
	b.waitStart = time.Now()
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

// mergerState is the snapshot of the mergerBolt when it decided a
// window. Undecided rounds are dropped — the replay regenerates every
// verdict and report past the cut.
type mergerState struct {
	Version int
	Table   *partition.Table
	Spec    *expansion.Expansion
	Last    controlMsg
}

// Snapshot implements state.Snapshotter.
func (b *mergerBolt) Snapshot(w io.Writer) error {
	st := mergerState{Version: b.version, Table: b.table, Spec: b.spec, Last: b.last}
	return gob.NewEncoder(w).Encode(&st)
}

// Restore implements state.Snapshotter.
func (b *mergerBolt) Restore(r io.Reader) error {
	var st mergerState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	b.version = st.Version
	b.table = st.Table
	b.spec = st.Spec
	b.last = st.Last
	b.rounds = make(map[int]*windowRound)
	return nil
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
// of a window: the statistics of the completed-window prefix plus the
// merger-event accumulators.
type collectorState struct {
	TableVersions int
	Repartitions  int
	Windows       map[int]collectorWindowState
}

type collectorWindowState struct {
	Stats         metrics.WindowStats
	Repartitioned bool
	Pairs         int
	Docs          int
	// Routed, GenLow, GenHigh: the table generations the window was
	// routed under (windowAgg's fields of the same names).
	Routed          bool
	GenLow, GenHigh int
}

// Snapshot implements state.Snapshotter. Only completed windows are
// carried — they form a prefix of the stream, and the replay will
// regenerate every partial past the cut.
func (b *collectorBolt) Snapshot(w io.Writer) error {
	st := collectorState{
		TableVersions: b.tableVersions,
		Repartitions:  b.repartitions,
		Windows:       make(map[int]collectorWindowState),
	}
	for win, agg := range b.windows {
		if !agg.done {
			continue
		}
		st.Windows[win] = collectorWindowState{
			Stats:         *agg.stats,
			Repartitioned: agg.repartitioned,
			Pairs:         agg.pairs,
			Docs:          agg.docs,
			Routed:        agg.routed,
			GenLow:        agg.genLow,
			GenHigh:       agg.genHigh,
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
	b.tableVersions = st.TableVersions
	b.repartitions = st.Repartitions
	b.windows = make(map[int]*windowAgg, len(st.Windows))
	for win, ws := range st.Windows {
		stats := ws.Stats
		b.windows[win] = &windowAgg{
			stats:         &stats,
			repartitioned: ws.Repartitioned,
			partials:      b.cfg.Assigners,
			jdone:         b.cfg.M,
			decided:       true,
			pairs:         ws.Pairs,
			docs:          ws.Docs,
			done:          true,
			routed:        ws.Routed,
			genLow:        ws.GenLow,
			genHigh:       ws.GenHigh,
		}
	}
	return nil
}
