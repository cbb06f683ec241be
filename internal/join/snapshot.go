package join

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"repro/internal/document"
)

// Snapshot / Restore implement the operator-state contract
// (internal/state.Snapshotter) for the three join engines and the
// windowed wrapper. Documents serialize through their symbol-aware gob
// form (strings on the wire, re-interned on decode), so a snapshot
// restores correctly across processes and symbol epochs.

// Snapshot implements state.Snapshotter: the stored documents in
// insertion order.
func (e *NLJ) Snapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(e.docs)
}

// Restore implements state.Snapshotter.
func (e *NLJ) Restore(r io.Reader) error {
	e.Reset()
	var docs []document.Document
	if err := gob.NewDecoder(r).Decode(&docs); err != nil {
		return fmt.Errorf("join: restore NLJ: %w", err)
	}
	e.docs = docs
	for _, d := range docs {
		e.memBytes += d.MemBytes()
	}
	return nil
}

// Snapshot implements state.Snapshotter: the stored documents in
// insertion order. The inverted index is derived state and is rebuilt
// on restore.
func (e *HBJ) Snapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(e.docs)
}

// Restore implements state.Snapshotter: documents are re-inserted in
// their original order, rebuilding the posting lists (and their order)
// under the current symbol epoch.
func (e *HBJ) Restore(r io.Reader) error {
	var docs []document.Document
	if err := gob.NewDecoder(r).Decode(&docs); err != nil {
		return fmt.Errorf("join: restore HBJ: %w", err)
	}
	e.Reset()
	e.symEpoch = 0 // force docSyms to recapture the current epoch
	for _, d := range docs {
		e.Insert(d)
	}
	return nil
}

// Snapshot implements state.Snapshotter by delegating to the FP-tree's
// symbol-aware serialization.
func (e *FPJ) Snapshot(w io.Writer) error { return e.tree.Snapshot(w) }

// Restore implements state.Snapshotter.
func (e *FPJ) Restore(r io.Reader) error { return e.tree.Restore(r) }

// windowedGob is the wire form of a Windowed joiner. The engine's own
// state nests as an opaque payload so each engine controls its format.
// Snapshots written before the store became the dedup guard also carry
// a Seen id list (always the store's key set); gob drops the field it
// no longer finds here, so they restore unchanged.
type windowedGob struct {
	Engine        string
	NextID        uint64
	PairsEmitted  int
	DocsProcessed int
	Duplicates    int
	Store         []document.Document // sorted by ID for determinism
	EngineState   []byte
}

// Snapshot implements state.Snapshotter for the windowed wrapper: the
// current window's stored documents (which are the dedup guard), the
// counters and the nested engine state.
func (w *Windowed) Snapshot(out io.Writer) error {
	g := windowedGob{
		Engine:        w.engine.Name(),
		NextID:        w.nextID,
		PairsEmitted:  w.pairsEmitted,
		DocsProcessed: w.docsProcessed,
		Duplicates:    w.duplicates,
	}
	for id := range w.store {
		g.Store = append(g.Store, w.store[id])
	}
	sort.Slice(g.Store, func(i, j int) bool { return g.Store[i].ID < g.Store[j].ID })
	var eng bytes.Buffer
	if err := w.engine.Snapshot(&eng); err != nil {
		return fmt.Errorf("join: snapshot %s engine: %w", g.Engine, err)
	}
	g.EngineState = eng.Bytes()
	return gob.NewEncoder(out).Encode(g)
}

// Restore implements state.Snapshotter. The receiver must wrap the
// same engine kind the snapshot was taken from.
func (w *Windowed) Restore(r io.Reader) error {
	var g windowedGob
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return fmt.Errorf("join: decode windowed snapshot: %w", err)
	}
	if name := w.engine.Name(); name != g.Engine {
		return fmt.Errorf("join: windowed snapshot is for engine %s, restoring into %s", g.Engine, name)
	}
	if err := w.engine.Restore(bytes.NewReader(g.EngineState)); err != nil {
		return fmt.Errorf("join: restore %s engine: %w", g.Engine, err)
	}
	w.nextID = g.NextID
	w.pairsEmitted = g.PairsEmitted
	w.docsProcessed = g.DocsProcessed
	w.duplicates = g.Duplicates
	w.store = make(map[uint64]document.Document, len(g.Store))
	w.storeBytes = 0
	for _, d := range g.Store {
		w.storeDoc(d)
	}
	w.updateSizes()
	return nil
}

// multiStateGob is the spill form of a Multi window state: the
// Windowed snapshot, whose documents are held under their arrival
// numbers, and the document id of every held arrival from Base on.
type multiStateGob struct {
	Base   uint64
	IDs    []uint64
	Window []byte
}

// Snapshot implements state.Snapshotter for a Multi window state, the
// governor's spill unit. Its classes stay resident.
func (s *winState) Snapshot(out io.Writer) error {
	var win bytes.Buffer
	if err := s.win.Snapshot(&win); err != nil {
		return err
	}
	return gob.NewEncoder(out).Encode(multiStateGob{Base: s.base, IDs: s.ids, Window: win.Bytes()})
}

// Restore implements state.Snapshotter.
func (s *winState) Restore(r io.Reader) error {
	var g multiStateGob
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return fmt.Errorf("join: decode multi window state: %w", err)
	}
	if err := s.win.Restore(bytes.NewReader(g.Window)); err != nil {
		return err
	}
	s.base, s.ids = g.Base, append(s.ids[:0], g.IDs...)
	clear(s.arrival)
	for i, id := range s.ids {
		s.arrival[id] = s.base + uint64(i)
	}
	return nil
}
