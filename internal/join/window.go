package join

import (
	"time"

	"repro/internal/document"
	"repro/internal/telemetry"
)

// Result is one joined pair together with the merged output document
// (the natural-join tuple).
type Result struct {
	Left   uint64
	Right  uint64
	Merged document.Document
}

// Windowed wraps an Engine with tumbling-window semantics and join
// result materialisation. Incoming documents are matched against the
// documents already stored in the current window (probe-then-insert),
// so every joinable pair within one window is produced exactly once;
// when the window tumbles the entire state is evicted (paper Sec. V-A).
//
// The result path has two steps. The pair-level step (Partners)
// deduplicates, probes, stores and yields partner *ids*; Materialize
// builds merged documents for whichever of those ids the caller wants
// delivered. Process is the composition "all partners, materialise
// all"; the scale-out Joiner runs the steps itself and filters the ids
// by pair ownership in between, so a replicated pair costs a probe per
// replica but a merged document only on the task that owns it.
type Windowed struct {
	engine Engine
	// store holds the current window's documents. It doubles as the
	// duplicate-delivery guard: the partitioning replicates a document
	// across Joiners, never twice to the same one, but the broadcast
	// fallback can overlap a partition match, so an id already stored
	// is ignored and the window stays exactly-once.
	store  map[uint64]document.Document
	nextID uint64

	pairsEmitted  int
	docsProcessed int
	duplicates    int

	// storeBytes tracks the accounted footprint of the window document
	// store incrementally, so MemBytes answers in O(1) on every
	// admission the memory governor meters.
	storeBytes int64

	ins Instruments
	// fpj caches the engine's concrete type when TreeNodes is attached,
	// so the per-document size refresh skips the type assertion.
	fpj *FPJ
}

// Instruments are the optional live metrics of a windowed joiner. Every
// field is nil-safe, so the zero value is a complete no-op; populate
// the fields from a telemetry.Registry and attach with SetInstruments.
type Instruments struct {
	// ProbeSeconds profiles each probe-then-insert against the engine.
	ProbeSeconds *telemetry.Histogram
	// Partners counts the partner ids the engine returned — every pair
	// the window found, whether or not anyone materialises it.
	Partners *telemetry.Counter
	// Results counts materialised join results (merged documents built).
	Results *telemetry.Counter
	// Duplicates counts suppressed duplicate deliveries.
	Duplicates *telemetry.Counter
	// PartnerMissing counts partner ids a probe returned that the window
	// store does not hold (Multi drops them instead of delivering);
	// anything but 0 means engine and store disagree.
	PartnerMissing *telemetry.Counter
	// WindowDocs tracks the number of documents stored in the current
	// window.
	WindowDocs *telemetry.Gauge
	// TreeNodes tracks the engine's FP-tree node count; it stays zero
	// for engines without a tree (NLJ, HBJ).
	TreeNodes *telemetry.Gauge
}

// SetInstruments attaches live metrics to the windowed joiner.
func (w *Windowed) SetInstruments(ins Instruments) {
	w.ins = ins
	w.fpj = nil
	if ins.TreeNodes != nil {
		w.fpj, _ = w.engine.(*FPJ)
	}
}

// updateSizes refreshes the window-size gauges after state changed.
func (w *Windowed) updateSizes() {
	w.ins.WindowDocs.SetInt(len(w.store))
	if w.fpj != nil {
		w.ins.TreeNodes.SetInt(w.fpj.Tree().NodeCount())
	}
}

// NewWindowed builds a windowed joiner on top of the given engine.
func NewWindowed(e Engine) *Windowed {
	return &Windowed{
		engine: e,
		store:  make(map[uint64]document.Document),
		nextID: 1,
	}
}

// Engine exposes the wrapped engine.
func (w *Windowed) Engine() Engine { return w.engine }

// Partners is the pair-level step for one document: it probes the
// current window for d's join partners and stores d. The returned ids
// are engine-owned, valid (and free to reorder or filter in place)
// until the next call on w; nothing is merged. A document id already in
// this window is ignored (duplicate delivery) and yields no partners.
func (w *Windowed) Partners(d document.Document) []uint64 {
	if _, dup := w.store[d.ID]; dup {
		w.duplicates++
		w.ins.Duplicates.Inc()
		return nil
	}
	w.docsProcessed++
	// Only an attached histogram pays for the clock reads.
	var start time.Time
	if w.ins.ProbeSeconds != nil {
		start = time.Now()
	}
	partners := w.engine.ProbeInsert(d)
	if w.ins.ProbeSeconds != nil {
		w.ins.ProbeSeconds.Observe(time.Since(start))
	}
	w.storeDoc(d)
	w.found(len(partners))
	w.updateSizes()
	return partners
}

// found accounts n partner ids yielded by a probe.
func (w *Windowed) found(n int) {
	w.pairsEmitted += n
	w.ins.Partners.Add(int64(n))
}

// Materialize appends to dst one Result per id in partners — the
// merged natural-join document of that stored partner and d — and
// returns the extended slice. partners is any subset of what the
// pair-level step (or Engine.Probe) yielded for d; an id the window
// does not hold is skipped. Merged.ID numbers the results this window
// state has materialised, in order, so it is dense per Windowed and
// says nothing across tasks.
func (w *Windowed) Materialize(dst []Result, d document.Document, partners []uint64) []Result {
	before := len(dst)
	for _, id := range partners {
		other, ok := w.store[id]
		if !ok {
			continue
		}
		dst = append(dst, Result{Left: id, Right: d.ID, Merged: document.Merge(w.nextID, other, d)})
		w.nextID++
	}
	w.ins.Results.Add(int64(len(dst) - before))
	return dst
}

// Process matches d against the current window and stores it. The
// returned results materialise the merged join documents of every
// partner. A document id already seen in this window is ignored
// (duplicate delivery).
func (w *Windowed) Process(d document.Document) []Result {
	partners := w.Partners(d)
	if len(partners) == 0 {
		return nil
	}
	return w.Materialize(make([]Result, 0, len(partners)), d, partners)
}

// storeDoc adds d to the window store, keeping the byte account in
// step. The per-entry constant covers the map bucket slot beyond the
// document's own footprint.
func (w *Windowed) storeDoc(d document.Document) {
	w.store[d.ID] = d
	w.storeBytes += d.MemBytes() + windowMapEntryBytes
}

// windowMapEntryBytes approximates one store map entry's overhead
// (uint64 key + bucket share) beyond the Document value itself.
const windowMapEntryBytes = 16

// Tumble closes the window: it reports the documents and pairs the
// window saw and evicts all state. The store keeps its buckets, so the
// next window does not regrow them.
func (w *Windowed) Tumble() (docs, pairs int) {
	docs, pairs = w.docsProcessed, w.pairsEmitted
	w.engine.Reset()
	clear(w.store)
	w.docsProcessed = 0
	w.pairsEmitted = 0
	w.duplicates = 0
	w.storeBytes = 0
	w.updateSizes()
	return docs, pairs
}

// refill evicts the window and stores docs again without probing them:
// the compaction of a Multi window state, some of whose documents no
// window reads any more. The counters are kept.
func (w *Windowed) refill(docs []document.Document) {
	w.engine.Reset()
	clear(w.store)
	w.storeBytes = 0
	for _, d := range docs {
		w.engine.Insert(d)
		w.storeDoc(d)
	}
	w.updateSizes()
}

// MemBytes implements MemoryAccounter: the window document store and
// the wrapped engine's own account. O(1) — the store bytes are tracked
// incrementally and engines account incrementally too.
func (w *Windowed) MemBytes() int64 {
	return w.storeBytes + EngineMemBytes(w.engine)
}

// Size reports the number of documents stored in the current window.
func (w *Windowed) Size() int { return len(w.store) }

// Doc returns the stored document with the given id, if it is in the
// current window. The multi-query demux uses it to turn partner ids
// into the left-hand inputs its predicates and pair deliveries need.
func (w *Windowed) Doc(id uint64) (document.Document, bool) {
	d, ok := w.store[id]
	return d, ok
}

// Duplicates reports how many duplicate deliveries were suppressed in
// the current window.
func (w *Windowed) Duplicates() int { return w.duplicates }
