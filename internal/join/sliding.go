package join

import (
	"fmt"

	"repro/internal/document"
)

// spillKindPane tags sliding-pane spill envelopes in the state store.
const spillKindPane = "sliding-pane"

// slidingPane is one pane of a sliding window together with its spill
// bookkeeping. A pane is *resident* when win != nil; a *spilled* pane
// has a verified on-disk copy and may or may not also be resident (a
// reloaded pane keeps its file — sealed panes never change, so the
// file stays valid and eviction from the pinned set is free).
type slidingPane struct {
	win     *Windowed
	seq     int   // pane sequence number == spill-store window key
	spilled bool  // a verified spill file exists
	lost    bool  // reload failed (corrupt/missing file); pane degraded away
	tick    int64 // LRU stamp of the last probe touching this pane
}

// Sliding implements count-based sliding windows over the join engines
// — the extension the paper leaves as future work ("for sliding
// windows, tree updates or frequent tree evictions and rebuilds are
// required", Sec. V-A).
//
// The window of size W sliding by S documents is maintained as W/S
// panes, each backed by its own engine instance (for FPJ, its own
// FP-tree). A new document probes every live pane and is inserted into
// the current one; when the current pane fills, the oldest pane is
// evicted wholesale — the pane granularity turns the expensive
// "remove one document from an FP-tree" operation into the cheap
// whole-tree eviction the tumbling design already relies on.
//
// Every pair of documents coexisting in some window instance is
// reported exactly once (at the arrival of the later document).
//
// With a memory Governor attached (SetGovernor), sealed panes spill to
// the governor's state store when accounted bytes cross the budget:
// the pane is snapshotted through the versioned CRC envelope, verified
// by read-back, and only then released from memory. Probes reload
// spilled panes through an LRU pinned set of at most
// Governor.MaxPinned resident copies, so windows larger than RAM work
// at the price of reload I/O. A reload that fails (disk fault, CRC
// mismatch) degrades: the pane's contribution is dropped for its
// remaining lifetime and the failure counted, never panicking.
type Sliding struct {
	mk    func() Engine
	panes []*slidingPane
	size  int // W, documents per full window
	slide int // S, documents per pane

	current   int // documents in the newest pane
	processed int

	gov     *Governor
	nextSeq int
	tick    int64
	dropped int // panes degraded away by reload failure
	forced  int // panes force-evicted early at rung 3

	ins Instruments
}

// NewSliding builds a sliding window of `size` documents advancing by
// `slide`; slide must divide size. The factory provides one engine per
// pane.
func NewSliding(size, slide int, mk func() Engine) (*Sliding, error) {
	if size <= 0 || slide <= 0 || size%slide != 0 {
		return nil, fmt.Errorf("join: sliding window needs slide dividing size, got %d/%d", size, slide)
	}
	s := &Sliding{mk: mk, size: size, slide: slide}
	s.panes = append(s.panes, &slidingPane{win: NewWindowed(mk()), seq: s.nextSeq})
	s.nextSeq++
	return s, nil
}

// SetGovernor attaches a memory governor (nil detaches). Attach before
// streaming documents; the governor is consulted on every Process.
func (s *Sliding) SetGovernor(g *Governor) { s.gov = g }

// Governor returns the attached governor (nil when none).
func (s *Sliding) Governor() *Governor { return s.gov }

// SetInstruments attaches aggregate live metrics: WindowDocs and
// TreeNodes are refreshed per Process with totals across resident
// panes (unlike Windowed, where they describe one window).
func (s *Sliding) SetInstruments(ins Instruments) { s.ins = ins }

// Process matches d against every document currently in the window and
// stores it. Results are the join pairs d completes.
func (s *Sliding) Process(d document.Document) []Result {
	if s.current == s.slide {
		// Advance the window: open a new pane, evict the oldest once
		// the pane count exceeds W/S.
		s.panes = append(s.panes, &slidingPane{win: NewWindowed(s.mk()), seq: s.nextSeq})
		s.nextSeq++
		if len(s.panes) > s.size/s.slide {
			s.evictOldest()
		}
		s.current = 0
	}
	s.current++
	s.processed++
	s.tick++

	var results []Result
	// Probe the older panes without inserting, reloading spilled panes
	// through the pinned set as needed.
	last := len(s.panes) - 1
	for _, pane := range s.panes[:last] {
		if pane.win == nil {
			if pane.lost || !s.reload(pane) {
				continue
			}
		}
		pane.tick = s.tick
		results = append(results, pane.win.ProbeOnly(d)...)
	}
	// The newest pane both probes and stores.
	s.panes[last].tick = s.tick
	results = append(results, s.panes[last].win.Process(d)...)

	s.govern()
	s.updateGauges()
	return results
}

// reload brings a spilled pane back into memory, evicting the
// least-recently-used other reloaded pane when the pinned set is full.
// On failure the pane is marked lost — its documents can no longer
// contribute partners — and the governor has already counted the
// failure; the stream carries on.
func (s *Sliding) reload(pane *slidingPane) bool {
	w := NewWindowed(s.mk())
	if err := s.gov.Reload(pane.seq, spillKindPane, w); err != nil {
		pane.lost = true
		pane.spilled = false
		s.dropped++
		return false
	}
	pane.win = w
	s.enforcePinned(pane)
	return true
}

// enforcePinned drops resident copies of spilled panes beyond the
// pinned-set capacity, least recently used first. The just-reloaded
// pane is exempt — it is about to be probed.
func (s *Sliding) enforcePinned(keep *slidingPane) {
	limit := s.gov.MaxPinned()
	for {
		resident := 0
		var lru *slidingPane
		for _, p := range s.panes {
			if p == keep || p.win == nil || !p.spilled {
				continue
			}
			resident++
			if lru == nil || p.tick < lru.tick {
				lru = p
			}
		}
		if resident < limit || lru == nil {
			return
		}
		// Sealed panes never change after spilling, so the on-disk copy
		// is still valid: dropping the memory copy is free.
		lru.win = nil
	}
}

// govern runs the degradation ladder after each document: account
// resident bytes, spill sealed panes while over budget, force-evict
// the oldest pane at rung 3.
func (s *Sliding) govern() {
	if s.gov == nil {
		return
	}
	level := s.gov.Account(s.MemBytes())
	if level >= PressureSpill && s.gov.CanSpill() {
		// Spill sealed resident panes oldest-first until back under
		// budget (the newest pane is still mutable and never spills).
		for _, pane := range s.panes[:len(s.panes)-1] {
			if s.gov.Accounted() <= s.gov.Budget() {
				break
			}
			if pane.win == nil || pane.lost {
				continue
			}
			if !pane.spilled {
				if _, err := s.gov.Spill(pane.seq, spillKindPane, pane.win); err != nil {
					continue // counted by the governor; pane stays resident
				}
				pane.spilled = true
			}
			pane.win = nil
			s.gov.Account(s.MemBytes())
		}
		level = s.gov.Level()
	}
	if level >= PressureTumble {
		// Rung 3: reclaim memory now by force-evicting the oldest pane
		// that still holds a resident copy — the window shrinks early,
		// trading result completeness for survival.
		for i, pane := range s.panes[:len(s.panes)-1] {
			if pane.win == nil {
				continue
			}
			s.forced++
			s.gov.ForcedTumble()
			if pane.spilled {
				s.gov.Drop(pane.seq)
			}
			if i == 0 {
				s.evictOldest()
			} else {
				pane.win = nil
				pane.spilled = false
				pane.lost = true
			}
			s.gov.Account(s.MemBytes())
			break
		}
	}
}

// evictOldest removes pane 0. The slot is nilled before reslicing so
// the evicted pane (and its whole FP-tree) is unreachable through the
// slice's backing array — reslicing alone would keep it alive until
// the backing array itself is dropped.
func (s *Sliding) evictOldest() {
	old := s.panes[0]
	s.panes[0] = nil
	s.panes = s.panes[1:]
	if old.spilled {
		s.gov.Drop(old.seq)
	}
}

// updateGauges refreshes the aggregate window gauges.
func (s *Sliding) updateGauges() {
	if s.ins.WindowDocs != nil {
		s.ins.WindowDocs.SetInt(s.Size())
	}
	if s.ins.TreeNodes != nil {
		total := 0
		for _, pane := range s.panes {
			if pane.win == nil {
				continue
			}
			if fpj, ok := pane.win.engine.(*FPJ); ok {
				total += fpj.Tree().NodeCount()
			}
		}
		s.ins.TreeNodes.SetInt(total)
	}
}

// MemBytes implements MemoryAccounter: the sum over resident panes.
// Spilled panes cost nothing until reloaded.
func (s *Sliding) MemBytes() int64 {
	var n int64
	for _, pane := range s.panes {
		if pane.win != nil {
			n += pane.win.MemBytes()
		}
	}
	return n
}

// Size reports the number of documents currently resident in the
// window (documents of spilled or lost panes are not counted).
func (s *Sliding) Size() int {
	n := 0
	for _, pane := range s.panes {
		if pane.win != nil {
			n += pane.win.Size()
		}
	}
	return n
}

// Panes reports the live pane count (diagnostics).
func (s *Sliding) Panes() int { return len(s.panes) }

// SpilledPanes reports how many panes are currently spilled without a
// resident copy (diagnostics and tests).
func (s *Sliding) SpilledPanes() int {
	n := 0
	for _, pane := range s.panes {
		if pane.win == nil && pane.spilled {
			n++
		}
	}
	return n
}

// DroppedPanes reports how many panes were degraded away by reload
// failures over the stream's lifetime.
func (s *Sliding) DroppedPanes() int { return s.dropped }

// ForcedEvictions reports how many panes rung 3 evicted early.
func (s *Sliding) ForcedEvictions() int { return s.forced }

// ProbeOnly matches d against the stored documents of the window
// without inserting it (used by Sliding for the older panes).
func (w *Windowed) ProbeOnly(d document.Document) []Result {
	partners := w.engine.Probe(d)
	if len(partners) == 0 {
		return nil
	}
	w.found(len(partners))
	return w.Materialize(make([]Result, 0, len(partners)), d, partners)
}
