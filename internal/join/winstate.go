package join

import (
	"math"
	"slices"

	"repro/internal/document"
)

// class is one window size's tumbling window over a state, and the
// queries subscribed to it.
type class struct {
	key     GroupKey
	state   *winState
	queries map[string]*standing

	// start is the arrival number the open window begins at; fill and
	// pairs count the open window's documents and partners.
	start   uint64
	fill    int
	pairs   int
	windows int
	forced  int
}

// tumble closes the class's window: later arrivals only.
func (c *class) tumble() {
	c.start = c.state.next
	c.fill, c.pairs = 0, 0
	c.windows++
}

// arrivalBytes approximates the bookkeeping of one held arrival: its
// slot in ids and its entry in the arrival map.
const arrivalBytes = 8 + 16

// winState is one window state — one Windowed, for FPJ one FP-tree —
// and the classes that read it. The Windowed holds every document
// under its arrival number, so the engine's partner ids are arrival
// numbers; ids turns them back into document ids.
type winState struct {
	key     GroupKey // the class that opened the state labels it
	win     *Windowed
	classes []*class

	// The held arrivals are [base, next); ids[a-base] is arrival a's
	// document id and arrival maps a document id to its latest arrival.
	base, next uint64
	ids        []uint64
	arrival    map[uint64]uint64
	keep       []document.Document // compaction scratch

	// partnerMissing counts partner ids the probe returned that the
	// window's store did not hold — impossible while engine and store
	// are updated together, so never silently skipped.
	partnerMissing int64

	// Per-document demux scratch, parallel to the resolved partners:
	// their stored documents, the lazily computed shared-pair counts
	// (-1 = not yet), and where an accepted pair sits in results
	// (-1 = no query accepted it yet).
	lefts   []document.Document
	shared  []int
	at      []int
	results []Result

	// Spill state: while spilled, the window lives in the governor's
	// store and incoming documents buffer in backlog; they replay
	// through the normal ingest path at reload, so results are delayed,
	// never lost. seq is the state's stable spill-store key;
	// spilledBytes remembers the resident footprint at spill time so
	// the drain path can tell whether reloading fits the budget.
	spilled      bool
	seq          int
	spilledBytes int64
	backlog      []document.Document
	backlogBytes int64
}

// low is the oldest arrival some class still reads.
func (s *winState) low() uint64 {
	low := s.next
	for _, c := range s.classes {
		low = min(low, c.start)
	}
	return max(low, s.base)
}

// queries counts the queries reading the state.
func (s *winState) queries() int {
	n := 0
	for _, c := range s.classes {
		n += len(c.queries)
	}
	return n
}

// MemBytes implements MemoryAccounter: the window and the arrival
// bookkeeping.
func (s *winState) MemBytes() int64 {
	return s.win.MemBytes() + int64(len(s.ids))*arrivalBytes
}

// forget evicts every held arrival.
func (s *winState) forget() {
	s.win.Tumble()
	clear(s.arrival)
	s.ids = s.ids[:0]
	s.base = s.next
}

// compact forgets the arrivals no class reads any more: all of them at
// once when every class's window is empty, otherwise by rebuilding the
// window from the live documents once the dead ones outnumber them (or
// when forced, once any are dead). That costs amortised O(1) per
// document and bounds what the state holds by twice its largest live
// window.
func (s *winState) compact(force bool) {
	if s.spilled {
		return
	}
	low := s.low()
	dead, live := low-s.base, s.next-low
	switch {
	case live == 0:
		s.forget()
	case dead > live || force && dead > 0:
		s.keep = s.keep[:0]
		for a := low; a < s.next; a++ {
			if d, ok := s.win.Doc(a); ok {
				s.keep = append(s.keep, d)
			}
		}
		for i, id := range s.ids[:dead] {
			if s.arrival[id] == s.base+uint64(i) {
				delete(s.arrival, id)
			}
		}
		s.ids = s.ids[:copy(s.ids, s.ids[dead:])]
		s.base = low
		s.win.refill(s.keep)
		clear(s.keep)
	}
}

// oldest is the class with the oldest start.
func (s *winState) oldest() *class {
	var o *class
	for _, c := range s.classes {
		if o == nil || c.start < o.start {
			o = c
		}
	}
	return o
}

// ingest runs one document through one state: it stores d under the
// next arrival number, probes once, demuxes the partners to every
// class's queries, then closes the windows that are full. A document id
// the state still holds inside some class's window is a duplicate
// delivery and is dropped for every class.
func (s *winState) ingest(d document.Document, maxWindowDocs int, out sink, onMatched func(string, int)) (forced int) {
	low := s.low()
	if a, held := s.arrival[d.ID]; held && a >= low {
		s.win.duplicates++
		s.win.ins.Duplicates.Inc()
		return 0
	}
	a := s.next
	s.next++
	s.arrival[d.ID] = a
	s.ids = append(s.ids, d.ID)
	held := d
	held.ID = a
	if partners := s.win.Partners(held); len(partners) > 0 {
		s.demux(d, partners, low, out, onMatched)
	}
	for _, c := range s.classes {
		c.fill++
		switch {
		case c.key.WindowDocs > 0 && c.fill >= c.key.WindowDocs:
			c.tumble()
		case maxWindowDocs > 0 && c.fill >= maxWindowDocs:
			// The guard against a manual window nobody tumbles (or a
			// configured window larger than the cap): evict rather than
			// grow without bound.
			c.tumble()
			c.forced++
			forced++
		}
	}
	s.compact(false)
	return forced
}

// demux cuts d's partners to the arrivals some class reads, in arrival
// order, and decides, for every query of every class, which partners of
// the class's window it accepts, on the input documents alone; the
// accepted pairs go to out. A result-level sink gets each accepted pair
// materialised the first time a query accepts it and shared by the
// queries after.
func (s *winState) demux(d document.Document, partners []uint64, low uint64, out sink, onMatched func(string, int)) {
	slices.Sort(partners) // the engine's row is ours to reorder and filter in place
	live, _ := slices.BinarySearch(partners, low)
	s.lefts, s.shared, s.at = s.lefts[:0], s.shared[:0], s.at[:0]
	held := partners[:0]
	for _, a := range partners[live:] {
		left, ok := s.win.Doc(a)
		if !ok {
			s.partnerMissing++
			s.win.ins.PartnerMissing.Inc()
			continue
		}
		left.ID = s.ids[a-s.base]
		held = append(held, a)
		s.lefts = append(s.lefts, left)
		s.shared = append(s.shared, -1)
		s.at = append(s.at, -1)
	}
	s.results = s.results[:0]
	accepted := 0
	for _, c := range s.classes {
		from, _ := slices.BinarySearch(held, c.start)
		c.pairs += len(held) - from
		for _, q := range c.queries {
			matched := 0
			for i := from; i < len(held); i++ {
				left := s.lefts[i]
				if q.spec.Theta > 0 {
					// Only queries with θ > 0 pay for the Classify pass, once
					// per pair however many of them there are.
					if s.shared[i] < 0 {
						_, s.shared[i] = document.Classify(left, d)
					}
					need := int(math.Ceil(q.spec.Theta * float64(min(left.Len(), d.Len()))))
					if s.shared[i] < need {
						continue
					}
				}
				if !matchInputs(q.spec.Filters, left, d) {
					continue
				}
				matched++
				first := s.at[i] < 0
				if first {
					s.at[i] = len(s.results)
					accepted++
				}
				switch {
				case out.pairs != nil:
					out.pairs(q.id, left, d)
				case out.results != nil:
					if first {
						s.results = s.win.Materialize(s.results, d, held[i:i+1])
						s.results[s.at[i]].Left = left.ID
					}
					out.results(q.id, s.results[s.at[i]])
				}
			}
			if matched > 0 {
				q.docsMatched++
				q.results += int64(matched)
				if onMatched != nil {
					onMatched(q.id, matched)
				}
			}
		}
	}
	if out.results == nil {
		// Materialize counts what it builds; pairs handed on as inputs
		// (or only counted) are this window's results all the same.
		s.win.ins.Results.Add(int64(accepted))
	}
}

// matchInputs reports whether the merged document of left and right
// would carry every filter pair: the merged document is the
// conflict-free union of its inputs, so it has a pair exactly when one
// of them does.
func matchInputs(filters []document.Pair, left, right document.Document) bool {
	for _, f := range filters {
		if !left.Has(f) && !right.Has(f) {
			return false
		}
	}
	return true
}
