package join

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/document"
)

// This file implements the multi-query layer over the window engines:
// many standing queries evaluated against one ingested stream, sharing
// window state across queries and across window sizes. The sharing
// follows Dossinger & Michel's multi-query join optimization: the
// expensive operator state — the window store and its probe index, for
// FPJ one FP-tree — is kept once per engine and sized for the largest
// window that reads it, while everything cheap is kept per window size
// or per query:
//
//   - a window class (one per engine and window size) is a tumbling
//     window over its state's arrivals. It keeps only the arrival number
//     its open window starts at; its window is every held document from
//     that number on, an arrival-index cut;
//   - a query's predicates (θ strength, attribute filters) are applied
//     as a demultiplexing step over its class's cut of the shared probe.
//
// A document is therefore parsed once, and inserted and probed once per
// state, not once per query or per window size. The state holds every
// document under its arrival number, so a probe's partners sort into
// arrival order and each class's window is a suffix of them; partners
// are delivered in that order. A tumble moves one class's start. The
// state forgets the documents behind every class's start: at once when
// all classes tumbled together, otherwise by rebuilding from the live
// documents once the dead ones outnumber them.
//
// Results are shared the same way. The probe yields partner ids
// (Windowed.Partners); every predicate is decided on the two input
// documents — θ by document.Classify, once per pair however many
// classes see it, and a filter pair f by left.Has(f) || right.Has(f),
// which equals merged.Has(f) because the merged document is the
// conflict-free union of its inputs — and what a query accepts is
// delivered as that pair of inputs (PairFunc). Nothing is merged to
// evaluate a predicate; a consumer that wants merged documents (Ingest,
// Tumble, DrainSpilled) gets each accepted pair materialised once per
// state by Windowed.Materialize, however many queries accept it.

// QuerySpec declares one standing query.
type QuerySpec struct {
	// Engine is the join engine of the query's window state ("FPJ"
	// default, "NLJ", "HBJ"). Queries with different engines never
	// share state.
	Engine string
	// WindowDocs > 0 tumbles the query's window automatically after
	// that many documents. 0 means the window only tumbles on an
	// explicit Tumble call (or a forced tumble at the max-window-docs
	// guard); such manual windows get private state — sharing them
	// would let one tenant's tumble evict another tenant's window, and a
	// window nobody tumbles would grow every sharer's probe.
	WindowDocs int
	// Theta in [0,1] is the query's join-strength predicate: a result
	// pair (L, R) sharing s attribute-value pairs is delivered only if
	// s >= ceil(Theta * min(|L|, |R|)). 0 keeps the paper's natural
	// join (any shared pair); 1 demands containment of the smaller
	// document's pair set. Theta never changes what is stored in the
	// window, only which shared-probe results the query receives, so
	// it composes with state sharing.
	Theta float64
	// Filters are canonical attribute-value pairs the merged result
	// document must contain for the query to receive it — decided on
	// the pair's inputs, one of which must carry each filter pair.
	// Filters apply to results, not to ingestion: the window state stays
	// identical across queries, which is what makes it shareable.
	Filters []document.Pair
}

// withDefaults normalises the spec.
func (s QuerySpec) withDefaults() QuerySpec {
	if s.Engine == "" {
		s.Engine = "FPJ"
	}
	out := s
	// Sort filters so equal filter sets compare equal in tests and
	// render deterministically.
	if len(s.Filters) > 0 {
		f := make([]document.Pair, len(s.Filters))
		copy(f, s.Filters)
		sort.Slice(f, func(i, j int) bool {
			if f[i].Attr != f[j].Attr {
				return f[i].Attr < f[j].Attr
			}
			return f[i].Val < f[j].Val
		})
		out.Filters = f
	}
	return out
}

// Validate rejects malformed specs.
func (s QuerySpec) Validate() error {
	if s.Engine != "" {
		if _, err := New(s.Engine); err != nil {
			return err
		}
	}
	if s.WindowDocs < 0 {
		return fmt.Errorf("join: negative window size %d", s.WindowDocs)
	}
	if s.Theta < 0 || s.Theta > 1 {
		return fmt.Errorf("join: theta %g outside [0,1]", s.Theta)
	}
	return nil
}

// GroupKey identifies a window class: the queries whose keys are equal
// share one window, boundaries included.
type GroupKey struct {
	Engine     string
	WindowDocs int
	// owner is empty for shared classes; manual-window (WindowDocs 0)
	// queries carry their query id here so each gets private state.
	owner string
}

// String renders the key as a stable label, e.g. "FPJ/w1000" or
// "FPJ/manual/q3" for a private manual-window class.
func (k GroupKey) String() string {
	if k.owner != "" {
		return fmt.Sprintf("%s/manual/%s", k.Engine, k.owner)
	}
	return fmt.Sprintf("%s/w%d", k.Engine, k.WindowDocs)
}

// groupKey derives the class key for a query.
func (s QuerySpec) groupKey(queryID string) GroupKey {
	if s.WindowDocs == 0 {
		return GroupKey{Engine: s.Engine, owner: queryID}
	}
	return GroupKey{Engine: s.Engine, WindowDocs: s.WindowDocs}
}

// shareFactor bounds the window sizes one state serves: a class joins a
// state only while the state's largest window stays within this factor
// of its smallest. Past it, a small window's probe walks a tree made
// mostly of documents outside its window (DESIGN.md, "Multi-query
// serving", has the measurement).
const shareFactor = 4

// ErrDuplicateQuery is wrapped by Register when the id is already taken.
var ErrDuplicateQuery = errors.New("join: query already registered")

// PairFunc receives one joinable pair a query accepted: left is the
// partner the window held, right the arriving document. Both are
// immutable and may be retained.
type PairFunc func(query string, left, right document.Document)

// sink is where a state's accepted pairs go: to a pair-level consumer as
// the two inputs, or to a result-level consumer as the materialised
// Result. The zero sink counts and discards.
type sink struct {
	pairs   PairFunc
	results func(query string, r Result)
}

// standing is one registered query.
type standing struct {
	id    string
	spec  QuerySpec
	class *class

	docsMatched int64
	results     int64
}

// spillKindGroup tags multi-state spill envelopes in the state store.
const spillKindGroup = "multi-group"

// groupBacklogMax caps how many documents a spilled state buffers
// before it is forced back into memory: past this point the backlog
// itself starts costing what the spill saved.
const groupBacklogMax = 256

// QueryStatus is the observable state of one standing query.
type QueryStatus struct {
	ID   string
	Spec QuerySpec
	// Group labels the query's window class (engine and window size);
	// SharedWith is the number of other queries on the same window
	// state, whatever their window size.
	Group      string
	SharedWith int
	// DocsMatched counts ingested documents that produced at least one
	// result for this query; Results counts delivered results.
	DocsMatched int64
	Results     int64
	// WindowDocs is the current fill of the class's open window;
	// Windows counts completed tumbles (including forced ones).
	WindowDocs int
	Windows    int
	// PartnerMissing counts probe partners the state's window store did
	// not hold (dropped, never delivered); anything but 0 is a bug in
	// the window state.
	PartnerMissing int64
}

// Multi hosts many standing queries over shared window state. It is
// not safe for concurrent use — callers (core.QuerySet) serialise.
type Multi struct {
	states  []*winState
	classes map[GroupKey]*class
	queries map[string]*standing
	// mkInstruments, when set, supplies per-state join instruments at
	// state creation (labelled by the key of the class opening it).
	mkInstruments func(GroupKey) Instruments
	// onMatched, when set, is told once per (document, query) how many
	// of the document's pairs the query accepted.
	onMatched func(query string, results int)

	gov         *Governor
	nextSeq     int // spill-store keys for states
	shareFactor int
}

// NewMulti creates an empty multi-query joiner.
func NewMulti() *Multi {
	return &Multi{
		classes:     make(map[GroupKey]*class),
		queries:     make(map[string]*standing),
		shareFactor: shareFactor,
	}
}

// InstrumentWith installs a per-state instrument factory, applied to
// states created after the call.
func (m *Multi) InstrumentWith(f func(GroupKey) Instruments) { m.mkInstruments = f }

// OnMatched installs a hook called once per ingested (or replayed)
// document and query that accepted at least one of its pairs, with the
// number accepted — the per-query counters of a telemetry layer.
func (m *Multi) OnMatched(f func(query string, results int)) { m.onMatched = f }

// SetGovernor attaches a memory governor (nil detaches): window states
// then spill to the governor's store under pressure, with incoming
// documents backlogged and replayed at reload.
func (m *Multi) SetGovernor(g *Governor) { m.gov = g }

// Governor returns the attached governor (nil when none).
func (m *Multi) Governor() *Governor { return m.gov }

// Register adds a standing query under the given id. The query joins
// the existing class for its (engine, window) key, or opens a new class
// on a state it can share, or on a new state.
func (m *Multi) Register(id string, spec QuerySpec) error {
	if id == "" {
		return fmt.Errorf("join: empty query id")
	}
	if _, dup := m.queries[id]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateQuery, id)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	spec = spec.withDefaults()
	key := spec.groupKey(id)
	c, ok := m.classes[key]
	if !ok {
		s := m.stateFor(key)
		if s == nil {
			eng, err := New(spec.Engine)
			if err != nil {
				return err
			}
			s = &winState{key: key, win: NewWindowed(eng), base: 1, next: 1, arrival: make(map[uint64]uint64), seq: m.nextSeq}
			m.nextSeq++
			if m.mkInstruments != nil {
				s.win.SetInstruments(m.mkInstruments(key))
			}
			m.states = append(m.states, s)
		}
		c = &class{key: key, state: s, queries: make(map[string]*standing), start: s.next}
		s.classes = append(s.classes, c)
		m.classes[key] = c
	}
	q := &standing{id: id, spec: spec, class: c}
	c.queries[id] = q
	m.queries[id] = q
	return nil
}

// stateFor picks the first state the new class key can share: same
// engine, not private, resident (a spilled state's backlog holds
// documents that arrived before the class), and with all window sizes,
// key's included, within the share factor. Nil when none qualifies.
func (m *Multi) stateFor(key GroupKey) *winState {
	if key.owner != "" {
		return nil
	}
	for _, s := range m.states {
		lo, hi := key.WindowDocs, key.WindowDocs
		for _, c := range s.classes {
			lo, hi = min(lo, c.key.WindowDocs), max(hi, c.key.WindowDocs)
		}
		if s.key.owner == "" && s.key.Engine == key.Engine && !s.spilled && hi <= m.shareFactor*lo {
			return s
		}
	}
	return nil
}

// Unregister removes a query. A class goes with its last query, and a
// state with its last class. It reports whether the id was registered.
func (m *Multi) Unregister(id string) bool {
	q, ok := m.queries[id]
	if !ok {
		return false
	}
	delete(m.queries, id)
	c := q.class
	delete(c.queries, id)
	if len(c.queries) > 0 {
		return true
	}
	delete(m.classes, c.key)
	s := c.state
	s.classes = slices.DeleteFunc(s.classes, func(o *class) bool { return o == c })
	if len(s.classes) > 0 {
		s.compact(false)
		return true
	}
	if s.spilled {
		m.gov.Drop(s.seq)
	}
	m.states = slices.DeleteFunc(m.states, func(o *winState) bool { return o == s })
	return true
}

// Ingest feeds one document to every state and delivers each accepted
// pair as a materialised Result: IngestPairs' pair-level step, then one
// Windowed.Materialize per pair some query of the state accepted. A nil
// deliver counts without materialising. The returned count is the
// number of forced tumbles fired.
func (m *Multi) Ingest(d document.Document, maxWindowDocs int, deliver func(query string, r Result)) (forced int) {
	return m.ingest(d, maxWindowDocs, sink{results: deliver})
}

// IngestPairs feeds one document to every state: each state probes and
// inserts it exactly once for partner ids, cuts them to each class's
// window, decides every query's θ/filter predicates on the input
// documents, and hands each accepted (query, partner, d) to deliver in
// the partners' arrival order — nothing is merged. Spilled states
// buffer the document instead and replay it at reload. The returned
// count is the number of forced tumbles fired, by the max-window-docs
// guard or by the memory governor's rung 3 (0 when both are off).
func (m *Multi) IngestPairs(d document.Document, maxWindowDocs int, deliver PairFunc) (forced int) {
	return m.ingest(d, maxWindowDocs, sink{pairs: deliver})
}

func (m *Multi) ingest(d document.Document, maxWindowDocs int, out sink) (forced int) {
	for _, s := range m.states {
		if s.spilled {
			s.backlog = append(s.backlog, d)
			s.backlogBytes += d.MemBytes()
			if len(s.backlog) >= groupBacklogMax {
				forced += m.reloadState(s, maxWindowDocs, out)
			}
			continue
		}
		forced += s.ingest(d, maxWindowDocs, out, m.onMatched)
	}
	forced += m.govern(maxWindowDocs, out)
	return forced
}

// govern walks the degradation ladder after each ingest: account
// resident bytes, spill the largest states while over budget,
// force-tumble at rung 3, and drain spilled states back in when
// pressure subsides.
func (m *Multi) govern(maxWindowDocs int, out sink) (forced int) {
	if m.gov == nil {
		return 0
	}
	level := m.gov.Account(m.MemBytes())
	if level >= PressureSpill && m.gov.CanSpill() {
		// Spill largest-first: the biggest window state buys the most
		// relief per spill file.
		for m.gov.Accounted() > m.gov.Budget() {
			s := m.largestResident()
			if s == nil {
				break
			}
			bytes := s.MemBytes()
			if _, err := m.gov.Spill(s.seq, spillKindGroup, s); err != nil {
				break // counted by the governor; the state stays resident
			}
			// The snapshot on disk carries the real window, so this
			// evicts memory only.
			s.forget()
			s.spilled = true
			s.spilledBytes = bytes
			m.gov.Account(m.MemBytes())
		}
		level = m.gov.Level()
	}
	if level >= PressureTumble {
		// Rung 3: emit the oldest window of the largest resident state
		// early — the forced-tumble guard wielded for memory instead of
		// doc count — and rebuild without the documents it released.
		if s := m.largestResident(); s != nil {
			if c := s.oldest(); c.fill > 0 {
				c.tumble()
				c.forced++
				forced++
				s.compact(true)
				m.gov.ForcedTumble()
				m.gov.Account(m.MemBytes())
			}
		}
	}
	if m.gov.Level() == PressureOK {
		// Pressure subsided: drain one spilled state back in per
		// ingest, but only when its remembered footprint actually fits
		// under the budget — otherwise spill/reload would ping-pong at
		// the threshold.
		for _, s := range m.states {
			if s.spilled && m.gov.Accounted()+s.spilledBytes < m.gov.Budget() {
				forced += m.reloadState(s, maxWindowDocs, out)
				m.gov.Account(m.MemBytes())
				break
			}
		}
	}
	return forced
}

// largestResident picks the non-spilled state with the biggest
// accounted footprint (nil when every state is spilled or empty).
func (m *Multi) largestResident() *winState {
	var best *winState
	var bestBytes int64
	for _, s := range m.states {
		if s.spilled {
			continue
		}
		if b := s.MemBytes(); b > bestBytes {
			best, bestBytes = s, b
		}
	}
	return best
}

// reloadState restores a spilled state's window and replays its
// backlog through the normal ingest path, delivering the delayed
// results. A reload failure (disk fault, CRC mismatch — already
// counted by the governor) degrades: the state restarts from an empty
// window and only the backlog replays, so the stream continues without
// the lost state instead of crashing.
func (m *Multi) reloadState(s *winState, maxWindowDocs int, out sink) (forced int) {
	if err := m.gov.Reload(s.seq, spillKindGroup, s); err != nil {
		// A failed restore may have left partial state behind; clear to
		// a known-empty window before replaying.
		s.forget()
	}
	s.spilled = false
	s.spilledBytes = 0
	backlog := s.backlog
	s.backlog, s.backlogBytes = nil, 0
	s.compact(false) // classes may have left while it was spilled
	for _, d := range backlog {
		forced += s.ingest(d, maxWindowDocs, out, m.onMatched)
	}
	return forced
}

// DrainSpilled reloads every spilled state regardless of pressure,
// replaying backlogs and delivering their delayed results — the final
// flush a caller runs at shutdown (or a test at end of stream) so no
// backlogged document's results are lost. Returns the number of forced
// tumbles fired during replay.
func (m *Multi) DrainSpilled(maxWindowDocs int, deliver func(string, Result)) (forced int) {
	return m.drainSpilled(maxWindowDocs, sink{results: deliver})
}

// DrainSpilledPairs is DrainSpilled for a pair-level consumer.
func (m *Multi) DrainSpilledPairs(maxWindowDocs int, deliver PairFunc) (forced int) {
	return m.drainSpilled(maxWindowDocs, sink{pairs: deliver})
}

func (m *Multi) drainSpilled(maxWindowDocs int, out sink) (forced int) {
	for _, s := range m.states {
		if s.spilled {
			forced += m.reloadState(s, maxWindowDocs, out)
		}
	}
	// Re-run the ladder rather than just re-accounting: the reloads may
	// have pushed residency back over budget, and leaving the level at
	// shed would refuse every later ingest for state a spill could
	// relieve right now.
	forced += m.govern(maxWindowDocs, out)
	return forced
}

// MemBytes implements MemoryAccounter: resident window state plus the
// backlogs of spilled states.
func (m *Multi) MemBytes() int64 {
	var n int64
	for _, s := range m.states {
		n += s.MemBytes() + s.backlogBytes
	}
	return n
}

// matchFilters reports whether the merged result carries every filter
// pair (Demux: an external result's inputs are gone).
func matchFilters(filters []document.Pair, merged document.Document) bool {
	for _, f := range filters {
		if !merged.Has(f) {
			return false
		}
	}
	return true
}

// Tumble closes the window of the class hosting the given query. All
// queries of the class observe the eviction — a class has shared
// window boundaries (manual-window queries are private for exactly this
// reason); other classes on the same state keep their windows. A
// spilled state is reloaded first so the closing window's backlogged
// results still emit through deliver (deliver may be nil when the
// caller has no sink). It reports the closed window's document and pair
// counts.
func (m *Multi) Tumble(id string, maxWindowDocs int, deliver func(string, Result)) (docs, pairs int, ok bool) {
	return m.tumble(id, maxWindowDocs, sink{results: deliver})
}

// TumblePairs is Tumble for a pair-level consumer.
func (m *Multi) TumblePairs(id string, maxWindowDocs int, deliver PairFunc) (docs, pairs int, ok bool) {
	return m.tumble(id, maxWindowDocs, sink{pairs: deliver})
}

func (m *Multi) tumble(id string, maxWindowDocs int, out sink) (docs, pairs int, ok bool) {
	q, found := m.queries[id]
	if !found {
		return 0, 0, false
	}
	c := q.class
	if c.state.spilled {
		m.reloadState(c.state, maxWindowDocs, out)
	}
	docs, pairs = c.fill, c.pairs
	c.tumble()
	c.state.compact(false)
	if m.gov != nil {
		m.gov.Account(m.MemBytes())
	}
	return docs, pairs, true
}

// Demux delivers an externally produced join result (e.g. from a
// scale-out cluster run whose Joiners own the window state) to every
// query of the class matching the external run's engine and window
// size. Only filter predicates apply on this path: θ needs the input
// documents, which an external result no longer carries — the external
// join already enforced the paper's ≥ 1 shared pair.
func (m *Multi) Demux(engine string, windowDocs int, r Result, deliver func(string, Result)) {
	c, ok := m.classes[GroupKey{Engine: engine, WindowDocs: windowDocs}]
	if !ok {
		return
	}
	for _, q := range c.queries {
		if !matchFilters(q.spec.Filters, r.Merged) {
			continue
		}
		deliver(q.id, r)
		q.results++
	}
}

// Status reports one query's observable state.
func (m *Multi) Status(id string) (QueryStatus, bool) {
	q, ok := m.queries[id]
	if !ok {
		return QueryStatus{}, false
	}
	return QueryStatus{
		ID:             q.id,
		Spec:           q.spec,
		Group:          q.class.key.String(),
		SharedWith:     q.class.state.queries() - 1,
		DocsMatched:    q.docsMatched,
		Results:        q.results,
		WindowDocs:     q.class.fill,
		Windows:        q.class.windows,
		PartnerMissing: q.class.state.partnerMissing,
	}, true
}

// All lists every query's status, sorted by id.
func (m *Multi) All() []QueryStatus {
	out := make([]QueryStatus, 0, len(m.queries))
	for id := range m.queries {
		st, _ := m.Status(id)
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len reports the number of registered queries.
func (m *Multi) Len() int { return len(m.queries) }

// Groups reports the number of live window states and how many of them
// are shared by more than one query — the "are we actually sharing"
// gauges the acceptance tests assert on.
func (m *Multi) Groups() (total, shared int) {
	for _, s := range m.states {
		total++
		if s.queries() > 1 {
			shared++
		}
	}
	return total, shared
}

// GroupKeys lists the keys labelling the live window states
// (diagnostics and telemetry cleanup).
func (m *Multi) GroupKeys() []GroupKey {
	out := make([]GroupKey, 0, len(m.states))
	for _, s := range m.states {
		out = append(out, s.key)
	}
	return out
}

// ForcedTumbles sums the forced-tumble count across live classes.
func (m *Multi) ForcedTumbles() int {
	n := 0
	for _, c := range m.classes {
		n += c.forced
	}
	return n
}
