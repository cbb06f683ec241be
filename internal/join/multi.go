package join

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/document"
)

// This file implements the multi-query layer over the window engines:
// many standing queries evaluated against one ingested stream, sharing
// window state (for FPJ, one FP-tree) whenever their window
// configurations align. The sharing rule follows Dossinger & Michel's
// multi-query join optimization: the expensive operator state — the
// window store and its probe index — is keyed by (engine, window
// config) only, while the cheap per-query predicates (θ strength,
// attribute filters) are applied as a demultiplexing step over the
// shared probe's results. A document is therefore parsed once and
// probed once per distinct window configuration, not once per query.
//
// Results are shared the same way. The probe yields partner ids
// (Windowed.Partners); every predicate is decided on the two input
// documents — θ by document.Classify, a filter pair f by
// left.Has(f) || right.Has(f), which equals merged.Has(f) because the
// merged document is the conflict-free union of its inputs — and what
// a query accepts is delivered as that pair of inputs (PairFunc).
// Nothing is merged to evaluate a predicate; a consumer that wants
// merged documents (Ingest, Tumble, DrainSpilled) gets each accepted
// pair materialised once per group by Windowed.Materialize, however
// many of the group's queries accept it.

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
	// would let one tenant's tumble evict another tenant's window.
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

// GroupKey identifies the window state a query maps to. Queries whose
// keys are equal share one engine instance (for FPJ: one FP-tree).
type GroupKey struct {
	Engine     string
	WindowDocs int
	// owner is empty for shared groups; manual-window (WindowDocs 0)
	// queries carry their query id here so each gets private state.
	owner string
}

// String renders the key as a stable label, e.g. "FPJ/w1000" or
// "FPJ/manual/q3" for a private manual-window group.
func (k GroupKey) String() string {
	if k.owner != "" {
		return fmt.Sprintf("%s/manual/%s", k.Engine, k.owner)
	}
	return fmt.Sprintf("%s/w%d", k.Engine, k.WindowDocs)
}

// Shared reports whether the key denotes shareable state.
func (k GroupKey) Shared() bool { return k.owner == "" }

// groupKey derives the state key for a query.
func (s QuerySpec) groupKey(queryID string) GroupKey {
	if s.WindowDocs == 0 {
		return GroupKey{Engine: s.Engine, owner: queryID}
	}
	return GroupKey{Engine: s.Engine, WindowDocs: s.WindowDocs}
}

// ErrDuplicateQuery is wrapped by Register when the id is already taken.
var ErrDuplicateQuery = errors.New("join: query already registered")

// PairFunc receives one joinable pair a query accepted: left is the
// partner the window held, right the arriving document. Both are
// immutable and may be retained.
type PairFunc func(query string, left, right document.Document)

// sink is where a group's accepted pairs go: to a pair-level consumer as
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
	group *group

	docsMatched int64
	results     int64
}

// spillKindGroup tags multi-group spill envelopes in the state store.
const spillKindGroup = "multi-group"

// groupBacklogMax caps how many documents a spilled group buffers
// before it is forced back into memory: past this point the backlog
// itself starts costing what the spill saved.
const groupBacklogMax = 256

// group is one window state and the queries subscribed to it.
type group struct {
	key     GroupKey
	win     *Windowed
	queries map[string]*standing

	inWindow int
	windows  int
	forced   int
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
	// never lost. seq is the group's stable spill-store key;
	// spilledBytes remembers the resident footprint at spill time so
	// the drain path can tell whether reloading fits the budget.
	spilled      bool
	seq          int
	spilledBytes int64
	backlog      []document.Document
	backlogBytes int64
}

// QueryStatus is the observable state of one standing query.
type QueryStatus struct {
	ID   string
	Spec QuerySpec
	// Group labels the window state the query runs on; SharedWith is
	// the number of other queries on the same state.
	Group      string
	SharedWith int
	// DocsMatched counts ingested documents that produced at least one
	// result for this query; Results counts delivered results.
	DocsMatched int64
	Results     int64
	// WindowDocs is the current fill of the group's open window;
	// Windows counts completed tumbles (including forced ones).
	WindowDocs int
	Windows    int
	// PartnerMissing counts probe partners the group's window store did
	// not hold (dropped, never delivered); anything but 0 is a bug in
	// the window state.
	PartnerMissing int64
}

// Multi hosts many standing queries over shared window state. It is
// not safe for concurrent use — callers (core.QuerySet) serialise.
type Multi struct {
	groups  map[GroupKey]*group
	queries map[string]*standing
	// mkInstruments, when set, supplies per-group join instruments at
	// group creation (labelled by the group key).
	mkInstruments func(GroupKey) Instruments
	// onMatched, when set, is told once per (document, query) how many
	// of the document's pairs the query accepted.
	onMatched func(query string, results int)

	gov     *Governor
	nextSeq int // spill-store keys for groups
}

// NewMulti creates an empty multi-query joiner.
func NewMulti() *Multi {
	return &Multi{
		groups:  make(map[GroupKey]*group),
		queries: make(map[string]*standing),
	}
}

// InstrumentWith installs a per-group instrument factory, applied to
// groups created after the call.
func (m *Multi) InstrumentWith(f func(GroupKey) Instruments) { m.mkInstruments = f }

// OnMatched installs a hook called once per ingested (or replayed)
// document and query that accepted at least one of its pairs, with the
// number accepted — the per-query counters of a telemetry layer.
func (m *Multi) OnMatched(f func(query string, results int)) { m.onMatched = f }

// SetGovernor attaches a memory governor (nil detaches): window groups
// then spill to the governor's store under pressure, with incoming
// documents backlogged and replayed at reload.
func (m *Multi) SetGovernor(g *Governor) { m.gov = g }

// Governor returns the attached governor (nil when none).
func (m *Multi) Governor() *Governor { return m.gov }

// Register adds a standing query under the given id. The query either
// joins the existing group for its (engine, window) key or creates a
// new one.
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
	g, ok := m.groups[key]
	if !ok {
		eng, err := New(spec.Engine)
		if err != nil {
			return err
		}
		g = &group{key: key, win: NewWindowed(eng), queries: make(map[string]*standing), seq: m.nextSeq}
		m.nextSeq++
		if m.mkInstruments != nil {
			g.win.SetInstruments(m.mkInstruments(key))
		}
		m.groups[key] = g
	}
	q := &standing{id: id, spec: spec, group: g}
	g.queries[id] = q
	m.queries[id] = q
	return nil
}

// Unregister removes a query; the group's window state is freed when
// its last query leaves. It reports whether the id was registered.
func (m *Multi) Unregister(id string) bool {
	q, ok := m.queries[id]
	if !ok {
		return false
	}
	delete(m.queries, id)
	delete(q.group.queries, id)
	if len(q.group.queries) == 0 {
		if q.group.spilled {
			m.gov.Drop(q.group.seq)
		}
		delete(m.groups, q.group.key)
	}
	return true
}

// Ingest feeds one document to every group and delivers each accepted
// pair as a materialised Result: IngestPairs' pair-level step, then one
// Windowed.Materialize per pair some query of the group accepted. A nil
// deliver counts without materialising. The returned count is the
// number of forced tumbles fired.
func (m *Multi) Ingest(d document.Document, maxWindowDocs int, deliver func(query string, r Result)) (forced int) {
	return m.ingest(d, maxWindowDocs, sink{results: deliver})
}

// IngestPairs feeds one document to every group: each group probes its
// shared window state exactly once for partner ids, decides every
// query's θ/filter predicates on the input documents, and hands each
// accepted (query, partner, d) to deliver — nothing is merged. Spilled
// groups buffer the document instead and replay it at reload. The
// returned count is the number of forced tumbles fired, by the
// max-window-docs guard or by the memory governor's rung 3 (0 when
// both are off).
func (m *Multi) IngestPairs(d document.Document, maxWindowDocs int, deliver PairFunc) (forced int) {
	return m.ingest(d, maxWindowDocs, sink{pairs: deliver})
}

func (m *Multi) ingest(d document.Document, maxWindowDocs int, out sink) (forced int) {
	for _, g := range m.groups {
		if g.spilled {
			g.backlog = append(g.backlog, d)
			g.backlogBytes += d.MemBytes()
			if len(g.backlog) >= groupBacklogMax {
				forced += m.reloadGroup(g, maxWindowDocs, out)
			}
			continue
		}
		forced += g.ingest(d, maxWindowDocs, out, m.onMatched)
	}
	forced += m.govern(maxWindowDocs, out)
	return forced
}

// govern walks the degradation ladder after each ingest: account
// resident bytes, spill the largest groups while over budget,
// force-tumble at rung 3, and drain spilled groups back in when
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
			g := m.largestResident()
			if g == nil {
				break
			}
			bytes := g.win.MemBytes()
			if _, err := m.gov.Spill(g.seq, spillKindGroup, g.win); err != nil {
				break // counted by the governor; the group stays resident
			}
			g.spilled = true
			g.spilledBytes = bytes
			// Tumble releases the resident state; the snapshot on disk
			// carries the real window, so this evicts memory only.
			g.win.Tumble()
			m.gov.Account(m.MemBytes())
		}
		level = m.gov.Level()
	}
	if level >= PressureTumble {
		// Rung 3: emit the largest resident group's window early — the
		// PR-8 forced-tumble guard wielded for memory instead of doc
		// count.
		if g := m.largestResident(); g != nil && g.win.Size() > 0 {
			g.tumble()
			g.forced++
			forced++
			m.gov.ForcedTumble()
			m.gov.Account(m.MemBytes())
		}
	}
	if m.gov.Level() == PressureOK {
		// Pressure subsided: drain one spilled group back in per
		// ingest, but only when its remembered footprint actually fits
		// under the budget — otherwise spill/reload would ping-pong at
		// the threshold.
		for _, g := range m.groups {
			if g.spilled && m.gov.Accounted()+g.spilledBytes < m.gov.Budget() {
				forced += m.reloadGroup(g, maxWindowDocs, out)
				m.gov.Account(m.MemBytes())
				break
			}
		}
	}
	return forced
}

// largestResident picks the non-spilled group with the biggest
// accounted footprint (nil when every group is spilled or empty).
func (m *Multi) largestResident() *group {
	var best *group
	var bestBytes int64
	for _, g := range m.groups {
		if g.spilled {
			continue
		}
		if b := g.win.MemBytes(); b > bestBytes {
			best, bestBytes = g, b
		}
	}
	return best
}

// reloadGroup restores a spilled group's window and replays its
// backlog through the normal ingest path, delivering the delayed
// results. A reload failure (disk fault, CRC mismatch — already
// counted by the governor) degrades: the group restarts from an empty
// window and only the backlog replays, so the stream continues without
// the lost state instead of crashing.
func (m *Multi) reloadGroup(g *group, maxWindowDocs int, out sink) (forced int) {
	if err := m.gov.Reload(g.seq, spillKindGroup, g.win); err != nil {
		// A failed restore may have left partial engine state behind;
		// clear to a known-empty window before replaying.
		g.win.Tumble()
	}
	g.spilled = false
	g.spilledBytes = 0
	backlog := g.backlog
	g.backlog, g.backlogBytes = nil, 0
	for _, d := range backlog {
		forced += g.ingest(d, maxWindowDocs, out, m.onMatched)
	}
	return forced
}

// DrainSpilled reloads every spilled group regardless of pressure,
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
	for _, g := range m.groups {
		if g.spilled {
			forced += m.reloadGroup(g, maxWindowDocs, out)
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
// backlogs of spilled groups.
func (m *Multi) MemBytes() int64 {
	var n int64
	for _, g := range m.groups {
		n += g.win.MemBytes() + g.backlogBytes
	}
	return n
}

// SpilledGroups reports how many groups are currently spilled
// (diagnostics and tests).
func (m *Multi) SpilledGroups() int {
	n := 0
	for _, g := range m.groups {
		if g.spilled {
			n++
		}
	}
	return n
}

// ingest runs one document through one group's window: the pair-level
// probe, the per-query demux of its partners, then the window boundary.
func (g *group) ingest(d document.Document, maxWindowDocs int, out sink, onMatched func(string, int)) (forced int) {
	if partners := g.win.Partners(d); len(partners) > 0 {
		g.demux(d, partners, out, onMatched)
	}
	g.inWindow++
	switch {
	case g.key.WindowDocs > 0 && g.inWindow >= g.key.WindowDocs:
		g.tumble()
	case maxWindowDocs > 0 && g.win.Size() >= maxWindowDocs:
		// The guard against a manual window nobody tumbles (or a
		// configured window larger than the cap): evict rather than
		// grow without bound.
		g.tumble()
		g.forced++
		forced = 1
	}
	return forced
}

// demux decides, for every query of the group, which of d's partners it
// accepts, on the input documents alone, and hands the accepted pairs
// to out. A result-level sink gets each accepted pair materialised the
// first time a query accepts it and shared by the queries after.
func (g *group) demux(d document.Document, partners []uint64, out sink, onMatched func(string, int)) {
	g.lefts, g.shared, g.at = g.lefts[:0], g.shared[:0], g.at[:0]
	held := partners[:0] // the engine's row is ours to filter in place
	for _, id := range partners {
		left, ok := g.win.Doc(id)
		if !ok {
			g.partnerMissing++
			g.win.ins.PartnerMissing.Inc()
			continue
		}
		held = append(held, id)
		g.lefts = append(g.lefts, left)
		g.shared = append(g.shared, -1)
		g.at = append(g.at, -1)
	}
	g.results = g.results[:0]
	accepted := 0
	for _, q := range g.queries {
		matched := 0
		for i, left := range g.lefts {
			if q.spec.Theta > 0 {
				// Only queries with θ > 0 pay for the Classify pass, once
				// per pair however many of them there are.
				if g.shared[i] < 0 {
					_, g.shared[i] = document.Classify(left, d)
				}
				need := int(math.Ceil(q.spec.Theta * float64(min(left.Len(), d.Len()))))
				if g.shared[i] < need {
					continue
				}
			}
			if !matchInputs(q.spec.Filters, left, d) {
				continue
			}
			matched++
			first := g.at[i] < 0
			if first {
				g.at[i] = len(g.results)
				accepted++
			}
			switch {
			case out.pairs != nil:
				out.pairs(q.id, left, d)
			case out.results != nil:
				if first {
					g.results = g.win.Materialize(g.results, d, held[i:i+1])
				}
				out.results(q.id, g.results[g.at[i]])
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
	if out.results == nil {
		// Materialize counts what it builds; pairs handed on as inputs
		// (or only counted) are this window's results all the same.
		g.win.ins.Results.Add(int64(accepted))
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

func (g *group) tumble() (docs, pairs int) {
	docs, pairs = g.win.Tumble()
	g.windows++
	g.inWindow = 0
	return docs, pairs
}

// Tumble closes the window of the group hosting the given query. All
// queries sharing the group observe the eviction — shared state has
// shared window boundaries (manual-window queries are private for
// exactly this reason). A spilled group is reloaded first so the
// closing window's backlogged results still emit through deliver
// (deliver may be nil when the caller has no sink). It reports the
// closed window's document and pair counts.
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
	if q.group.spilled {
		m.reloadGroup(q.group, maxWindowDocs, out)
	}
	docs, pairs = q.group.tumble()
	if m.gov != nil {
		m.gov.Account(m.MemBytes())
	}
	return docs, pairs, true
}

// Demux delivers an externally produced join result (e.g. from a
// scale-out cluster run whose Joiners own the window state) to every
// query of the shared group matching the external run's engine and
// window size. Only filter predicates apply on this path: θ needs the
// input documents, which an external result no longer carries — the
// external join already enforced the paper's ≥ 1 shared pair.
func (m *Multi) Demux(engine string, windowDocs int, r Result, deliver func(string, Result)) {
	g, ok := m.groups[GroupKey{Engine: engine, WindowDocs: windowDocs}]
	if !ok {
		return
	}
	for _, q := range g.queries {
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
		Group:          q.group.key.String(),
		SharedWith:     len(q.group.queries) - 1,
		DocsMatched:    q.docsMatched,
		Results:        q.results,
		WindowDocs:     q.group.win.Size(),
		Windows:        q.group.windows,
		PartnerMissing: q.group.partnerMissing,
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
	for _, g := range m.groups {
		total++
		if len(g.queries) > 1 {
			shared++
		}
	}
	return total, shared
}

// GroupKeys lists the live group keys (diagnostics and telemetry
// cleanup).
func (m *Multi) GroupKeys() []GroupKey {
	out := make([]GroupKey, 0, len(m.groups))
	for k := range m.groups {
		out = append(out, k)
	}
	return out
}

// ForcedTumbles sums the forced-tumble count across live groups.
func (m *Multi) ForcedTumbles() int {
	n := 0
	for _, g := range m.groups {
		n += g.forced
	}
	return n
}
