package core

import (
	"fmt"
	"sync"

	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// QuerySet is the concurrency-safe multi-tenant layer over
// join.Multi: a registry of standing queries evaluated against one
// ingested document stream, with one window state per engine shared by
// the queries whose window sizes lie within join.Multi's share factor. It is the serving-side counterpart of
// Pipeline — where Pipeline hosts exactly one join, a QuerySet hosts
// many, with admission control and per-query telemetry — and it is
// built so a Runner can host one (WithQueryFanout) to front a
// scale-out cluster run.
//
// All methods are safe for concurrent use. Deliver callbacks run while
// the set's lock is held, so they must be quick and must not call back
// into the QuerySet.
type QuerySet struct {
	cfg QuerySetConfig

	mu      sync.Mutex
	multi   *join.Multi
	nextDoc uint64

	tel struct {
		groups       *telemetry.Gauge
		sharedGroups *telemetry.Gauge
		active       *telemetry.Gauge
		forced       *telemetry.Counter
		registered   *telemetry.Counter
		unregistered *telemetry.Counter
		rejected     *telemetry.Counter
	}
	// perQuery holds each query's labelled instruments plus the series
	// names to Drop when the query goes; groupSeries the same for
	// per-state join instruments.
	perQuery    map[string]*queryTel
	groupSeries map[string][]string
}

// queryTel is the per-query labelled instrument set.
type queryTel struct {
	docsMatched *telemetry.Counter
	results     *telemetry.Counter
	series      []string
}

// QuerySetConfig parameterises a QuerySet.
type QuerySetConfig struct {
	// MaxQueries caps the number of concurrently registered queries
	// (admission control); Register returns ErrTooManyQueries beyond
	// it. <= 0 defaults to 1024.
	MaxQueries int
	// MaxWindowDocs > 0 force-tumbles any window reaching that many
	// documents — the guard against a manual window nobody tumbles.
	// 0 leaves windows unbounded.
	MaxWindowDocs int
	// Telemetry, when set, receives the registry gauges
	// (queryset_window_groups and queryset_shared_window_groups count
	// window states, queryset_queries_active queries), admission
	// counters, per-query labelled counters
	// (query_docs_matched_total{query=...},
	// query_results_total{query=...}) and per-state join instruments
	// labelled by the window class that opened the state
	// (join_results_total{window=...},
	// join_partner_missing_total{window=...}, ...).
	Telemetry *telemetry.Registry
	// MemoryBudget > 0 bounds the accounted bytes of all window state:
	// past it the degradation ladder fires — spill (with SpillStore),
	// compressed spill, forced tumble of the largest state's oldest
	// window, and
	// finally admission shedding (Ingest returns ErrOverloaded).
	// 0 leaves memory ungoverned.
	MemoryBudget int64
	// SpillStore receives spilled window states (rungs 1-2 of the
	// ladder). Nil with a budget set starts the ladder at forced
	// tumbling.
	SpillStore state.Store
}

// ErrTooManyQueries is returned by Register when the MaxQueries
// admission cap is reached.
var ErrTooManyQueries = fmt.Errorf("core: query admission cap reached")

// ErrOverloaded is returned by Ingest/IngestJSON while the memory
// governor is at the shed rung: accounted window state is ≥ 2× the
// budget and every cheaper degradation has been tried. Callers should
// back off and retry (sfj-serve maps it to 429).
var ErrOverloaded = fmt.Errorf("core: window state over memory budget, shedding ingest")

// NewQuerySet creates an empty query set.
func NewQuerySet(cfg QuerySetConfig) *QuerySet {
	if cfg.MaxQueries <= 0 {
		cfg.MaxQueries = 1024
	}
	qs := &QuerySet{
		cfg:         cfg,
		multi:       join.NewMulti(),
		nextDoc:     1,
		perQuery:    make(map[string]*queryTel),
		groupSeries: make(map[string][]string),
	}
	if reg := cfg.Telemetry; reg != nil {
		qs.tel.groups = reg.Gauge("queryset_window_groups")
		qs.tel.sharedGroups = reg.Gauge("queryset_shared_window_groups")
		qs.tel.active = reg.Gauge("queryset_queries_active")
		qs.tel.forced = reg.Counter("queryset_forced_tumbles_total")
		qs.tel.registered = reg.Counter("queryset_queries_registered_total")
		qs.tel.unregistered = reg.Counter("queryset_queries_unregistered_total")
		qs.tel.rejected = reg.Counter("queryset_queries_rejected_total")
		qs.multi.InstrumentWith(func(key join.GroupKey) join.Instruments {
			label := key.String()
			names := []string{
				telemetry.Name("join_probe_seconds", "window", label),
				telemetry.Name("join_results_total", "window", label),
				telemetry.Name("join_duplicates_total", "window", label),
				telemetry.Name("join_window_docs", "window", label),
				telemetry.Name("join_fptree_nodes", "window", label),
				telemetry.Name("join_partner_missing_total", "window", label),
			}
			qs.groupSeries[label] = names
			return join.Instruments{
				ProbeSeconds:   reg.Histogram(names[0]),
				Results:        reg.Counter(names[1]),
				Duplicates:     reg.Counter(names[2]),
				WindowDocs:     reg.Gauge(names[3]),
				TreeNodes:      reg.Gauge(names[4]),
				PartnerMissing: reg.Counter(names[5]),
			}
		})
		// Runs under qs.mu, like every Multi call.
		qs.multi.OnMatched(func(id string, results int) {
			if qt := qs.perQuery[id]; qt != nil {
				qt.docsMatched.Inc()
				qt.results.Add(int64(results))
			}
		})
	}
	if cfg.MemoryBudget > 0 {
		var ins join.GovernorInstruments
		if reg := cfg.Telemetry; reg != nil {
			ins = join.GovernorInstruments{
				SpillPanes:    reg.Counter("state_spill_panes_total"),
				SpillBytes:    reg.Counter("state_spill_bytes_total"),
				Reloads:       reg.Counter("state_spill_reloads_total"),
				Failures:      reg.Counter("state_spill_failures_total"),
				ForcedTumbles: reg.Counter("state_forced_tumbles_total"),
				Shed:          reg.Counter("state_shed_total"),
				Pressure:      reg.Gauge("state_pressure_level"),
				Accounted:     reg.Gauge("state_accounted_bytes"),
			}
		}
		qs.multi.SetGovernor(join.NewGovernor(join.GovernorConfig{
			Budget: cfg.MemoryBudget,
			Store:  cfg.SpillStore,
			Task:   "queryset",
			Ins:    ins,
		}))
	}
	return qs
}

// Register adds a standing query under the given id, subject to the
// admission cap. The query shares its window with every query of the
// same (engine, window) configuration, and its window state with those
// whose window sizes join.Multi can serve from one state.
func (qs *QuerySet) Register(id string, spec join.QuerySpec) error {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if qs.multi.Len() >= qs.cfg.MaxQueries {
		qs.tel.rejected.Inc()
		return fmt.Errorf("%w (max %d)", ErrTooManyQueries, qs.cfg.MaxQueries)
	}
	if err := qs.multi.Register(id, spec); err != nil {
		qs.tel.rejected.Inc()
		return err
	}
	if reg := qs.cfg.Telemetry; reg != nil {
		names := []string{
			telemetry.Name("query_docs_matched_total", "query", id),
			telemetry.Name("query_results_total", "query", id),
		}
		qs.perQuery[id] = &queryTel{
			docsMatched: reg.Counter(names[0]),
			results:     reg.Counter(names[1]),
			series:      names,
		}
	}
	qs.tel.registered.Inc()
	qs.refreshGaugesLocked()
	return nil
}

// Unregister removes a query; once it returns, no deliver callback
// will be invoked for the id again. Freed states take their labelled
// join series with them; the query's own labelled counters are dropped
// too.
func (qs *QuerySet) Unregister(id string) bool {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if !qs.multi.Unregister(id) {
		return false
	}
	if qt := qs.perQuery[id]; qt != nil {
		qs.cfg.Telemetry.Drop(qt.series...)
		delete(qs.perQuery, id)
	}
	qs.dropDeadGroupSeriesLocked()
	qs.tel.unregistered.Inc()
	qs.refreshGaugesLocked()
	return true
}

// dropDeadGroupSeriesLocked retires the labelled join series of window
// states that no longer exist.
func (qs *QuerySet) dropDeadGroupSeriesLocked() {
	if qs.cfg.Telemetry == nil {
		return
	}
	live := make(map[string]bool)
	for _, k := range qs.multi.GroupKeys() {
		live[k.String()] = true
	}
	for label, names := range qs.groupSeries {
		if !live[label] {
			qs.cfg.Telemetry.Drop(names...)
			delete(qs.groupSeries, label)
		}
	}
}

// refreshGaugesLocked publishes the registry-shape gauges.
func (qs *QuerySet) refreshGaugesLocked() {
	total, shared := qs.multi.Groups()
	qs.tel.groups.SetInt(total)
	qs.tel.sharedGroups.SetInt(shared)
	qs.tel.active.SetInt(qs.multi.Len())
}

// Ingest feeds one document to every query's window state: parsed
// documents are inserted and probed once per window state and the
// accepted pairs fan out to the matching queries as materialised
// results through deliver, which runs under the set's lock (keep it
// quick, never re-enter the QuerySet). It returns ErrOverloaded while
// the memory governor is shedding.
func (qs *QuerySet) Ingest(d document.Document, deliver func(query string, r join.Result)) error {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return qs.ingestLocked(d, nil, deliver)
}

// IngestJSON parses one JSON document, assigns it the next document id
// and ingests it. It returns ErrOverloaded while the memory governor
// is shedding.
func (qs *QuerySet) IngestJSON(data []byte, deliver func(query string, r join.Result)) error {
	return qs.ingestJSON(data, nil, deliver)
}

// IngestJSONPairs is IngestJSON for a pair-level consumer: every
// accepted pair is delivered as its two input documents and nothing is
// merged (see join.Multi.IngestPairs).
func (qs *QuerySet) IngestJSONPairs(data []byte, deliver join.PairFunc) error {
	return qs.ingestJSON(data, deliver, nil)
}

func (qs *QuerySet) ingestJSON(data []byte, pairs join.PairFunc, results func(string, join.Result)) error {
	// Admission before work: a refused document is neither parsed nor
	// interned. The parse runs outside the lock, so concurrent callers
	// only serialise on the join; ids follow the order of arrival there.
	// This first check is the cheap early out; the one in ingestLocked,
	// under the lock hold that ingests, is the one that decides.
	qs.mu.Lock()
	shed := qs.shedLocked()
	qs.mu.Unlock()
	if shed {
		return ErrOverloaded
	}
	d, err := document.Parse(0, data)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	qs.mu.Lock()
	defer qs.mu.Unlock()
	d.ID = qs.nextDoc
	qs.nextDoc++
	return qs.ingestLocked(d, pairs, results)
}

// shedLocked reports — and counts — a refusal at rung 4 of the memory
// governor's ladder. The document is not put into any window, so a
// retried send after back-off is not a duplicate.
func (qs *QuerySet) shedLocked() bool {
	gov := qs.multi.Governor()
	if gov.Level() < join.PressureShed {
		return false
	}
	gov.ShedOne()
	return true
}

// ingestLocked delivers to pairs when set, else to results (nil only
// counts).
func (qs *QuerySet) ingestLocked(d document.Document, pairs join.PairFunc, results func(string, join.Result)) error {
	if qs.shedLocked() {
		return ErrOverloaded
	}
	var forced int
	if pairs != nil {
		forced = qs.multi.IngestPairs(d, qs.cfg.MaxWindowDocs, pairs)
	} else {
		forced = qs.multi.Ingest(d, qs.cfg.MaxWindowDocs, results)
	}
	qs.tel.forced.Add(int64(forced))
	return nil
}

// Demux fans one externally joined result (a cluster run's output) out
// to the queries of the window class matching the external engine and
// window size. Filter predicates apply; θ does not (the inputs are
// gone — the external join enforced the paper's natural-join
// semantics already).
func (qs *QuerySet) Demux(engine string, windowDocs int, r join.Result, deliver func(query string, res join.Result)) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.multi.Demux(engine, windowDocs, r, func(id string, res join.Result) {
		if qt := qs.perQuery[id]; qt != nil {
			qt.results.Inc()
		}
		if deliver != nil {
			deliver(id, res)
		}
	})
}

// Tumble closes the window of the class hosting the query — every
// query of that class observes the eviction. If its state was
// spilled, it reloads and replays its backlog first; those delayed
// results emit through deliver (nil discards them).
func (qs *QuerySet) Tumble(id string, deliver func(query string, r join.Result)) (docs, pairs int, err error) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	docs, pairs, ok := qs.multi.Tumble(id, qs.cfg.MaxWindowDocs, deliver)
	return tumbled(id, docs, pairs, ok)
}

// TumblePairs is Tumble for a pair-level consumer.
func (qs *QuerySet) TumblePairs(id string, deliver join.PairFunc) (docs, pairs int, err error) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	docs, pairs, ok := qs.multi.TumblePairs(id, qs.cfg.MaxWindowDocs, deliver)
	return tumbled(id, docs, pairs, ok)
}

func tumbled(id string, docs, pairs int, ok bool) (int, int, error) {
	if !ok {
		return 0, 0, fmt.Errorf("core: unknown query %q", id)
	}
	return docs, pairs, nil
}

// DrainSpilled reloads every spilled window state and replays its
// backlog, delivering the delayed results — the final flush at
// shutdown so backlogged documents' results are not lost.
func (qs *QuerySet) DrainSpilled(deliver func(query string, r join.Result)) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.tel.forced.Add(int64(qs.multi.DrainSpilled(qs.cfg.MaxWindowDocs, deliver)))
}

// DrainSpilledPairs is DrainSpilled for a pair-level consumer.
func (qs *QuerySet) DrainSpilledPairs(deliver join.PairFunc) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.tel.forced.Add(int64(qs.multi.DrainSpilledPairs(qs.cfg.MaxWindowDocs, deliver)))
}

// MemBytes reports the governor's accounted window-state bytes (0 when
// memory is ungoverned).
func (qs *QuerySet) MemBytes() int64 {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return qs.multi.MemBytes()
}

// PressureLevel reports the memory governor's current ladder rung.
func (qs *QuerySet) PressureLevel() join.PressureLevel {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return qs.multi.Governor().Level()
}

// Status reports one query's observable state.
func (qs *QuerySet) Status(id string) (join.QueryStatus, bool) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return qs.multi.Status(id)
}

// Queries lists every query's status, sorted by id.
func (qs *QuerySet) Queries() []join.QueryStatus {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return qs.multi.All()
}

// Len reports the number of registered queries.
func (qs *QuerySet) Len() int {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return qs.multi.Len()
}

// Groups reports the live window-state count and how many states are
// shared by more than one query.
func (qs *QuerySet) Groups() (total, shared int) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return qs.multi.Groups()
}

// WithQueryFanout hosts the query set on a Runner: every join result
// the topology produces additionally fans out to the queries of the
// set's window class matching the run's engine and window size, demuxed
// through their filter predicates and delivered via deliver. This is
// the bridge that lets the standing-query service front a scale-out
// cluster run instead of its in-process window state; Config.OnResult
// (when also set) keeps firing as before.
func WithQueryFanout(qs *QuerySet, deliver func(query string, res join.Result)) Option {
	return func(r *Runner) {
		prev := r.cfg.OnResult
		r.cfg.OnResult = func(res join.Result) {
			if prev != nil {
				prev(res)
			}
			// Mirror withDefaults' resolution: the closure runs after
			// defaults were applied to a copy of the config.
			engine := r.cfg.Engine
			if engine == "" {
				engine = "FPJ"
			}
			windowDocs := r.cfg.WindowSize
			if windowDocs <= 0 {
				windowDocs = 1000
			}
			qs.Demux(engine, windowDocs, res, deliver)
		}
	}
}
