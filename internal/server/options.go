package server

import (
	"repro/internal/state"
	"repro/internal/telemetry"
)

// settings is the resolved construction parameter set.
type settings struct {
	engine        string
	window        int
	maxBody       int64
	maxQueries    int
	resultBuffer  int
	maxWindowDocs int
	memoryBudget  int64
	spillStore    state.Store
	spillDir      string
	telemetry     *telemetry.Registry
}

func defaultSettings() settings {
	return settings{
		maxBody:      8 << 20,
		maxQueries:   1024,
		resultBuffer: 4096,
	}
}

// Option configures New, mirroring core.NewRunner's functional options.
type Option func(*settings)

// WithEngine sets the join engine of the built-in default query ("FPJ"
// default, "NLJ", "HBJ"). Standing queries registered over the API pick
// their own engine per query.
func WithEngine(engine string) Option {
	return func(s *settings) { s.engine = engine }
}

// WithWindow sets the default query's tumbling-window size in
// documents; 0 (the default) means its window tumbles only via
// POST /tumble.
func WithWindow(docs int) Option {
	return func(s *settings) { s.window = docs }
}

// WithTelemetry wires a registry: the service counters, the query set's
// shared-state gauges and per-query labelled series land in it, and
// Handler mounts its /metrics and /debug/stats scrape routes.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *settings) { s.telemetry = reg }
}

// WithMaxBodyBytes caps request bodies (default 8 MiB).
func WithMaxBodyBytes(n int64) Option {
	return func(s *settings) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithMaxQueries caps the number of concurrently registered standing
// queries (default 1024); POST /queries answers 429 beyond it. The
// built-in default query does not count against the cap.
func WithMaxQueries(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.maxQueries = n
		}
	}
}

// WithResultBuffer sets each query's result-buffer capacity (default
// 4096). When a client falls behind, the oldest buffered results are
// dropped and counted.
func WithResultBuffer(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.resultBuffer = n
		}
	}
}

// WithMaxWindowDocs force-tumbles any window reaching that many
// documents — the guard that keeps a manual window (window 0) that
// nobody tumbles from growing without bound. 0 (default) disables the
// guard.
func WithMaxWindowDocs(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.maxWindowDocs = n
		}
	}
}

// WithMemoryBudget bounds the accounted bytes of all window state
// (default 0, ungoverned). Over the budget the degradation ladder
// fires: spill to the spill store, compressed spill, forced tumble of
// the largest window state's oldest window, and finally POST /documents
// answering 429 until pressure subsides.
func WithMemoryBudget(n int64) Option {
	return func(s *settings) {
		if n > 0 {
			s.memoryBudget = n
		}
	}
}

// WithSpillStore supplies the state store that receives spilled window
// states. Without one (and without WithSpillDir), a memory budget
// starts the ladder at forced tumbling.
func WithSpillStore(st state.Store) Option {
	return func(s *settings) { s.spillStore = st }
}

// WithSpillDir is WithSpillStore over a filesystem store rooted at the
// given directory, created on New. Ignored when WithSpillStore is also
// given.
func WithSpillDir(dir string) Option {
	return func(s *settings) { s.spillDir = dir }
}
