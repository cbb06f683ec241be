// Package server exposes the schema-free stream join as a multi-tenant
// HTTP service. Clients register standing queries — each an (engine,
// window, θ, filters) specification — and stream JSON documents in;
// every ingested document is classified once and probed against one
// window state per engine, shared by all queries whose window sizes lie
// within a factor of each other, with per-query state only where they
// diverge.
// Results demux to each query through its own predicates and are
// buffered for retrieval by long-poll or server-sent events. A joinable
// pair is encoded once per ingested document, whatever number of
// queries and window classes deliver it: they all hold the same bytes.
//
// Endpoints:
//
//	POST   /documents             one JSON object, or NDJSON for a batch
//	POST   /tumble                close the default query's window
//	GET    /stats                 legacy processing counters
//	POST   /queries               register a standing query
//	GET    /queries               list standing queries
//	GET    /queries/{id}          one query's status
//	DELETE /queries/{id}          remove a query
//	POST   /queries/{id}/tumble   close the query's window (shared!)
//	GET    /queries/{id}/results  long-poll buffered results
//	GET    /queries/{id}/stream   server-sent events result stream
//	GET    /metrics               Prometheus text (when telemetry is on)
//	GET    /debug/stats           JSON telemetry snapshot (ditto)
//	GET    /healthz               liveness
//
// A built-in query with id "default" is always registered from the
// construction options, so the pre-multi-tenant endpoints (POST
// /documents result echo, /tumble, /stats) keep their old semantics as
// views onto that query.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// DefaultQueryID is the always-registered query that the legacy
// single-tenant endpoints operate on. It cannot be deleted.
const DefaultQueryID = "default"

// Server is the HTTP handler set.
type Server struct {
	set settings
	qs  *core.QuerySet

	// mu guards the result-buffer registry, the legacy stats and the
	// id generator. Lock ordering: the query set's internal lock is
	// always taken first (its deliver callbacks never run under mu),
	// so no method may call into qs while holding mu.
	mu          sync.Mutex
	buffers     map[string]*resultBuffer
	stats       Stats
	lastWindows int // default query's tumble count at last sync
	nextID      int
	closed      bool

	done chan struct{} // closed by Close; unblocks long-poll and SSE

	tel struct {
		documents   *telemetry.Counter
		pairs       *telemetry.Counter
		windows     *telemetry.Counter
		parseErrors *telemetry.Counter
		// deliveries ÷ encodes is what sharing encoded results buys.
		encodes    *telemetry.Counter
		deliveries *telemetry.Counter
	}
}

// Stats are the legacy service counters returned by GET /stats; the
// join-related fields are views onto the default query.
type Stats struct {
	Documents   int `json:"documents"`
	JoinPairs   int `json:"join_pairs"`
	Windows     int `json:"windows"`
	ParseErrors int `json:"parse_errors"`
	// CurrentWindowDocs is the fill level of the default query's open
	// window.
	CurrentWindowDocs int `json:"current_window_docs"`
	// Queries is the number of registered standing queries (including
	// the default one); WindowGroups / SharedWindowGroups count the
	// window states and those read by more than one query.
	Queries            int `json:"queries"`
	WindowGroups       int `json:"window_groups"`
	SharedWindowGroups int `json:"shared_window_groups"`
}

// New builds the service.
func New(opts ...Option) (*Server, error) {
	set := defaultSettings()
	for _, opt := range opts {
		opt(&set)
	}
	s := &Server{
		set:     set,
		buffers: make(map[string]*resultBuffer),
		done:    make(chan struct{}),
	}
	spill := set.spillStore
	if spill == nil && set.spillDir != "" {
		fs, err := state.NewFSStore(set.spillDir)
		if err != nil {
			return nil, fmt.Errorf("server: spill dir: %w", err)
		}
		spill = fs
	}
	// The default query occupies one slot beyond the user-facing cap.
	s.qs = core.NewQuerySet(core.QuerySetConfig{
		MaxQueries:    set.maxQueries + 1,
		MaxWindowDocs: set.maxWindowDocs,
		Telemetry:     set.telemetry,
		MemoryBudget:  set.memoryBudget,
		SpillStore:    spill,
	})
	if reg := set.telemetry; reg != nil {
		s.tel.documents = reg.Counter("server_documents_total")
		s.tel.pairs = reg.Counter("server_join_pairs_total")
		s.tel.windows = reg.Counter("server_windows_total")
		s.tel.parseErrors = reg.Counter("server_parse_errors_total")
		s.tel.encodes = reg.Counter("server_result_encodes_total")
		s.tel.deliveries = reg.Counter("server_result_deliveries_total")
	}
	spec := join.QuerySpec{Engine: set.engine, WindowDocs: set.window}
	if err := s.registerQuery(DefaultQueryID, spec); err != nil {
		return nil, err
	}
	return s, nil
}

// Close shuts the service down for graceful drain: spilled window
// states flush their backlogged results into the query buffers,
// in-flight long-polls and SSE streams return with whatever is
// buffered, new ingests are rejected with 503. Safe to call more than
// once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Drain outside the server lock (dispatch takes it) but before the
	// buffers close, so the delayed results reach their final drain.
	sc := scratchPool.Get().(*ingestScratch)
	s.qs.DrainSpilledPairs(sc.collect)
	s.dispatch(sc)
	sc.release()
	s.mu.Lock()
	close(s.done)
	for _, b := range s.buffers {
		b.close()
	}
	s.mu.Unlock()
}

// registerQuery creates the result buffer first and then registers the
// query, so a result delivered the instant registration lands always
// finds its buffer (no lost results); on failure the buffer is removed.
func (s *Server) registerQuery(id string, spec join.QuerySpec) error {
	reg := s.set.telemetry
	buf := newResultBuffer(s.set.resultBuffer,
		reg.Gauge(telemetry.Name("server_query_result_buffer", "query", id)),
		reg.Counter(telemetry.Name("server_query_results_dropped_total", "query", id)))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("server: shutting down")
	}
	if _, dup := s.buffers[id]; dup {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", join.ErrDuplicateQuery, id)
	}
	s.buffers[id] = buf
	s.mu.Unlock()

	if err := s.qs.Register(id, spec); err != nil {
		s.mu.Lock()
		delete(s.buffers, id)
		s.mu.Unlock()
		s.dropBufferSeries(id)
		return err
	}
	return nil
}

// removeQuery unregisters the query and retires its buffer. Once the
// query set unregister returns, no new results can be collected for the
// id, so closing the buffer afterwards guarantees no ghost deliveries.
func (s *Server) removeQuery(id string) bool {
	if !s.qs.Unregister(id) {
		return false
	}
	s.mu.Lock()
	buf := s.buffers[id]
	delete(s.buffers, id)
	s.mu.Unlock()
	if buf != nil {
		buf.close()
	}
	s.dropBufferSeries(id)
	return true
}

// dropBufferSeries retires a query's buffer telemetry series.
func (s *Server) dropBufferSeries(id string) {
	s.set.telemetry.Drop(
		telemetry.Name("server_query_result_buffer", "query", id),
		telemetry.Name("server_query_results_dropped_total", "query", id),
	)
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /documents", s.handleDocuments)
	mux.HandleFunc("POST /tumble", s.handleTumble)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /queries", s.handleCreateQuery)
	mux.HandleFunc("GET /queries", s.handleListQueries)
	mux.HandleFunc("GET /queries/{id}", s.handleGetQuery)
	mux.HandleFunc("DELETE /queries/{id}", s.handleDeleteQuery)
	mux.HandleFunc("POST /queries/{id}/tumble", s.handleQueryTumble)
	mux.HandleFunc("GET /queries/{id}/results", s.handleQueryResults)
	mux.HandleFunc("GET /queries/{id}/stream", s.handleQueryStream)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	if reg := s.set.telemetry; reg != nil {
		scrape := reg.Handler()
		mux.Handle("GET /metrics", scrape)
		mux.Handle("GET /debug/stats", scrape)
	}
	return mux
}

// handleDocuments ingests one document or an NDJSON batch. Every
// registered query's window state sees each document; the response
// echoes the default query's results (legacy contract) plus the
// per-query match counts, and all results land in the queries' buffers
// for asynchronous retrieval.
func (s *Server) handleDocuments(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	s.mu.Unlock()

	sc := scratchPool.Get().(*ingestScratch)
	defer sc.release()
	body := http.MaxBytesReader(w, r.Body, s.set.maxBody)
	scanner := bufio.NewScanner(body)
	scanner.Buffer(sc.scan, int(s.set.maxBody))

	ingested, lineNo := 0, 0
	// The deliver callback runs under the query set's lock, so it only
	// collects; encoding and the buffer pushes happen in dispatch.
	collect := sc.collect
	for scanner.Scan() {
		lineNo++
		line := bytes.TrimSpace(scanner.Bytes())
		if len(line) == 0 {
			continue
		}
		err := s.qs.IngestJSONPairs(line, collect)
		if errors.Is(err, core.ErrOverloaded) {
			// Rung 4 of the memory governor's ladder: refuse admission.
			// Documents before this line in the batch were ingested;
			// reporting the count lets the client resume at the cut.
			w.Header().Set("Retry-After", "1")
			http.Error(w, fmt.Sprintf("overloaded after %d documents: %v", ingested, err),
				http.StatusTooManyRequests)
			return
		}
		if err != nil {
			s.mu.Lock()
			s.stats.ParseErrors++
			s.mu.Unlock()
			s.tel.parseErrors.Inc()
			// Documents before this line were ingested, as above.
			http.Error(w, fmt.Sprintf("line %d (after %d documents): %v", lineNo, ingested, err), http.StatusBadRequest)
			return
		}
		ingested++
		s.tel.documents.Inc()
		s.dispatch(sc)
	}
	if err := scanner.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.stats.Documents += ingested
	s.stats.JoinPairs += len(sc.defaults)
	s.mu.Unlock()
	s.tel.pairs.Add(int64(len(sc.defaults)))
	s.syncWindows()
	sc.resp = sc.appendIngestResponse(sc.resp[:0], ingested)
	writeBody(w, sc.resp)
}

// delivery is one (query, pair) collected during an ingest.
type delivery struct {
	query       string
	left, right document.Document
}

// ingestScratch is the working memory of one pass over the result path
// — a POST /documents request, a tumble, the shutdown drain — pooled so
// that a single-document request does not pay for a batch-sized scanner
// buffer and response body. Everything in it is per pass except the
// encodings handed to the result buffers, which are allocated at exact
// size and never reused (see bufferedResult).
type ingestScratch struct {
	scan      []byte               // bufio.Scanner's initial buffer
	collected []delivery           // deliveries not yet dispatched
	enc       []byte               // encoder scratch, copied out per pair
	encoded   map[[2]uint64][]byte // (left, right) of the document in flight → its shared encoding
	run       []bufferedResult     // one query's consecutive deliveries
	defaults  []bufferedResult     // the default query's echo
	counts    map[string]int       // deliveries per query
	ids       []string             // counts' keys, sorted
	resp      []byte               // response body
}

var scratchPool = sync.Pool{New: func() any {
	return &ingestScratch{
		scan:    make([]byte, 0, 64*1024),
		encoded: make(map[[2]uint64][]byte),
		counts:  make(map[string]int),
	}
}}

// collect is the join.PairFunc of a pass.
func (sc *ingestScratch) collect(query string, left, right document.Document) {
	sc.collected = append(sc.collected, delivery{query, left, right})
}

// release drops every reference the pass left behind and returns the
// scratch to the pool, unless a spill replay or a bulk response grew it
// far beyond what a request needs.
func (sc *ingestScratch) release() {
	const keepDeliveries, keepResponse = 4096, 1 << 20
	if cap(sc.collected) > keepDeliveries || cap(sc.defaults) > keepDeliveries || cap(sc.resp) > keepResponse {
		return
	}
	// dispatch has already emptied collected.
	clear(sc.run[:cap(sc.run)])
	clear(sc.defaults)
	clear(sc.ids)
	clear(sc.encoded)
	clear(sc.counts)
	sc.defaults = sc.defaults[:0]
	scratchPool.Put(sc)
}

// dispatch encodes the collected deliveries — each distinct pair once,
// shared by every query that delivers it — and pushes them into the
// query buffers one query's run at a time (join.Multi delivers a
// document's pairs query by query), extending the default query's echo.
// A query deleted between collection and dispatch simply has no buffer
// any more — its results are discarded, never misdelivered.
func (s *Server) dispatch(sc *ingestScratch) {
	clear(sc.encoded)
	encodes := 0
	for i := 0; i < len(sc.collected); {
		id := sc.collected[i].query
		sc.run = sc.run[:0]
		for ; i < len(sc.collected) && sc.collected[i].query == id; i++ {
			d := &sc.collected[i]
			key := [2]uint64{d.left.ID, d.right.ID}
			merged, ok := sc.encoded[key]
			if !ok {
				sc.enc = document.AppendMergedJSON(sc.enc[:0], d.left, d.right)
				merged = make([]byte, len(sc.enc))
				copy(merged, sc.enc)
				sc.encoded[key] = merged
				encodes++
			}
			sc.run = append(sc.run, bufferedResult{Left: d.left.ID, Right: d.right.ID, Merged: merged})
		}
		sc.counts[id] += len(sc.run)
		s.mu.Lock()
		buf := s.buffers[id]
		s.mu.Unlock()
		if buf != nil {
			buf.push(sc.run)
		}
		if id == DefaultQueryID {
			for _, r := range sc.run {
				r.Seq = uint64(len(sc.defaults)) + 1
				sc.defaults = append(sc.defaults, r)
			}
		}
	}
	s.tel.encodes.Add(int64(encodes))
	s.tel.deliveries.Add(int64(len(sc.collected)))
	clear(sc.collected)
	sc.collected = sc.collected[:0]
}

// appendIngestResponse appends the POST /documents body: what
// json.Encoder (HTML escaping off) writes for
// {"ingested": n, "queries": counts, "results": defaults}.
func (sc *ingestScratch) appendIngestResponse(dst []byte, ingested int) []byte {
	sc.ids = sc.ids[:0]
	for id := range sc.counts {
		sc.ids = append(sc.ids, id)
	}
	sort.Strings(sc.ids)
	dst = append(dst, `{"ingested":`...)
	dst = strconv.AppendInt(dst, int64(ingested), 10)
	dst = append(dst, `,"queries":{`...)
	for i, id := range sc.ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = document.AppendJSONString(dst, id, false)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(sc.counts[id]), 10)
	}
	dst = append(dst, `},"results":`...)
	dst = appendResultsJSON(dst, sc.defaults)
	return append(dst, '}', '\n')
}

// syncWindows folds the default query's tumble count into the legacy
// stats and telemetry (windows can also advance inside ingest via
// auto- or forced tumbles, so the count is read back, not tracked).
func (s *Server) syncWindows() {
	st, ok := s.qs.Status(DefaultQueryID)
	if !ok {
		return
	}
	s.mu.Lock()
	delta := st.Windows - s.lastWindows
	s.lastWindows = st.Windows
	s.stats.Windows = st.Windows
	s.mu.Unlock()
	if delta > 0 {
		s.tel.windows.Add(int64(delta))
	}
}

func (s *Server) handleTumble(w http.ResponseWriter, _ *http.Request) {
	docs, pairs, err := s.tumble(DefaultQueryID)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.syncWindows()
	writeJSON(w, map[string]any{"documents": docs, "pairs": pairs})
}

// tumble closes the query's window, dispatching any results a spilled
// state replays on its way back into memory.
func (s *Server) tumble(id string) (docs, pairs int, err error) {
	sc := scratchPool.Get().(*ingestScratch)
	defer sc.release()
	docs, pairs, err = s.qs.TumblePairs(id, sc.collect)
	if err == nil {
		s.dispatch(sc)
	}
	return docs, pairs, err
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st, _ := s.qs.Status(DefaultQueryID)
	total, shared := s.qs.Groups()
	n := s.qs.Len()
	s.mu.Lock()
	out := s.stats
	s.mu.Unlock()
	out.Windows = st.Windows
	out.CurrentWindowDocs = st.WindowDocs
	out.Queries = n
	out.WindowGroups = total
	out.SharedWindowGroups = shared
	writeJSON(w, out)
}
