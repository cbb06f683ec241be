package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/join"
)

// querySpecJSON is the request body of POST /queries.
type querySpecJSON struct {
	// ID is optional; the server assigns q1, q2, ... when absent.
	ID string `json:"id"`
	// Engine is the join engine ("FPJ" default, "NLJ", "HBJ").
	Engine string `json:"engine"`
	// Window > 0 tumbles automatically after that many documents; 0
	// gives the query a private window tumbled via its tumble endpoint.
	Window int `json:"window"`
	// Theta in [0,1] is the minimum shared-pair fraction of the smaller
	// input a result must reach; 0 keeps the plain natural join.
	Theta float64 `json:"theta"`
	// Filters restricts results to those whose merged document contains
	// every listed attribute-value pair.
	Filters map[string]any `json:"filters"`
}

// queryJSON is one query in responses.
type queryJSON struct {
	ID            string          `json:"id"`
	Engine        string          `json:"engine"`
	Window        int             `json:"window"`
	Theta         float64         `json:"theta,omitempty"`
	Filters       json.RawMessage `json:"filters,omitempty"`
	Group         string          `json:"group"`
	SharedWith    int             `json:"shared_with"`
	DocsMatched   int64           `json:"docs_matched"`
	Results       int64           `json:"results"`
	WindowDocs    int             `json:"current_window_docs"`
	Windows       int             `json:"windows"`
	BufferDepth   int             `json:"buffer_depth"`
	BufferDropped int64           `json:"buffer_dropped"`
	LastSeq       uint64          `json:"last_seq"`
	// PartnerMissing counts probe partners the query's window state
	// could not find in its store and therefore did not deliver; not 0
	// means results are missing because window state is inconsistent.
	PartnerMissing int64 `json:"partner_missing"`
}

// handleCreateQuery registers a standing query.
func (s *Server) handleCreateQuery(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.set.maxBody)
	dec := json.NewDecoder(body)
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var req querySpecJSON
	if err := dec.Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad query spec: %v", err), http.StatusBadRequest)
		return
	}
	spec := join.QuerySpec{Engine: req.Engine, WindowDocs: req.Window, Theta: req.Theta}
	// Canonicalise filter values exactly as document parsing would, so
	// a filter spelled 2 matches an attribute parsed from 2.0.
	for attr, v := range req.Filters {
		enc, err := document.EncodeJSONValue(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("filter %q: %v", attr, err), http.StatusBadRequest)
			return
		}
		spec.Filters = append(spec.Filters, document.Pair{Attr: attr, Val: enc})
	}
	if err := spec.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	id := req.ID
	if id == "" {
		s.mu.Lock()
		s.nextID++
		id = "q" + strconv.Itoa(s.nextID)
		s.mu.Unlock()
	} else if id == DefaultQueryID {
		http.Error(w, fmt.Sprintf("query id %q is reserved", DefaultQueryID), http.StatusConflict)
		return
	}
	if err := s.registerQuery(id, spec); err != nil {
		switch {
		case errors.Is(err, core.ErrTooManyQueries):
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.Is(err, join.ErrDuplicateQuery):
			http.Error(w, err.Error(), http.StatusConflict)
		default:
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	st, _ := s.qs.Status(id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, s.queryJSON(st))
}

func (s *Server) handleListQueries(w http.ResponseWriter, _ *http.Request) {
	all := s.qs.Queries()
	out := make([]queryJSON, 0, len(all))
	for _, st := range all {
		out = append(out, s.queryJSON(st))
	}
	writeJSON(w, map[string]any{"queries": out})
}

func (s *Server) handleGetQuery(w http.ResponseWriter, r *http.Request) {
	st, ok := s.qs.Status(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, s.queryJSON(st))
}

func (s *Server) handleDeleteQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == DefaultQueryID {
		http.Error(w, "the default query cannot be deleted", http.StatusForbidden)
		return
	}
	if !s.removeQuery(id) {
		http.NotFound(w, r)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleQueryTumble closes the window of the class hosting the query.
// Every query with the same engine and window size observes the
// eviction — which is why only manual (window 0) queries, which are
// never shared, normally use this.
func (s *Server) handleQueryTumble(w http.ResponseWriter, r *http.Request) {
	docs, pairs, err := s.tumble(r.PathValue("id"))
	if err != nil {
		http.NotFound(w, r)
		return
	}
	s.syncWindows()
	writeJSON(w, map[string]any{"documents": docs, "pairs": pairs})
}

// handleQueryResults long-polls the query's result buffer:
//
//	after  return only results with seq > after (default 0)
//	max    at most this many results (default 100)
//	wait   seconds to block when nothing is buffered (default 0)
func (s *Server) handleQueryResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	buf := s.buffers[id]
	s.mu.Unlock()
	if buf == nil {
		http.NotFound(w, r)
		return
	}
	after, err := parseUint(r.URL.Query().Get("after"), 0)
	if err != nil {
		http.Error(w, "bad after cursor", http.StatusBadRequest)
		return
	}
	max, err := parseInt(r.URL.Query().Get("max"), 100)
	if err != nil || max <= 0 {
		http.Error(w, "bad max", http.StatusBadRequest)
		return
	}
	waitSec, err := parseInt(r.URL.Query().Get("wait"), 0)
	if err != nil || waitSec < 0 {
		http.Error(w, "bad wait", http.StatusBadRequest)
		return
	}
	const maxWait = 60
	if waitSec > maxWait {
		waitSec = maxWait
	}
	var deadline <-chan time.Time
	if waitSec > 0 {
		timer := time.NewTimer(time.Duration(waitSec) * time.Second)
		defer timer.Stop()
		deadline = timer.C
	}
	for {
		items, wake, closed := buf.after(after, max)
		if len(items) > 0 || closed || waitSec == 0 {
			_, dropped, _ := buf.stats()
			writeResults(w, items, dropped)
			return
		}
		select {
		case <-wake:
		case <-deadline:
			writeResults(w, nil, 0)
			return
		case <-s.done:
			writeResults(w, nil, 0)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleQueryStream streams the query's results as server-sent events.
// Each event carries the result seq as its SSE id, so a reconnecting
// client resumes with Last-Event-ID (or ?after=). A deleted query or a
// shutting-down server ends the stream with an "end" event after the
// final drain.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	buf := s.buffers[id]
	s.mu.Unlock()
	if buf == nil {
		http.NotFound(w, r)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	cursor := r.URL.Query().Get("after")
	if cursor == "" {
		cursor = r.Header.Get("Last-Event-ID")
	}
	after, err := parseUint(cursor, 0)
	if err != nil {
		http.Error(w, "bad after cursor", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	var frames []byte // reused across batches of events
	for {
		items, wake, closed := buf.after(after, 0)
		if len(items) > 0 {
			frames = frames[:0]
			for _, it := range items {
				frames = append(frames, "id: "...)
				frames = strconv.AppendUint(frames, it.Seq, 10)
				frames = append(frames, "\ndata: "...)
				frames = it.appendJSON(frames)
				frames = append(frames, '\n', '\n')
			}
			after = items[len(items)-1].Seq
			if _, err := w.Write(frames); err != nil {
				return // the client is gone
			}
			flusher.Flush()
		}
		if closed {
			fmt.Fprint(w, "event: end\ndata: {}\n\n")
			flusher.Flush()
			return
		}
		select {
		case <-wake:
		case <-s.done:
			// Final drain happens on the next loop pass: Close() closed
			// the buffers, so the closed branch above fires after it.
		case <-r.Context().Done():
			return
		}
	}
}

// queryJSON renders one query status plus its buffer state.
func (s *Server) queryJSON(st join.QueryStatus) queryJSON {
	out := queryJSON{
		ID:             st.ID,
		Engine:         st.Spec.Engine,
		Window:         st.Spec.WindowDocs,
		Theta:          st.Spec.Theta,
		Group:          st.Group,
		SharedWith:     st.SharedWith,
		DocsMatched:    st.DocsMatched,
		Results:        st.Results,
		WindowDocs:     st.WindowDocs,
		Windows:        st.Windows,
		PartnerMissing: st.PartnerMissing,
	}
	if len(st.Spec.Filters) > 0 {
		out.Filters = filtersJSON(st.Spec.Filters)
	}
	s.mu.Lock()
	buf := s.buffers[st.ID]
	s.mu.Unlock()
	if buf != nil {
		out.BufferDepth, out.BufferDropped, out.LastSeq = buf.stats()
	}
	return out
}

// filtersJSON renders canonical filter pairs back as a JSON object.
func filtersJSON(filters []document.Pair) json.RawMessage {
	sorted := append([]document.Pair(nil), filters...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Attr < sorted[j].Attr })
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(document.AppendJSONString(nil, f.Attr, true))
		b.WriteByte(':')
		b.WriteString(document.ValueJSON(f.Val))
	}
	b.WriteByte('}')
	return json.RawMessage(b.Bytes())
}

func parseUint(s string, def uint64) (uint64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

func parseInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// writeResults writes the GET /queries/{id}/results body: what
// json.Encoder writes for {"dropped": dropped, "results": results}.
func writeResults(w http.ResponseWriter, results []bufferedResult, dropped int64) {
	size := 64
	for _, r := range results {
		size += len(r.Merged) + 80 // seq, left, right and the member names
	}
	body := append(make([]byte, 0, size), `{"dropped":`...)
	body = strconv.AppendInt(body, dropped, 10)
	body = append(body, `,"results":`...)
	body = appendResultsJSON(body, results)
	writeBody(w, append(body, '}', '\n'))
}

// writeBody writes an already encoded JSON body.
func writeBody(w http.ResponseWriter, body []byte) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	_, _ = w.Write(body) // a failed write means the client went away
}

// writeJSON encodes the small status bodies; results go through
// writeResults and appendIngestResponse instead.
func writeJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
