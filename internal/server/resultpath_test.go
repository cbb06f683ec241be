package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/telemetry"
)

// wireResult is one result as a client decodes it.
type wireResult struct {
	Seq    uint64          `json:"seq"`
	Left   uint64          `json:"left"`
	Right  uint64          `json:"right"`
	Merged json.RawMessage `json:"merged"`
}

// windowOracle is join.Oracle over the lines, parsed with ids 1..n,
// under tumbling windows of the given size: every pair with its merged
// document's JSON.
func windowOracle(t *testing.T, lines []string, window int) map[[2]uint64]string {
	t.Helper()
	docs := make([]document.Document, len(lines))
	for i, line := range lines {
		d, err := document.Parse(uint64(i+1), []byte(line))
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}
	pairs := map[[2]uint64]string{}
	for _, p := range join.Oracle(docs, window) {
		js, _ := document.Merge(0, docs[p.LeftID-1], docs[p.RightID-1]).MarshalJSON()
		pairs[[2]uint64{p.LeftID, p.RightID}] = string(js)
	}
	return pairs
}

func datasetLines(t *testing.T, dataset string, seed int64, n int) []string {
	t.Helper()
	gen, ok := datagen.ByName(dataset, seed)
	if !ok {
		t.Fatalf("unknown dataset %s", dataset)
	}
	lines := make([]string, 0, n)
	for _, d := range gen.Window(n) {
		js, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(js))
	}
	return lines
}

// TestEncodeOncePerDistinctPair: with the benchmark's five-query set —
// three queries on one window group, two groups whose windows overlap
// it — every distinct (left, right) pair is encoded exactly once,
// however many queries and groups deliver it. encodes equals the
// oracle's distinct pair count, deliveries the sum of the queries'
// results, and their ratio is what sharing buys.
func TestEncodeOncePerDistinctPair(t *testing.T) {
	for _, dataset := range []string{"rwData", "nbData"} {
		const docs, window = 600, 200
		lines := datasetLines(t, dataset, 3, docs)
		reg := telemetry.NewRegistry()
		ts := newTestServer(t, WithWindow(window), WithTelemetry(reg))
		for _, name := range []string{"server_result_encodes_total", "server_result_deliveries_total"} {
			if _, ok := reg.Snapshot().Counters[name]; !ok {
				t.Fatalf("%s is not registered before the first document", name)
			}
		}
		for _, spec := range goldenQueries(dataset, window) {
			createQuery(t, ts.URL, spec)
		}
		for i := 0; i < docs; i += 64 {
			resp, body := post(t, ts.URL+"/documents", strings.Join(lines[i:min(i+64, docs)], "\n"))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /documents: %d %s", resp.StatusCode, body)
			}
		}

		// Each of the three groups has a query without predicates, so
		// every pair of every group is delivered: the distinct pairs are
		// the union over the three window sizes.
		distinct := map[[2]uint64]bool{}
		for _, size := range []int{window, window / 2, window * 2} {
			for pair := range windowOracle(t, lines, size) {
				distinct[pair] = true
			}
		}
		var deliveries int64
		resp, err := http.Get(ts.URL + "/queries")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Queries []queryJSON `json:"queries"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, q := range list.Queries {
			deliveries += q.Results
			if q.PartnerMissing != 0 {
				t.Errorf("%s: query %s reports %d missing partners", dataset, q.ID, q.PartnerMissing)
			}
		}
		snap := reg.Snapshot()
		encodes := snap.Counter("server_result_encodes_total")
		if encodes != int64(len(distinct)) || encodes == 0 {
			t.Errorf("%s: server_result_encodes_total = %d, oracle has %d distinct pairs", dataset, encodes, len(distinct))
		}
		if got := snap.Counter("server_result_deliveries_total"); got != deliveries || got <= encodes {
			t.Errorf("%s: server_result_deliveries_total = %d, queries report %d results, %d encodes", dataset, got, deliveries, encodes)
		}
		if n := snap.SumCounter("join_partner_missing_total"); n != 0 {
			t.Errorf("%s: join_partner_missing_total = %d", dataset, n)
		}
		t.Logf("%s: %d deliveries of %d encodings: %.2f deliveries per encode", dataset, deliveries, encodes, float64(deliveries)/float64(encodes))
	}
}

// TestSingleDocumentRequestAllocBytes: a single-document POST does not
// pay for batch-sized scratch. Before the pooled request scratch every
// request allocated a 64 KiB scanner buffer; the ceiling here is half
// of that and covers everything a request allocates — parse and window
// insert (about 5 KiB for this document), the test's own httptest
// request and recorder (another 5 KiB) and, under -race only, the
// quarter of its Puts a sync.Pool drops on purpose (16 KiB on average).
func TestSingleDocumentRequestAllocBytes(t *testing.T) {
	srv, err := New(WithWindow(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	send := func(i int) {
		body := fmt.Sprintf(`{"User":"u%d","MsgId":%d,"Path":"/var/log/%d"}`, i, i, i) // joins nothing
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/documents", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /documents: %d %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 50; i++ { // warm the pool, the mux and the window's maps
		send(i)
	}
	const requests = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		send(1000 + i)
	}
	runtime.ReadMemStats(&after)
	const ceiling = 32 << 10
	if perRequest := (after.TotalAlloc - before.TotalAlloc) / requests; perRequest > ceiling {
		t.Errorf("a single-document POST allocates %d bytes, ceiling %d", perRequest, ceiling)
	} else {
		t.Logf("a single-document POST allocates %d bytes", perRequest)
	}
}

// TestSharedBytesUnderConcurrentReaders is the -race test of the shared
// encodings: two SSE readers and a long-poller consume queries whose
// buffers hold the same []byte per pair (same group, and a second group
// whose window overlaps) while single-document ingest runs and a
// co-resident query is deleted mid-stream. Every consumer must see, per
// query, exactly the isolated single-query oracle's pairs, each with
// the oracle's merged bytes.
func TestSharedBytesUnderConcurrentReaders(t *testing.T) {
	var lines []string
	for i := 0; i < 240; i++ {
		switch i % 3 {
		case 0:
			lines = append(lines, fmt.Sprintf(`{"user":"u%d","a":1,"note":"<%d>"}`, i%5, i))
		case 1:
			lines = append(lines, fmt.Sprintf(`{"user":"u%d","b":2}`, i%5))
		default:
			lines = append(lines, fmt.Sprintf(`{"shard":%d,"b":2}`, (i/3)%3))
		}
	}
	srv, err := New(WithResultBuffer(1 << 16))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	createQuery(t, ts.URL, `{"id":"one","window":20}`)
	createQuery(t, ts.URL, `{"id":"two","window":20}`)
	createQuery(t, ts.URL, `{"id":"doomed","window":20}`)
	createQuery(t, ts.URL, `{"id":"other","window":40}`)

	seen := map[string]map[[2]uint64]string{"one": {}, "two": {}, "other": {}}
	record := func(query string, r wireResult) {
		key := [2]uint64{r.Left, r.Right}
		if _, dup := seen[query][key]; dup {
			t.Errorf("query %s saw pair %v twice", query, key)
		}
		seen[query][key] = string(r.Merged)
	}
	var consumers sync.WaitGroup
	stream := func(query string) {
		resp, err := http.Get(ts.URL + "/queries/" + query + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
				if !ok || string(data) == "{}" {
					continue
				}
				var r wireResult
				if err := json.Unmarshal(data, &r); err != nil {
					t.Errorf("stream %s: bad frame %q: %v", query, data, err)
					return
				}
				record(query, r) // each query has one consumer: no lock needed
			}
		}()
	}
	stream("one")
	stream("other")
	ingestDone := make(chan struct{})
	consumers.Add(1)
	go func() { // the long-poller on "two"
		defer consumers.Done()
		var cursor uint64
		for {
			finished := false
			select {
			case <-ingestDone:
				finished = true
			default:
			}
			resp, err := http.Get(fmt.Sprintf("%s/queries/two/results?after=%d&max=50&wait=1", ts.URL, cursor))
			if err != nil {
				t.Errorf("long-poll: %v", err)
				return
			}
			var page struct {
				Results []wireResult `json:"results"`
			}
			err = json.NewDecoder(resp.Body).Decode(&page)
			resp.Body.Close()
			if err != nil {
				t.Errorf("long-poll: %v", err)
				return
			}
			for _, r := range page.Results {
				record("two", r)
				cursor = r.Seq
			}
			if finished && len(page.Results) == 0 {
				return
			}
		}
	}()

	for i, line := range lines {
		if resp, body := post(t, ts.URL+"/documents", line); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /documents #%d: %d %s", i, resp.StatusCode, body)
		}
		if i == len(lines)/2 {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/queries/doomed", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("DELETE /queries/doomed: %d", resp.StatusCode)
			}
		}
	}
	close(ingestDone)
	srv.Close() // streams end after their final drain, polls return
	consumers.Wait()

	for query, window := range map[string]int{"one": 20, "two": 20, "other": 40} {
		want := windowOracle(t, lines, window)
		got := seen[query]
		if len(want) == 0 || len(got) != len(want) {
			t.Errorf("query %s: consumer saw %d pairs, isolated oracle %d", query, len(got), len(want))
			continue
		}
		for pair, merged := range want {
			if got[pair] != merged {
				t.Errorf("query %s pair %v: consumer saw %q, oracle %q", query, pair, got[pair], merged)
				break
			}
		}
	}
}

// TestDuplicateQuerySentinel: the handler's 409 rests on
// join.ErrDuplicateQuery, wrapped by both places that notice a taken
// id — the server's buffer registry and the query registry under it.
func TestDuplicateQuerySentinel(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := join.QuerySpec{WindowDocs: 10}
	if err := s.registerQuery("dup", spec); err != nil {
		t.Fatal(err)
	}
	if err := s.registerQuery("dup", spec); !errors.Is(err, join.ErrDuplicateQuery) {
		t.Errorf("server registry: %v, want join.ErrDuplicateQuery", err)
	}
	if err := s.qs.Register("dup", spec); !errors.Is(err, join.ErrDuplicateQuery) {
		t.Errorf("query set: %v, want join.ErrDuplicateQuery", err)
	}
}
