package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

type resultsResponse struct {
	Results []struct {
		Seq    uint64          `json:"seq"`
		Left   uint64          `json:"left"`
		Right  uint64          `json:"right"`
		Merged json.RawMessage `json:"merged"`
	} `json:"results"`
	Dropped int64 `json:"dropped"`
}

func createQuery(t *testing.T, base, spec string) queryJSON {
	t.Helper()
	resp, body := post(t, base+"/queries", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create query: status %d: %s", resp.StatusCode, body)
	}
	var q queryJSON
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	return q
}

func getResults(t *testing.T, base, id, params string) resultsResponse {
	t.Helper()
	resp, err := http.Get(base + "/queries/" + id + "/results" + params)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("results status %d", resp.StatusCode)
	}
	var rr resultsResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

func TestQueryLifecycle(t *testing.T) {
	ts := newTestServer(t)
	q := createQuery(t, ts.URL, `{"id":"mine","window":100}`)
	if q.ID != "mine" || q.Engine != "FPJ" || q.Window != 100 {
		t.Errorf("created = %+v", q)
	}

	// Listing includes the default query and the new one.
	r2, err := http.Get(ts.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, r2)
	r2.Body.Close()
	var list struct {
		Queries []queryJSON `json:"queries"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Queries) != 2 {
		t.Fatalf("listed %d queries, want 2: %s", len(list.Queries), body)
	}
	if list.Queries[0].ID != "default" || list.Queries[1].ID != "mine" {
		t.Errorf("list order: %q, %q", list.Queries[0].ID, list.Queries[1].ID)
	}

	// GET by id.
	r3, err := http.Get(ts.URL + "/queries/mine")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != 200 {
		t.Errorf("get query = %d", r3.StatusCode)
	}

	// Duplicate id conflicts; reserved id conflicts; bad specs 400.
	if resp, _ := post(t, ts.URL+"/queries", `{"id":"mine"}`); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate = %d, want 409", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/queries", `{"id":"default"}`); resp.StatusCode != http.StatusConflict {
		t.Errorf("reserved = %d, want 409", resp.StatusCode)
	}
	for _, bad := range []string{
		`{"engine":"nope"}`, `{"theta":2}`, `{"window":-1}`, `{"nonsense":1}`,
		`{"filters":{"a":{"nested":1}}}`,
	} {
		if resp, _ := post(t, ts.URL+"/queries", bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s = %d, want 400", bad, resp.StatusCode)
		}
	}

	// DELETE removes it; default is protected.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/queries/mine", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Errorf("delete = %d, want 204", dresp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/queries/mine", nil)
	dresp, _ = http.DefaultClient.Do(req)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("re-delete = %d, want 404", dresp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/queries/default", nil)
	dresp, _ = http.DefaultClient.Do(req)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusForbidden {
		t.Errorf("delete default = %d, want 403", dresp.StatusCode)
	}

	// Server-assigned ids when omitted.
	q2 := createQuery(t, ts.URL, `{"window":10}`)
	if !strings.HasPrefix(q2.ID, "q") {
		t.Errorf("assigned id = %q", q2.ID)
	}
}

func TestQueryAdmissionCap(t *testing.T) {
	ts := newTestServer(t, WithMaxQueries(2))
	createQuery(t, ts.URL, `{"window":10}`)
	createQuery(t, ts.URL, `{"window":20}`)
	resp, _ := post(t, ts.URL+"/queries", `{"window":30}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over cap = %d, want 429", resp.StatusCode)
	}
}

// TestSharedTreeAcceptance: two concurrent queries with identical window
// configs share one FP-tree (asserted via the shared-tree gauge) and
// their result multisets equal an isolated single-query run's; a third
// query with a window within the share factor reads the same tree
// through its own window class, and a fourth beyond the factor keeps
// private state; both stay correct.
func TestSharedTreeAcceptance(t *testing.T) {
	docs := make([]string, 0, 60)
	for i := 0; i < 60; i++ {
		switch i % 3 {
		case 0:
			docs = append(docs, fmt.Sprintf(`{"user":"u%d","a":1}`, i%5))
		case 1:
			docs = append(docs, fmt.Sprintf(`{"user":"u%d","b":2}`, i%5))
		default:
			docs = append(docs, fmt.Sprintf(`{"shard":%d,"b":2}`, (i/3)%3))
		}
	}
	batch := strings.Join(docs, "\n")

	reg := telemetry.NewRegistry()
	ts := newTestServer(t, WithTelemetry(reg))
	createQuery(t, ts.URL, `{"id":"one","window":20}`)
	createQuery(t, ts.URL, `{"id":"two","window":20}`)
	createQuery(t, ts.URL, `{"id":"other","window":30}`)
	createQuery(t, ts.URL, `{"id":"far","window":200}`)

	// The gauges prove one, two and other share a tree and far does not.
	snap := reg.Snapshot()
	if g := snap.Gauge("queryset_shared_window_groups"); g != 1 {
		t.Fatalf("shared groups gauge = %g, want 1", g)
	}
	// default (manual) + w20/w30 (shared) + w200 = 3 states.
	if g := snap.Gauge("queryset_window_groups"); g != 3 {
		t.Fatalf("window groups gauge = %g, want 3", g)
	}

	post(t, ts.URL+"/documents", batch)
	shared := map[string][][2]uint64{}
	for _, id := range []string{"one", "two", "other", "far"} {
		rr := getResults(t, ts.URL, id, "?max=10000")
		for _, r := range rr.Results {
			shared[id] = append(shared[id], pairKey(r.Left, r.Right))
		}
	}
	if len(shared["one"]) == 0 {
		t.Fatal("acceptance test vacuous: no results")
	}

	// Isolated single-query runs, one server each.
	for _, q := range []struct{ id, spec string }{
		{"one", `{"id":"solo","window":20}`},
		{"other", `{"id":"solo","window":30}`},
		{"far", `{"id":"solo","window":200}`},
	} {
		iso := newTestServer(t)
		createQuery(t, iso.URL, q.spec)
		post(t, iso.URL+"/documents", batch)
		rr := getResults(t, iso.URL, "solo", "?max=10000")
		var want [][2]uint64
		for _, r := range rr.Results {
			want = append(want, pairKey(r.Left, r.Right))
		}
		if !samePairs(shared[q.id], want) {
			t.Errorf("query %s: shared run %d pairs, isolated run %d pairs", q.id, len(shared[q.id]), len(want))
		}
	}
	if !samePairs(shared["one"], shared["two"]) {
		t.Error("co-resident queries one and two diverge")
	}
}

func pairKey(l, r uint64) [2]uint64 {
	if l > r {
		l, r = r, l
	}
	return [2]uint64{l, r}
}

func samePairs(a, b [][2]uint64) bool {
	a, b = append([][2]uint64(nil), a...), append([][2]uint64(nil), b...)
	less := func(s [][2]uint64) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i][0] != s[j][0] {
				return s[i][0] < s[j][0]
			}
			return s[i][1] < s[j][1]
		}
	}
	sort.Slice(a, less(a))
	sort.Slice(b, less(b))
	return reflect.DeepEqual(a, b)
}

func TestQueryFiltersAndTheta(t *testing.T) {
	ts := newTestServer(t)
	createQuery(t, ts.URL, `{"id":"all","window":100}`)
	createQuery(t, ts.URL, `{"id":"warn","window":100,"filters":{"sev":"W"}}`)
	createQuery(t, ts.URL, `{"id":"tight","window":100,"theta":1}`)
	post(t, ts.URL+"/documents",
		`{"k":1,"sev":"W"}`+"\n"+`{"k":1,"x":2}`+"\n"+`{"k":1,"sev":"E"}`)
	all := getResults(t, ts.URL, "all", "")
	warn := getResults(t, ts.URL, "warn", "")
	tight := getResults(t, ts.URL, "tight", "")
	// d1-d2 and d2-d3 join (d1-d3 conflicts on sev): 2 results.
	if len(all.Results) != 2 {
		t.Fatalf("all = %d results, want 2", len(all.Results))
	}
	// Only d1-d2 carries sev:W in the merged document.
	if len(warn.Results) != 1 {
		t.Errorf("warn = %d results, want 1", len(warn.Results))
	}
	// No pair shares every attribute of the smaller input.
	if len(tight.Results) != 0 {
		t.Errorf("tight = %d results, want 0", len(tight.Results))
	}
	// Numeric filters canonicalise: 2.0 matches a document's 2.
	createQuery(t, ts.URL, `{"id":"num","window":100,"filters":{"x":2.0}}`)
	post(t, ts.URL+"/documents", `{"k":1,"x":2,"fresh":1}`)
	num := getResults(t, ts.URL, "num", "")
	if len(num.Results) == 0 {
		t.Error("numeric filter 2.0 failed to match x:2 results")
	}
}

func TestLongPollResults(t *testing.T) {
	ts := newTestServer(t)
	createQuery(t, ts.URL, `{"id":"lp","window":100}`)
	post(t, ts.URL+"/documents", `{"a":1}`+"\n"+`{"a":1,"b":2}`+"\n"+`{"a":1,"c":3}`)

	rr := getResults(t, ts.URL, "lp", "?max=2")
	if len(rr.Results) != 2 || rr.Results[0].Seq != 1 || rr.Results[1].Seq != 2 {
		t.Fatalf("page 1 = %+v", rr.Results)
	}
	rr = getResults(t, ts.URL, "lp", fmt.Sprintf("?after=%d", rr.Results[1].Seq))
	if len(rr.Results) != 1 || rr.Results[0].Seq != 3 {
		t.Fatalf("page 2 = %+v", rr.Results)
	}

	// A waiting poll is woken by a later ingest.
	done := make(chan resultsResponse, 1)
	go func() {
		done <- getResults(t, ts.URL, "lp", "?after=3&wait=30")
	}()
	time.Sleep(50 * time.Millisecond)
	post(t, ts.URL+"/documents", `{"a":1,"d":4}`)
	select {
	case rr = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke")
	}
	if len(rr.Results) != 3 {
		t.Errorf("woken poll = %d results, want 3 (new doc joins all three)", len(rr.Results))
	}

	// Unknown query 404s; bad cursor 400s.
	resp, err := http.Get(ts.URL + "/queries/ghost/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ghost results = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/queries/lp/results?after=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cursor = %d", resp.StatusCode)
	}
}

func TestResultBufferOverflow(t *testing.T) {
	ts := newTestServer(t, WithResultBuffer(4))
	createQuery(t, ts.URL, `{"id":"small","window":100}`)
	// 5 docs sharing k:1 produce C(5,2) = 10 results; buffer keeps 4.
	docs := make([]string, 5)
	for i := range docs {
		docs[i] = `{"k":1}`
	}
	post(t, ts.URL+"/documents", strings.Join(docs, "\n"))
	rr := getResults(t, ts.URL, "small", "?max=100")
	if len(rr.Results) != 4 {
		t.Errorf("buffered = %d, want 4", len(rr.Results))
	}
	if rr.Dropped != 6 {
		t.Errorf("dropped = %d, want 6", rr.Dropped)
	}
	// Seqs are the last four of 1..10 — the client can see the gap.
	if rr.Results[0].Seq != 7 || rr.Results[3].Seq != 10 {
		t.Errorf("seq range = %d..%d, want 7..10", rr.Results[0].Seq, rr.Results[3].Seq)
	}
}

func TestSSEStream(t *testing.T) {
	ts := newTestServer(t)
	createQuery(t, ts.URL, `{"id":"sse","window":100}`)
	post(t, ts.URL+"/documents", `{"a":1}`+"\n"+`{"a":1,"b":2}`)

	resp, err := http.Get(ts.URL + "/queries/sse/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	reader := bufio.NewReader(resp.Body)
	events := make(chan string, 16)
	go func() {
		for {
			line, err := reader.ReadString('\n')
			if err != nil {
				close(events)
				return
			}
			events <- strings.TrimRight(line, "\n")
		}
	}()
	wantLine := func(want string) {
		t.Helper()
		for {
			select {
			case line, ok := <-events:
				if !ok {
					t.Fatalf("stream ended waiting for %q", want)
				}
				if line == "" {
					continue
				}
				if line != want && !strings.HasPrefix(line, "data: ") {
					t.Fatalf("line = %q, want %q", line, want)
				}
				if line == want {
					return
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("timeout waiting for %q", want)
			}
		}
	}
	// The buffered result arrives first.
	wantLine("id: 1")
	// A new ingest streams live.
	post(t, ts.URL+"/documents", `{"a":1,"c":3}`)
	wantLine("id: 2")
	wantLine("id: 3")
	// Deleting the query ends the stream.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/queries/sse", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	wantLine("event: end")
}

func TestMaxWindowDocsGuard(t *testing.T) {
	// A manual-window server with the guard set force-tumbles instead
	// of growing without bound.
	ts := newTestServer(t, WithMaxWindowDocs(3))
	for i := 0; i < 7; i++ {
		post(t, ts.URL+"/documents", `{"k":1}`)
	}
	st := getStats(t, ts.URL)
	if st.Windows != 2 {
		t.Errorf("forced windows = %d, want 2", st.Windows)
	}
	if st.CurrentWindowDocs != 1 {
		t.Errorf("open window fill = %d, want 1", st.CurrentWindowDocs)
	}
	// Results reflect the eviction: doc 7 only joins the window-mate
	// survivors, not all six predecessors.
	_, body := post(t, ts.URL+"/documents", `{"k":1}`)
	var dr docsResponse
	json.Unmarshal(body, &dr)
	if len(dr.Results) != 1 {
		t.Errorf("doc 8 joined %d docs, want 1 (window was force-tumbled)", len(dr.Results))
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	createQuery(t, ts.URL, `{"id":"q","window":100}`)
	post(t, ts.URL+"/documents", `{"a":1}`+"\n"+`{"a":1,"b":2}`)

	// A long-poll waiting past the buffered results returns promptly on
	// Close instead of hanging until its wait expires.
	done := make(chan resultsResponse, 1)
	go func() {
		done <- getResults(t, ts.URL, "q", "?after=1&wait=60")
	}()
	time.Sleep(50 * time.Millisecond)
	s.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll hung through Close")
	}
	// Buffered results stay drainable after Close; new ingests 503.
	rr := getResults(t, ts.URL, "q", "")
	if len(rr.Results) != 1 {
		t.Errorf("post-close drain = %d results, want 1", len(rr.Results))
	}
	resp, _ := post(t, ts.URL+"/documents", `{"a":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest after close = %d, want 503", resp.StatusCode)
	}
}
