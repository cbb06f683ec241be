package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func newTestServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return ts
}

type docsResponse struct {
	Ingested int `json:"ingested"`
	Results  []struct {
		Seq    uint64          `json:"seq"`
		Left   uint64          `json:"left"`
		Right  uint64          `json:"right"`
		Merged json.RawMessage `json:"merged"`
	} `json:"results"`
	Queries map[string]int `json:"queries"`
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := buf.WriteString(readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String())
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	b := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(b)
		sb.Write(b[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func TestIngestSingleAndJoin(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := post(t, ts.URL+"/documents", `{"User":"A","Severity":"Warning"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	resp2, body := post(t, ts.URL+"/documents", `{"User":"A","MsgId":2}`)
	if resp2.StatusCode != 200 {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	var dr docsResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if dr.Ingested != 1 || len(dr.Results) != 1 {
		t.Fatalf("response = %+v", dr)
	}
	var merged map[string]any
	if err := json.Unmarshal(dr.Results[0].Merged, &merged); err != nil {
		t.Fatal(err)
	}
	if merged["Severity"] != "Warning" || merged["MsgId"] != float64(2) {
		t.Errorf("merged = %v", merged)
	}
	if dr.Queries[DefaultQueryID] != 1 {
		t.Errorf("queries = %v, want default: 1", dr.Queries)
	}
}

func TestIngestNDJSONBatch(t *testing.T) {
	ts := newTestServer(t)
	batch := `{"a":1}` + "\n" + `{"a":1,"b":2}` + "\n\n" + `{"a":1,"c":3}` + "\n"
	resp, body := post(t, ts.URL+"/documents", batch)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var dr docsResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Ingested != 3 {
		t.Errorf("ingested = %d", dr.Ingested)
	}
	// d2 joins d1; d3 joins d1 and d2.
	if len(dr.Results) != 3 {
		t.Errorf("results = %d, want 3", len(dr.Results))
	}
}

func TestMalformedDocumentRejected(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := post(t, ts.URL+"/documents", `{"broken`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	// Stats record the parse error.
	st := getStats(t, ts.URL)
	if st.ParseErrors != 1 {
		t.Errorf("ParseErrors = %d", st.ParseErrors)
	}
}

// TestBadLineNamedByNumber: a line that is not exactly one JSON object
// — a second object behind the first, trailing text, a top-level null —
// is refused with its line number (blank lines count) and the number of
// documents ingested before it; nothing is dropped silently.
func TestBadLineNamedByNumber(t *testing.T) {
	cases := []struct{ name, bad string }{
		{"two objects on one line", `{"a":1}{"b":2}`},
		{"trailing text", `{"a":1} trailing`},
		{"top-level null", `null`},
		{"array", `[{"a":1}]`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := newTestServer(t)
			body := `{"k":1}` + "\n\n" + `{"k":2}` + "\n" + c.bad + "\n" + `{"k":3}` + "\n"
			resp, msg := post(t, ts.URL+"/documents", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, msg)
			}
			if !strings.Contains(string(msg), "line 4 (after 2 documents)") {
				t.Errorf("error does not name line 4 after 2 documents: %s", msg)
			}
			if st := getStats(t, ts.URL); st.ParseErrors != 1 {
				t.Errorf("ParseErrors = %d, want 1", st.ParseErrors)
			}
		})
	}
}

func getStats(t *testing.T, base string) Stats {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestManualTumble(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/documents", `{"a":1}`)
	post(t, ts.URL+"/documents", `{"a":1}`)
	resp, body := post(t, ts.URL+"/tumble", "")
	if resp.StatusCode != 200 {
		t.Fatalf("tumble status %d", resp.StatusCode)
	}
	var out map[string]int
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["documents"] != 2 || out["pairs"] != 1 {
		t.Errorf("tumble = %v", out)
	}
	// After the tumble, the same content joins nothing.
	_, body2 := post(t, ts.URL+"/documents", `{"a":1}`)
	var dr docsResponse
	json.Unmarshal(body2, &dr)
	if len(dr.Results) != 0 {
		t.Errorf("window leaked across tumble: %v", dr.Results)
	}
}

func TestAutoTumble(t *testing.T) {
	ts := newTestServer(t, WithWindow(2))
	post(t, ts.URL+"/documents", `{"a":1}`)
	post(t, ts.URL+"/documents", `{"a":1}`)
	// Window tumbled automatically after 2 docs.
	st := getStats(t, ts.URL)
	if st.Windows != 1 {
		t.Errorf("Windows = %d, want 1", st.Windows)
	}
	if st.CurrentWindowDocs != 0 {
		t.Errorf("CurrentWindowDocs = %d", st.CurrentWindowDocs)
	}
	_, body := post(t, ts.URL+"/documents", `{"a":1}`)
	var dr docsResponse
	json.Unmarshal(body, &dr)
	if len(dr.Results) != 0 {
		t.Errorf("joined across auto-tumble: %v", dr.Results)
	}
}

func TestStatsCounts(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts.URL+"/documents", `{"a":1}`+"\n"+`{"a":1}`)
	st := getStats(t, ts.URL)
	if st.Documents != 2 || st.JoinPairs != 1 || st.CurrentWindowDocs != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Queries != 1 || st.WindowGroups != 1 {
		t.Errorf("stats query fields = %+v", st)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/documents")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /documents = %d, want 405", resp.StatusCode)
	}
}

func TestConcurrentClients(t *testing.T) {
	ts := newTestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				doc := fmt.Sprintf(`{"user":"u%d","seq":%d}`, i, j)
				resp, err := http.Post(ts.URL+"/documents", "application/json", strings.NewReader(doc))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	st := getStats(t, ts.URL)
	if st.Documents != 160 {
		t.Errorf("Documents = %d, want 160", st.Documents)
	}
}

func TestBadEngine(t *testing.T) {
	if _, err := New(WithEngine("nope")); err == nil {
		t.Error("bad engine must fail")
	}
}

func TestBodyLimit(t *testing.T) {
	ts := newTestServer(t, WithMaxBodyBytes(64))
	big := `{"a":"` + strings.Repeat("x", 200) + `"}`
	resp, _ := post(t, ts.URL+"/documents", big)
	if resp.StatusCode == http.StatusOK {
		t.Error("oversized body accepted")
	}
}

func TestTelemetryEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts := newTestServer(t, WithTelemetry(reg))
	post(t, ts.URL+"/documents", `{"a":1}`+"\n"+`{"a":1,"b":2}`+"\n")
	post(t, ts.URL+"/tumble", "")
	post(t, ts.URL+"/documents", `{"broken`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"server_documents_total 2",
		"server_join_pairs_total 1",
		"server_windows_total 1",
		"server_parse_errors_total 1",
		"# TYPE join_probe_seconds histogram",
		"queryset_window_groups 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%.600s", want, body)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(readAll(t, resp)), &snap); err != nil {
		t.Fatal(err)
	}
	// The join series is labelled by window group now; sum over labels.
	if n := snap.SumCounter("join_results_total"); n != 1 {
		t.Errorf("debug snapshot join_results_total = %d, want 1", n)
	}
}

// TestTelemetryOffNoEndpoints: without a registry the scrape routes
// stay unrouted.
func TestTelemetryOffNoEndpoints(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics without telemetry = %d, want 404", resp.StatusCode)
	}
}
