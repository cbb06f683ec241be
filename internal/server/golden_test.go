package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/serve_golden.txt.gz from this build's responses")

const goldenPath = "testdata/serve_golden.txt.gz"

// goldenQueries is the benchmark's standing-query set next to the
// default query: two more on the default window group (a join-strength
// predicate, a filter) and two window groups of their own, one of which
// (double) holds a superset of the others' partners.
func goldenQueries(dataset string, window int) []string {
	filter := `{"Severity":"Error"}`
	if dataset == "nbData" {
		filter = `{"bool":true}`
	}
	return []string{
		fmt.Sprintf(`{"id":"theta","window":%d,"theta":0.5}`, window),
		fmt.Sprintf(`{"id":"filter","window":%d,"filters":%s}`, window, filter),
		fmt.Sprintf(`{"id":"half","window":%d}`, window/2),
		fmt.Sprintf(`{"id":"double","window":%d}`, window*2),
	}
}

// goldenTranscript drives one server through a fixed input and returns
// every result-carrying body it produced: the POST /documents replies,
// each query's /results body, and each query's complete SSE stream.
func goldenTranscript(t *testing.T, dataset string, docs, window, batch int) []byte {
	t.Helper()
	lines := datasetLines(t, dataset, 7, docs)

	srv, err := New(WithWindow(window), WithResultBuffer(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ids := []string{DefaultQueryID}
	for _, spec := range goldenQueries(dataset, window) {
		ids = append(ids, createQuery(t, ts.URL, spec).ID)
	}

	streams := make([][]byte, len(ids))
	var readers sync.WaitGroup
	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/queries/" + id + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			defer resp.Body.Close()
			streams[i], _ = io.ReadAll(resp.Body) // ends with the stream
		}()
	}

	var out bytes.Buffer
	section := func(name string, body []byte) {
		fmt.Fprintf(&out, "== %s %s batch=%d (%d bytes)\n%s\n", dataset, name, batch, len(body), body)
	}
	for i := 0; i < len(lines); i += batch {
		resp, body := post(t, ts.URL+"/documents", strings.Join(lines[i:min(i+batch, len(lines))], "\n"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /documents at line %d: %d %s", i, resp.StatusCode, body)
		}
		section(fmt.Sprintf("POST /documents #%d", i/batch), body)
	}
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/queries/" + id + "/results?max=1000000")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("results of %s: %d %v", id, resp.StatusCode, err)
		}
		section("GET /queries/"+id+"/results", body)
	}
	srv.Close() // ends every stream after its final drain
	readers.Wait()
	for i, id := range ids {
		section("GET /queries/"+id+"/stream", streams[i])
	}
	return out.Bytes()
}

// TestServeGoldenBodies holds every result-carrying HTTP body — POST
// /documents replies, /results pages, SSE frames — byte for byte to what
// the implementation before the encode-once result path produced
// (per-delivery Document.MarshalJSON, json.Encoder over map[string]any),
// for rwData and nbData through the benchmark's five-query set, as
// single-document POSTs and as 64-line batches. The golden file was
// written by that parent build with -update-golden.
func TestServeGoldenBodies(t *testing.T) {
	var got bytes.Buffer
	for _, in := range []struct {
		dataset      string
		docs, window int
	}{
		{"rwData", 200, 60},
		{"nbData", 60, 20},
	} {
		for _, batch := range []int{1, 64} {
			got.Write(goldenTranscript(t, in.dataset, in.docs, in.window, batch))
		}
	}
	want := readGolden(t)
	if *updateGolden {
		// A regeneration may reorder a document's deliveries, never change
		// them: the new bodies must equal the old ones once each document's
		// results are sorted by partner.
		if !bytes.Equal(sortedDeliveries(t, got.Bytes()), sortedDeliveries(t, want)) {
			t.Fatalf("refusing to rewrite %s: the deliveries differ from its, not only their order within a document", goldenPath)
		}
		var zipped bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&zipped, gzip.BestCompression)
		zw.Write(got.Bytes())
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, zipped.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d bytes (%d unzipped)", goldenPath, zipped.Len(), got.Len())
		return
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	section := ""
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if bytes.HasPrefix(wantLines[i], []byte("== ")) {
			section = string(wantLines[i])
		}
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("bodies differ from the parent's in %q, line %d:\n got %.400s\nwant %.400s", section, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("bodies differ from the parent's in length: %d lines, want %d", len(gotLines), len(wantLines))
}

func readGolden(t *testing.T) []byte {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

var (
	seqField = regexp.MustCompile(`"seq":[0-9]+,`)
	sseID    = regexp.MustCompile(`(?m)^id: [0-9]+\n`)
	result   = regexp.MustCompile(`\{"left":([0-9]+),"right":([0-9]+),"merged":`)
)

// sortedDeliveries is a transcript with the order of each document's
// deliveries taken out: seq numbers and SSE event ids are dropped, and
// every run of consecutive results for one arriving document is sorted
// by partner id. Two transcripts equal in this form deliver the same
// results to every query, document by document.
func sortedDeliveries(t *testing.T, transcript []byte) []byte {
	t.Helper()
	in := sseID.ReplaceAll(seqField.ReplaceAll(transcript, nil), nil)
	type record struct {
		left, right uint64
		body        []byte
	}
	var out, runSep []byte
	var run []record
	flush := func() {
		sort.SliceStable(run, func(i, j int) bool { return run[i].left < run[j].left })
		for i, r := range run {
			if i > 0 {
				out = append(out, runSep...)
			}
			out = append(out, r.body...)
		}
		run, runSep = run[:0], nil
	}
	pos := 0
	for _, m := range result.FindAllSubmatchIndex(in, -1) {
		if m[0] < pos {
			continue // inside a record already taken
		}
		dec := json.NewDecoder(bytes.NewReader(in[m[0]:]))
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("result at byte %d: %v", m[0], err)
		}
		left, _ := strconv.ParseUint(string(in[m[2]:m[3]]), 10, 64)
		right, _ := strconv.ParseUint(string(in[m[4]:m[5]]), 10, 64)
		// Results of one body follow each other after "," (a JSON array)
		// or a blank line and "data: " (an SSE stream).
		between := in[pos:m[0]]
		joined := len(run) > 0 && run[0].right == right &&
			(string(between) == "," || string(between) == "\n\ndata: ") &&
			(runSep == nil || bytes.Equal(runSep, between))
		if !joined {
			flush()
			out = append(out, between...)
		} else {
			runSep = between
		}
		end := m[0] + int(dec.InputOffset())
		run = append(run, record{left, right, in[m[0]:end]})
		pos = end
	}
	flush()
	return append(out, in[pos:]...)
}
