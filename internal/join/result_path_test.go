package join

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
)

// goldenLines renders results the way testdata/windowed_golden.txt
// records them: pair, merged id, and a hash of the merged content.
func goldenLines(sb *strings.Builder, label string, rs []Result) {
	for _, r := range rs {
		h := fnv.New64a()
		h.Write([]byte(r.Merged.String()))
		fmt.Fprintf(sb, "%s %d %d %d %016x\n", label, r.Left, r.Right, r.Merged.ID, h.Sum64())
	}
}

// TestWindowedGoldenResults replays a recorded input through Process,
// tumbling once mid-stream, and compares every result, in order, with
// what the implementation before the pair-level/materialise split
// returned: the "process" lines of testdata/windowed_golden.txt, written
// by that implementation. The file's other lines recorded result paths
// that no longer exist.
func TestWindowedGoldenResults(t *testing.T) {
	docs := datagen.NewServerLog(5).Window(60)
	var sb strings.Builder
	w := NewWindowed(NewFPJ())
	for i, d := range docs {
		if i == 30 {
			w.Tumble()
		}
		goldenLines(&sb, "process", w.Process(d))
	}
	golden, err := os.ReadFile("testdata/windowed_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if strings.HasPrefix(line, "process ") {
			want.WriteString(line)
		}
	}
	got := sb.String()
	if got == want.String() {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want.String(), "\n")
	for i := range wl {
		if i >= len(gl) || gl[i] != wl[i] {
			t.Fatalf("line %d: got %q, golden %q (%d lines vs %d)", i+1, append(gl, "")[min(i, len(gl))], wl[i], len(gl), len(wl))
		}
	}
	t.Fatalf("%d result lines, golden has %d", len(gl), len(wl))
}

// TestPartnersThenMaterializeSubset exercises the two steps the way
// the scale-out Joiner does: ids first, a caller-chosen subset
// materialised into a reused buffer, merged ids numbering only what was
// materialised.
func TestPartnersThenMaterializeSubset(t *testing.T) {
	w := NewWindowed(NewFPJ())
	for id, js := range []string{`{"a":1}`, `{"a":1,"b":2}`, `{"a":1,"c":3}`} {
		if got := len(w.Partners(document.MustParse(uint64(id+1), js))); got != id {
			t.Fatalf("document %d found %d partners, want %d", id+1, got, id)
		}
	}
	d := document.MustParse(4, `{"a":1,"d":4}`)
	partners := w.Partners(d)
	if len(partners) != 3 {
		t.Fatalf("partners = %v, want 3 ids", partners)
	}
	if w.Partners(d) != nil {
		t.Error("duplicate delivery yielded partners")
	}
	buf := make([]Result, 0, 4)
	res := w.Materialize(buf[:0], d, []uint64{3, 99}) // 99 is not in the window
	if len(res) != 1 || res[0].Left != 3 || res[0].Right != 4 || res[0].Merged.ID != 1 {
		t.Fatalf("Materialize = %+v, want the one pair (3,4) as merged document 1", res)
	}
	if &res[0] != &buf[:1][0] {
		t.Error("Materialize did not append into the caller's buffer")
	}
	if want := document.MustParse(1, `{"a":1,"c":3,"d":4}`); !res[0].Merged.Equal(want) {
		t.Errorf("merged = %v, want %v", res[0].Merged, want)
	}
	if docs, pairs := w.Tumble(); docs != 4 || pairs != 6 {
		t.Errorf("Tumble = (%d, %d), want 4 documents and all 6 pairs found", docs, pairs)
	}
}

// TestPartnersSteadyStateAllocs pins the pair-level step at zero
// allocations per probe of its own: once a first window has grown the
// store's buckets and the id buffers, a window through
// Windowed.Partners allocates exactly what the bare engine's
// ProbeInsert allocates for the same documents (the FP-tree's nodes) —
// no result slice, no merged document, no map regrowth after Tumble.
func TestPartnersSteadyStateAllocs(t *testing.T) {
	docs := datagen.NewServerLog(3).Window(400)
	eng := NewFPJ()
	bare := func() {
		for _, d := range docs {
			eng.ProbeInsert(d)
		}
		eng.Reset()
	}
	w := NewWindowed(NewFPJ())
	windowed := func() {
		for _, d := range docs {
			w.Partners(d)
		}
		w.Tumble()
	}
	bare() // grow everything once
	windowed()
	engineAllocs := testing.AllocsPerRun(5, bare)
	if got := testing.AllocsPerRun(5, windowed); got != engineAllocs {
		t.Errorf("%.0f allocations per %d-document window through Partners, the engine alone makes %.0f: the pair-level step allocates %.2f per probe, want 0",
			got, len(docs), engineAllocs, (got-engineAllocs)/float64(len(docs)))
	}
}

// TestWindowedRestoresSnapshotWithSeenList: snapshots written while
// Windowed kept a separate dedup set carry its ids; they must restore,
// and the store must still suppress those ids.
func TestWindowedRestoresSnapshotWithSeenList(t *testing.T) {
	type legacyWindowedGob struct {
		Engine        string
		NextID        uint64
		PairsEmitted  int
		DocsProcessed int
		Duplicates    int
		Store         []document.Document
		Seen          []uint64
		EngineState   []byte
	}
	docs := snapDocs()
	src := NewWindowed(NewFPJ())
	for _, d := range docs[:3] {
		src.Process(d)
	}
	var eng bytes.Buffer
	if err := src.engine.Snapshot(&eng); err != nil {
		t.Fatal(err)
	}
	legacy := legacyWindowedGob{
		Engine: "FPJ", NextID: src.nextID, PairsEmitted: src.pairsEmitted, DocsProcessed: 3,
		Store: docs[:3], Seen: []uint64{docs[0].ID, docs[1].ID, docs[2].ID}, EngineState: eng.Bytes(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	dst := NewWindowed(NewFPJ())
	if err := dst.Restore(&buf); err != nil {
		t.Fatalf("restore of a snapshot with a Seen list: %v", err)
	}
	if dst.Size() != 3 || dst.Process(docs[1]) != nil || dst.Duplicates() != 1 {
		t.Fatalf("restored window: size %d, duplicates %d; want 3 documents and the replayed one suppressed", dst.Size(), dst.Duplicates())
	}
	for _, d := range docs[3:] {
		if got, want := len(dst.Process(d)), len(src.Process(d)); got != want {
			t.Fatalf("Process(%d) after restore: %d results, want %d", d.ID, got, want)
		}
	}
}
