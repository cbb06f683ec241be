package document_test

import (
	"bytes"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
)

// TestParseDatasetsFastPath: every line sfj-datagen writes for the two
// benchmark datasets parses exactly as the reference parser reads it —
// pairs, symbols, marshalled bytes — in the single fast pass, and no
// value of it is handed to encoding/json.
func TestParseDatasetsFastPath(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for _, dataset := range []string{"nbData", "rwData"} {
		gen, _ := datagen.ByName(dataset, 1)
		parse := document.NewCountingParser()
		for i, d := range gen.Window(n) {
			line := d.AppendJSON(nil) // what sfj-datagen prints
			got, slow, err := parse(d.ID, line)
			if err != nil {
				t.Fatalf("%s line %d: %v", dataset, i, err)
			}
			if slow != 0 {
				t.Fatalf("%s line %d: %d values took the slow path: %s", dataset, i, slow, line)
			}
			want, err := document.ReferenceParse(d.ID, line)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || !got.Equal(d) {
				t.Fatalf("%s line %d: Parse = %v, reference %v, generated %v", dataset, i, got, want, d)
			}
			gotSyms, gotEpoch := got.Syms()
			wantSyms, wantEpoch := want.Syms()
			if gotEpoch != wantEpoch || len(gotSyms) != len(wantSyms) {
				t.Fatalf("%s line %d: symbols %v/%d, reference %v/%d", dataset, i, gotSyms, gotEpoch, wantSyms, wantEpoch)
			}
			for j := range gotSyms {
				if gotSyms[j] != wantSyms[j] {
					t.Fatalf("%s line %d: symbol %d = %v, reference %v", dataset, i, j, gotSyms[j], wantSyms[j])
				}
			}
			if back := got.AppendJSON(nil); !bytes.Equal(back, line) {
				t.Fatalf("%s line %d marshals to %s, was %s", dataset, i, back, line)
			}
		}
	}
}

// TestParseAllocations: a document of known attributes and values costs
// its two slices and nothing else.
func TestParseAllocations(t *testing.T) {
	for _, dataset := range []string{"nbData", "rwData"} {
		gen, _ := datagen.ByName(dataset, 1)
		var lines [][]byte
		for _, d := range gen.Window(200) {
			lines = append(lines, d.AppendJSON(nil))
		}
		parse := document.NewCountingParser()
		parseAll := func() {
			for _, line := range lines {
				if _, _, err := parse(1, line); err != nil {
					t.Fatal(err)
				}
			}
		}
		parseAll() // interns everything
		if got := testing.AllocsPerRun(20, parseAll) / float64(len(lines)); got > 2 {
			t.Errorf("%s: %.2f allocations per parsed document, want 2", dataset, got)
		}
	}
}
