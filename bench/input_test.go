package main

import (
	"bytes"
	"testing"

	"repro/internal/document"
)

func TestInputIsAFunctionOfTheSeed(t *testing.T) {
	for _, dataset := range []string{"rwData", "nbData"} {
		a, err := makeInput(dataset, 5, 300, 100)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInput(dataset, 5, 300, 100)
		if err != nil {
			t.Fatal(err)
		}
		c, err := makeInput(dataset, 6, 300, 100)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.ndjson, b.ndjson) {
			t.Errorf("%s: two generations from seed 5 differ", dataset)
		}
		if bytes.Equal(a.ndjson, c.ndjson) {
			t.Errorf("%s: seeds 5 and 6 give the same bytes", dataset)
		}
		if len(a.lines) != 300 || len(a.docs) != 300 {
			t.Errorf("%s: %d lines, %d docs, want 300", dataset, len(a.lines), len(a.docs))
		}
	}
	if _, err := makeInput("noSuchData", 1, 10, 10); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestOracleCountsJoinablePairsPerWindow(t *testing.T) {
	in, err := makeInput("rwData", 9, 250, 100)
	if err != nil {
		t.Fatal(err)
	}
	const window = 100
	got := oraclePairs(in.docs, window)
	if len(got) != 3 {
		t.Fatalf("%d windows, want 3 (100, 100, 50 documents)", len(got))
	}
	for w := range got {
		lo, hi := w*window, min((w+1)*window, len(in.docs))
		want := 0
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				if document.Joinable(in.docs[i], in.docs[j]) {
					want++
				}
			}
		}
		if got[w] != want {
			t.Errorf("window %d: oracle %d pairs, brute force %d", w, got[w], want)
		}
	}
	if sum(got) == 0 {
		t.Error("no pairs at all: the check is vacuous")
	}
}
