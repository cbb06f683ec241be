package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/join"
)

// input is what one seed turns into: the NDJSON bytes the system under
// test receives — it never sees the seed — and, for the oracle and the
// per-layer passes, the same lines parsed the way the system parses
// them (document ids 1..n in stream order).
type input struct {
	ndjson []byte
	lines  [][]byte // views into ndjson, newline excluded
	docs   []document.Document
}

// makeInput generates n documents window by window, as a generator
// source inside the topology would be pulled: the generators vary
// their drift from one Window call to the next.
func makeInput(dataset string, seed int64, n, window int) (*input, error) {
	gen, ok := datagen.ByName(dataset, seed)
	if !ok {
		return nil, fmt.Errorf("bench: unknown dataset %q", dataset)
	}
	var buf bytes.Buffer
	for made := 0; made < n; made += window {
		for _, d := range gen.Window(min(window, n-made)) {
			line, err := json.Marshal(d)
			if err != nil {
				return nil, fmt.Errorf("bench: marshal generated document %d: %w", d.ID, err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
	}
	in := &input{ndjson: buf.Bytes()}
	in.lines = bytes.Split(bytes.TrimSuffix(in.ndjson, []byte("\n")), []byte("\n"))
	in.docs = make([]document.Document, len(in.lines))
	for i, line := range in.lines {
		d, err := document.Parse(uint64(i+1), line)
		if err != nil {
			return nil, fmt.Errorf("bench: generated line %d does not parse: %w", i+1, err)
		}
		in.docs[i] = d
	}
	return in, nil
}

// oraclePairs is the reference computation: a single-process tumbling
// FP-tree join over the parsed documents, returning the pair count of
// each window of the given size.
func oraclePairs(docs []document.Document, window int) []int {
	w := join.NewWindowed(join.NewFPJ())
	var counts []int
	for i, d := range docs {
		w.Process(d)
		if (i+1)%window == 0 || i == len(docs)-1 {
			_, pairs := w.Tumble()
			counts = append(counts, pairs)
		}
	}
	return counts
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
