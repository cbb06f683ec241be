package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestParseKeepsMinimaPerUnit: ns/op and allocs/op are each the minimum
// over repetitions, custom metrics between them do not confuse the
// line match, and test2json events are reassembled.
func TestParseKeepsMinimaPerUnit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	content := `{"Action":"output","Output":"BenchmarkJoinerResultPath-2   \t       5\t  18808688 ns/op\t"}
{"Action":"output","Output":"     37183 pairs/op\t         3.205 replication\t10005499 B/op\t   77857 allocs/op\n"}
BenchmarkJoinerResultPath-8   	       5	  19000000 ns/op	     37183 pairs/op	10005467 B/op	   77846 allocs/op
BenchmarkFPTreeInsert-2   	    2000	       812.5 ns/op
BenchmarkWireEncode/format=binary-2 	  200000	       340.1 ns/op	       0 B/op	       0 allocs/op
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]sample{
		"BenchmarkJoinerResultPath":         {ns: 18808688, allocs: 77846},
		"BenchmarkFPTreeInsert":             {ns: 812.5, allocs: -1},
		"BenchmarkWireEncode/format=binary": {ns: 340.1, allocs: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}
