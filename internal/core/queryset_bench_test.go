package core

import (
	"encoding/json"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/telemetry"
)

// serveSet is sfj-serve's benchmark query set on window w: the default
// query, a θ = 0.5 and a filtered query on w, one query on w/2 and one
// on 2w.
func serveSet(w int, filter document.Pair) map[string]join.QuerySpec {
	return map[string]join.QuerySpec{
		"default": {WindowDocs: w},
		"theta":   {WindowDocs: w, Theta: 0.5},
		"filter":  {WindowDocs: w, Filters: []document.Pair{filter}},
		"half":    {WindowDocs: w / 2},
		"double":  {WindowDocs: 2 * w},
	}
}

// BenchmarkQuerySetServeSet drives the serve query set through
// QuerySet.IngestJSONPairs, one JSON document per op, the way POST
// /documents does: nbData on windows of 2 000 documents, rwData on 1 000.
// Besides ns/op and allocs/op it reports join_probe_seconds
// observations per document, that is, the number of window states
// every document is inserted into and probed against.
func BenchmarkQuerySetServeSet(b *testing.B) {
	for _, in := range []struct {
		dataset string
		window  int
		filter  document.Pair
	}{
		{"nbData", 2000, document.Pair{Attr: "bool", Val: document.EncodeBool(true)}},
		{"rwData", 1000, document.Pair{Attr: "Severity", Val: document.EncodeString("Error")}},
	} {
		b.Run(in.dataset, func(b *testing.B) {
			gen, _ := datagen.ByName(in.dataset, 21)
			var lines [][]byte
			for _, d := range gen.Window(4 * in.window) {
				js, err := json.Marshal(d)
				if err != nil {
					b.Fatal(err)
				}
				lines = append(lines, js)
			}
			reg := telemetry.NewRegistry()
			qs := NewQuerySet(QuerySetConfig{Telemetry: reg})
			for id, spec := range serveSet(in.window, in.filter) {
				if err := qs.Register(id, spec); err != nil {
					b.Fatal(err)
				}
			}
			deliveries := 0
			deliver := func(string, document.Document, document.Document) { deliveries++ }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := qs.IngestJSONPairs(lines[i%len(lines)], deliver); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var probes int64
			for name, h := range reg.Snapshot().Histograms {
				if telemetry.BaseName(name) == "join_probe_seconds" {
					probes += h.Count
				}
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/doc")
			b.ReportMetric(float64(deliveries)/float64(b.N), "deliveries/doc")
		})
	}
}
