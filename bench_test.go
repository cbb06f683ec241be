// Package repro's root benchmark harness: one testing.B benchmark per
// evaluation figure of the paper, plus ablation benches for the design
// choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches exercise the same code paths as
// cmd/sfj-experiments, at a reduced size so a full -bench pass stays
// tractable; the printed experiment tables come from the command, the
// benches track the cost of regenerating them.
package repro

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/experiments"
	"repro/internal/fptree"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// benchScale keeps benchmark iterations affordable.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.FPJDocs = []int{2000}
	sc.BaselineDocs = []int{500}
	return sc
}

func benchFigure(b *testing.B, id string) {
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh seed per iteration defeats the experiment cache, so
		// every iteration regenerates the figure from scratch.
		sc.Seed = int64(1000 + i)
		if _, err := experiments.ByID(id, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 6a-6d: replication sweeps.
func BenchmarkFig6aReplicationPartitionsRW(b *testing.B) { benchFigure(b, "6a") }
func BenchmarkFig6bReplicationWindowRW(b *testing.B)     { benchFigure(b, "6b") }
func BenchmarkFig6cReplicationPartitionsNB(b *testing.B) { benchFigure(b, "6c") }
func BenchmarkFig6dReplicationWindowNB(b *testing.B)     { benchFigure(b, "6d") }

// Figures 7a-7d: load balance sweeps.
func BenchmarkFig7aLoadBalancePartitionsRW(b *testing.B) { benchFigure(b, "7a") }
func BenchmarkFig7bLoadBalanceWindowRW(b *testing.B)     { benchFigure(b, "7b") }
func BenchmarkFig7cLoadBalancePartitionsNB(b *testing.B) { benchFigure(b, "7c") }
func BenchmarkFig7dLoadBalanceWindowNB(b *testing.B)     { benchFigure(b, "7d") }

// Figures 8a-8d: maximal processing load sweeps.
func BenchmarkFig8aMaxLoadPartitionsRW(b *testing.B) { benchFigure(b, "8a") }
func BenchmarkFig8bMaxLoadWindowRW(b *testing.B)     { benchFigure(b, "8b") }
func BenchmarkFig8cMaxLoadPartitionsNB(b *testing.B) { benchFigure(b, "8c") }
func BenchmarkFig8dMaxLoadWindowNB(b *testing.B)     { benchFigure(b, "8d") }

// Figures 9a-9b: repartition threshold sweeps.
func BenchmarkFig9aRepartitionsRW(b *testing.B) { benchFigure(b, "9a") }
func BenchmarkFig9bRepartitionsNB(b *testing.B) { benchFigure(b, "9b") }

// Figures 10a-10c: ideal execution.
func BenchmarkFig10aIdealReplication(b *testing.B) { benchFigure(b, "10a") }
func BenchmarkFig10bIdealLoadBalance(b *testing.B) { benchFigure(b, "10b") }
func BenchmarkFig10cIdealMaxLoad(b *testing.B)     { benchFigure(b, "10c") }

// Figures 11a-11d: local join execution time. These benches measure
// the join engines directly, which is what the figure reports.
func benchJoinEngine(b *testing.B, dataset, engine string, n int) {
	gen, _ := datagen.ByName(dataset, 42)
	docs := gen.Window(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := join.New(engine)
		if err != nil {
			b.Fatal(err)
		}
		join.Batch(eng, docs)
	}
}

func BenchmarkFig11aFPJServerLog(b *testing.B) { benchJoinEngine(b, "rwData", "FPJ", 5000) }
func BenchmarkFig11bFPJNoBench(b *testing.B)   { benchJoinEngine(b, "nbData", "FPJ", 5000) }
func BenchmarkFig11cNLJServerLog(b *testing.B) { benchJoinEngine(b, "rwData", "NLJ", 1000) }
func BenchmarkFig11cHBJServerLog(b *testing.B) { benchJoinEngine(b, "rwData", "HBJ", 1000) }
func BenchmarkFig11dNLJNoBench(b *testing.B)   { benchJoinEngine(b, "nbData", "NLJ", 1000) }
func BenchmarkFig11dHBJNoBench(b *testing.B)   { benchJoinEngine(b, "nbData", "HBJ", 1000) }

// --- Ablations -------------------------------------------------------

// BenchmarkJoinerResultPath measures what one scale-out Joiner does per
// window once routing has happened: probe the window for partner ids,
// keep the pairs it owns (lowest common target), build their merged
// documents and hand them to OnResult. The input is recorded once:
// partitions from one rwData window (AG, M=4), the next window routed
// through that table by the Assigner policy, so the target lists — and
// the replication of about 3.3 they add up to — are real. Task 0
// receives every document routed to it; one op is one such window,
// delivered and tumbled, in steady state (a first window has grown the
// maps and buffers). pairs/op is the owned — delivered — pair count,
// partners/op what the probe found before the ownership filter; their
// ratio is the replication tax this path no longer pays in merges.
func BenchmarkJoinerResultPath(b *testing.B) {
	const m, window = 4, 2000
	gen, _ := datagen.ByName("rwData", 42)
	table := partition.AssociationGroups{}.Partition(gen.Window(window), m)
	type routed struct {
		doc     document.Document
		targets []int
	}
	var input []routed
	deliveries := 0
	for _, d := range gen.Window(window) {
		targets, _ := table.Route(d)
		deliveries += len(targets)
		if targets[0] == 0 {
			input = append(input, routed{d, targets})
		}
	}
	delivered := 0
	task := core.NewJoinerTask(0, func(r join.Result) { delivered += r.Merged.Len() })
	runWindow := func() int {
		for _, in := range input {
			task.Deliver(in.doc, in.targets)
		}
		return task.CloseWindow()
	}
	pairs := runWindow()
	if pairs == 0 || delivered == 0 {
		b.Fatalf("recorded window delivered nothing: %d pairs, %d merged attributes", pairs, delivered)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := runWindow(); got != pairs {
			b.Fatalf("window owned %d pairs, the first one %d", got, pairs)
		}
	}
	b.ReportMetric(float64(pairs), "pairs/op")
	b.ReportMetric(float64(deliveries)/window, "replication")
	benchSink += delivered
}

// BenchmarkServeResultPath measures what sfj-serve does per document
// between the socket and the join: the in-process POST /documents
// handler with the benchmark's five-query set (three queries on the
// default window group — plain, θ = 0.5, a Severity filter — plus a
// half-size and a double-size window group), fed single-document POSTs.
// The input is recorded once: two rwData windows, the span of the
// double-size group, so no window ever holds a document twice. One op
// is one pass over the recording in steady state (a first pass has
// grown the result rings, the pooled request scratch and the window
// maps). delivered/encode is the live sharing ratio — results delivered
// to queries per merged document encoded. The guard holds allocs/op
// exactly (GOGC=off and -cpu 1, because both a GC cycle and a sync.Pool
// miss on another P cost allocations): a document.Merge or a marshal
// per delivery would add thousands.
func BenchmarkServeResultPath(b *testing.B) {
	const window = 1000
	gen, _ := datagen.ByName("rwData", 42)
	var lines [][]byte
	for _, d := range append(gen.Window(window), gen.Window(window)...) {
		line, err := d.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		lines = append(lines, line)
	}
	reg := telemetry.NewRegistry()
	srv, err := server.New(server.WithWindow(window), server.WithTelemetry(reg))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for _, spec := range []string{
		fmt.Sprintf(`{"id":"theta","window":%d,"theta":0.5}`, window),
		fmt.Sprintf(`{"id":"filter","window":%d,"filters":{"Severity":"Error"}}`, window),
		fmt.Sprintf(`{"id":"half","window":%d}`, window/2),
		fmt.Sprintf(`{"id":"double","window":%d}`, 2*window),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/queries", strings.NewReader(spec)))
		if rec.Code != http.StatusCreated {
			b.Fatalf("register %s: %d %s", spec, rec.Code, rec.Body)
		}
	}
	pass := func() (respBytes int) {
		for _, line := range lines {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/documents", bytes.NewReader(line)))
			if rec.Code != http.StatusOK {
				b.Fatalf("POST /documents: %d %s", rec.Code, rec.Body)
			}
			respBytes += rec.Body.Len()
		}
		return respBytes
	}
	respBytes := pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += pass()
	}
	b.StopTimer()
	snap := reg.Snapshot()
	encodes, deliveries := snap.Counter("server_result_encodes_total"), snap.Counter("server_result_deliveries_total")
	if encodes == 0 || deliveries < encodes {
		b.Fatalf("%d deliveries of %d encodings", deliveries, encodes)
	}
	b.ReportMetric(float64(deliveries)/float64(encodes), "delivered/encode")
	b.ReportMetric(float64(respBytes)/float64(len(lines)), "respB/doc")
}

// BenchmarkAblationAttributeOrder compares the paper's global attribute
// ordering (document frequency descending, distinct values ascending)
// against an adversarial first-appearance ordering for FP-tree probes.
func BenchmarkAblationAttributeOrder(b *testing.B) {
	gen := datagen.NewServerLog(42)
	docs := gen.Window(3000)
	b.Run("paper-order", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree := fptree.Build(docs)
			for _, d := range docs {
				tree.JoinPartners(d)
			}
		}
	})
	b.Run("appearance-order", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree := fptree.New(fptree.EmptyOrder())
			for _, d := range docs {
				tree.Insert(d)
			}
			for _, d := range docs {
				tree.JoinPartners(d)
			}
		}
	})
}

// BenchmarkAblationFPJBatch compares probe-then-insert streaming
// execution against build-then-probe batch execution of the FP-tree
// join.
func BenchmarkAblationFPJBatch(b *testing.B) {
	docs := datagen.NewServerLog(42).Window(3000)
	b.Run("probe-then-insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			join.Batch(join.NewFPJFromDocs(docs), docs)
		}
	})
	b.Run("build-then-probe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree := fptree.Build(docs)
			for _, d := range docs {
				tree.JoinPartners(d)
			}
		}
	})
}

// BenchmarkAblationExpansion measures the partitioning with and without
// attribute-value expansion on the Boolean-dominated NoBench data; the
// non-expanded variant cannot fill the partitions (correctness is
// covered by tests, the bench tracks the cost of the expansion pass).
func BenchmarkAblationExpansion(b *testing.B) {
	docs := datagen.NewNoBench(42).Window(2000)
	for _, mode := range []core.ExpansionMode{core.ExpansionOff, core.ExpansionAuto} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.PlanPartitions(docs, 8, partition.AssociationGroups{}, mode)
			}
		})
	}
}

// BenchmarkAblationPartitioners compares the three partitioning
// algorithms head to head on identical input.
func BenchmarkAblationPartitioners(b *testing.B) {
	docs := datagen.NewServerLog(42).Window(2000)
	for _, p := range []partition.Partitioner{
		partition.AssociationGroups{}, partition.SetCover{}, partition.DisjointSets{},
	} {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Partition(docs, 8)
			}
		})
	}
}

// BenchmarkJoinableClassify tracks the hot pair-comparison kernel.
func BenchmarkJoinableClassify(b *testing.B) {
	docs := datagen.NewServerLog(42).Window(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		document.Joinable(docs[i%256], docs[(i+37)%256])
	}
}

// BenchmarkSystemEndToEnd tracks the whole topology (the unit the
// paper's cluster runs per window set).
func BenchmarkSystemEndToEnd(b *testing.B) {
	for _, engine := range []string{"FPJ", "HBJ"} {
		b.Run(engine, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := core.NewRunner(core.Config{
					M: 4, Creators: 2, Assigners: 2,
					WindowSize: 300, Windows: 3, Engine: engine,
					Source: datagen.NewServerLog(int64(i)),
				}).Run()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFPTreeInsert tracks raw insert throughput (one window's
// worth of documents per tree, matching the tumbling-window lifecycle).
func BenchmarkFPTreeInsert(b *testing.B) {
	docs := datagen.NewServerLog(42).Window(4096)
	order := fptree.NewOrderFromDocs(docs)
	tree := fptree.New(order)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			tree.Reset()
		}
		tree.Insert(docs[i%4096])
	}
}

var benchSink int

// benchDocs generates n documents of a dataset, seed 1.
func benchDocs(b *testing.B, dataset string, n int) []document.Document {
	gen, ok := datagen.ByName(dataset, 1)
	if !ok {
		b.Fatalf("unknown dataset %s", dataset)
	}
	return gen.Window(n)
}

// BenchmarkDocumentParse tracks JSON-to-document decoding over 2 000
// generated NDJSON lines per dataset, the bytes sfj-datagen writes; one
// op is one document. After the first pass over the lines every
// attribute and value is in the symbol tables, which is the steady
// state of a running service.
func BenchmarkDocumentParse(b *testing.B) {
	for _, dataset := range []string{"nbData", "rwData"} {
		b.Run(dataset, func(b *testing.B) {
			var lines [][]byte
			for _, d := range benchDocs(b, dataset, 2000) {
				lines = append(lines, d.AppendJSON(nil))
			}
			for _, line := range lines {
				if _, err := document.Parse(0, line); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := document.Parse(uint64(i), lines[i%len(lines)])
				if err != nil {
					b.Fatal(err)
				}
				benchSink += d.Len()
			}
		})
	}
}

// BenchmarkExpansionApply tracks the Assigner's per-document
// attribute-value expansion (Sec. VI-B) on nbData, whose Boolean
// attribute forces one: the expansion is analysed on one window and
// applied to the documents of the next; one op is one document.
func BenchmarkExpansionApply(b *testing.B) {
	b.Run("nbData", func(b *testing.B) {
		docs := benchDocs(b, "nbData", 4000)
		spec := expansion.Analyze(docs[:2000], 4)
		if spec == nil {
			b.Fatal("nbData needs an expansion at m=4")
		}
		docs = docs[2000:]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, ok := spec.Apply(docs[i%len(docs)])
			if !ok {
				b.Fatal("nbData document without a component attribute")
			}
			benchSink += d.Len()
		}
	})
}

// BenchmarkPartitionCreate tracks partition creation in the shape the
// topology runs it: two creators each fold their shuffled half of a
// 2 000-document window into local association groups, the Merger
// consolidates them and packs m = 4 partitions. One op is one window.
func BenchmarkPartitionCreate(b *testing.B) {
	for _, dataset := range []string{"nbData", "rwData"} {
		b.Run(dataset, func(b *testing.B) {
			docs := benchDocs(b, dataset, 2000)
			spec := expansion.Analyze(docs, 4)
			var halves [2][]document.Document
			for i, d := range spec.ApplyBatch(docs) {
				halves[i%2] = append(halves[i%2], d)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				local := [][]partition.AssocGroup{
					partition.AssociationGroups{}.Groups(halves[0]),
					partition.AssociationGroups{}.Groups(halves[1]),
				}
				table := partition.AssignGroups(partition.Consolidate(local), 4)
				benchSink += table.M
			}
		})
	}
}

// BenchmarkAssignerRoute tracks the Assigner's routing kernel: every
// document of window w + 1 routed under the table and expansion planned
// from window w. One op is one document.
func BenchmarkAssignerRoute(b *testing.B) {
	b.Run("nbData", func(b *testing.B) {
		docs := benchDocs(b, "nbData", 4000)
		table, spec := core.PlanPartitions(docs[:2000], 4, nil, core.ExpansionAuto)
		if spec == nil {
			b.Fatal("nbData needs an expansion at m=4")
		}
		docs = docs[2000:]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			targets, _ := core.RouteDocument(table, spec, docs[i%len(docs)])
			benchSink += len(targets)
		}
	})
}

// BenchmarkAblationRouting compares the paper's partition-based routing
// against the hash-pairs baseline its related work dismisses: the whole
// topology runs under each policy on the same stream.
func BenchmarkAblationRouting(b *testing.B) {
	for _, routing := range []core.Routing{core.PartitionRouting, core.HashPairsRouting} {
		b.Run(routing.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := core.NewRunner(core.Config{
					M: 4, Creators: 2, Assigners: 2,
					WindowSize: 300, Windows: 3, Routing: routing,
					Source: datagen.NewServerLog(int64(i)),
				}).Run()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Telemetry overhead ----------------------------------------------

// BenchmarkTelemetryOverhead measures the cost the telemetry layer adds
// to the hottest document path: one windowed FPJ ingesting a window,
// once with instruments detached (the nil no-op path every uninstrumented
// run takes) and once with live counters, gauges and the probe-latency
// histogram attached. The "on" variant pays one clock pair per document;
// the delta between the two sub-benches is the per-document overhead the
// 5% bench-guard budget covers.
func BenchmarkTelemetryOverhead(b *testing.B) {
	docs := datagen.NewServerLog(42).Window(2000)
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := join.New("FPJ")
				if err != nil {
					b.Fatal(err)
				}
				w := join.NewWindowed(eng)
				if mode == "on" {
					reg := telemetry.NewRegistry()
					w.SetInstruments(join.Instruments{
						ProbeSeconds: reg.Histogram("join_probe_seconds"),
						Results:      reg.Counter("join_results_total"),
						Duplicates:   reg.Counter("join_duplicates_total"),
						WindowDocs:   reg.Gauge("join_window_docs"),
						TreeNodes:    reg.Gauge("join_fptree_nodes"),
					})
				}
				for _, d := range docs {
					w.Process(d)
				}
			}
		})
	}
}

// BenchmarkTelemetrySystemEndToEnd tracks the instrumented whole-system
// run next to BenchmarkSystemEndToEnd's uninstrumented one.
func BenchmarkTelemetrySystemEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := core.NewRunner(core.Config{
			M: 4, Creators: 2, Assigners: 2,
			WindowSize: 300, Windows: 3,
			Source: datagen.NewServerLog(int64(i)),
		}, core.WithTelemetry(telemetry.NewRegistry())).Run()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpillReprobe measures the memory governor's disk leg: a
// sliding FPJ window streaming under a budget of a fifth of its
// steady-state footprint, so sealed panes continually spill to a
// filesystem store and reload for probing, against the same stream
// ungoverned. The gap between the two sub-benches is the price of
// bounding memory — spill encode + CRC envelope + fsync + reload.
func BenchmarkSpillReprobe(b *testing.B) {
	const (
		size  = 200
		slide = 20
		docs  = 600
	)
	gen := datagen.NewServerLog(11)
	stream := gen.Window(docs)
	mk := func() join.Engine { return join.NewFPJ() }

	run := func(b *testing.B, budget int64) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := join.NewSliding(size, slide, mk)
			if err != nil {
				b.Fatal(err)
			}
			if budget > 0 {
				st, err := state.NewFSStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				s.SetGovernor(join.NewGovernor(join.GovernorConfig{
					Budget: budget,
					Store:  st,
					Task:   "bench",
				}))
			}
			for _, d := range stream {
				s.Process(d)
			}
		}
	}

	// Size the budget from the ungoverned steady-state footprint once.
	probe, err := join.NewSliding(size, slide, mk)
	if err != nil {
		b.Fatal(err)
	}
	var peak int64
	for _, d := range stream {
		probe.Process(d)
		if m := probe.MemBytes(); m > peak {
			peak = m
		}
	}

	b.Run("ungoverned", func(b *testing.B) { run(b, 0) })
	b.Run("governed-half", func(b *testing.B) { run(b, peak/2) })
	b.Run("governed-fifth", func(b *testing.B) { run(b, peak/5) })
}
