package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/fptree"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/symbol"
	"repro/internal/topology"
)

// Limits that keep a traced run about as long as an untraced one.
const (
	maxCollected     = 100_000   // join results kept for merge/marshal/demux
	maxPlanWindows   = 8         // windows partitions are planned for
	localHopTuples   = 1_000_000 // tuples through the in-process hop
	clusterHopTuples = 200_000   // tuples through the 2-worker hop
	forcedTumbleDocs = 1_000_000 // sfj-serve's -max-window-docs default
	// maxServingDocs caps the documents the serving layers (join.Multi,
	// core, server) are timed on where they are not on the workload's
	// path, i.e. on the topology workloads.
	maxServingDocs = 8_000
)

// layerPass measures every layer from outside, through its public
// functions, single-threaded, over the same documents the workload
// streams. Each call site is wrapped in a span covering one window's
// worth of calls; a row is the span's self time per call.
type layerPass struct {
	w    workload
	in   *input
	tr   *tracer
	root int
	out  map[string]float64

	results    []join.Result // sample of the window join's output
	deliveries int           // results delivered to queries by Multi
}

// allocs runs f and reports what it allocated. The pass is the only
// thing running, so the process-wide counters are f's.
func allocs(f func()) (mallocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// eachWindow calls f with the bounds of every window of the input.
func (p *layerPass) eachWindow(f func(lo, hi int)) {
	p.eachWindowOf(len(p.in.docs), f)
}

func (p *layerPass) eachWindowOf(docs int, f func(lo, hi int)) {
	for lo := 0; lo < docs; lo += p.w.Window {
		f(lo, min(lo+p.w.Window, docs))
	}
}

// eachServingWindow is eachWindow for the passes over the serving
// layers, see maxServingDocs.
func (p *layerPass) eachServingWindow(f func(lo, hi int)) {
	p.eachWindowOf(p.servingDocs(), f)
}

func (p *layerPass) servingDocs() int {
	if p.w.Kind == "topology" {
		return min(maxServingDocs, len(p.in.docs))
	}
	return len(p.in.docs)
}

// span times f as one span under the pass's root.
func (p *layerPass) span(name string, count int, f func()) {
	id := p.tr.start(name, p.root)
	f()
	p.tr.end(id, count)
}

func runLayerPass(w workload, in *input, tr *tracer) (map[string]float64, error) {
	p := &layerPass{w: w, in: in, tr: tr, out: make(map[string]float64)}
	p.root = tr.start("bench.layer_pass", 0)
	steps := []func() error{
		p.parse, p.intern, p.tree, p.engine, p.windowed, p.mergeMarshal,
		p.multi, p.querySet, p.pipeline, p.partitioning, p.handler, p.hops,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	tr.end(p.root, 1)

	self := selfTimes(tr.spans)
	per := func(span string) float64 { return self[span].perCall() }
	docs := float64(p.servingDocs())
	p.out["document.parse_ns_per_doc"] = per("document.Parse")
	p.out["document.merge_ns_per_pair"] = per("document.Merge")
	p.out["document.marshal_ns_per_result"] = per("document.Document.MarshalJSON")
	p.out["symbol.intern_ns_per_pair"] = per("symbol.InternPair")
	p.out["symbol.table_entries"] = float64(symbol.AttrCount() + symbol.ValCount())
	p.out["partition.create_ms_per_window"] = per("core.PlanPartitions") / 1e6
	p.out["partition.route_ns_per_doc"] = per("core.RouteDocument")
	p.out["expansion.analyze_ms_per_window"] = per("expansion.Analyze") / 1e6
	p.out["expansion.apply_ns_per_doc"] = per("expansion.Expansion.Apply")
	p.out["fptree.insert_ns_per_doc"] = per("fptree.Tree.Insert")
	p.out["fptree.probe_ns_per_doc"] = per("fptree.Tree.JoinPartnersAppend")
	p.out["join.engine_ns_per_doc"] = per("join.FPJ.ProbeInsert")
	p.out["join.windowed_ns_per_doc"] = per("join.Windowed.Process")
	p.out["join.tumble_us"] = per("join.Windowed.Tumble") / 1e3
	p.out["join.multi_ingest_ns_per_doc"] = per("join.Multi.Ingest")
	p.out["join.multi_demux_ns_per_pair"] = per("join.Multi.Demux")
	p.out["core.queryset_ingest_ns_per_doc"] = per("core.QuerySet.IngestJSON")
	p.out["core.pipeline_ns_per_doc"] = per("core.Pipeline.ProcessJSON")
	p.out["server.handler_ns_per_doc"] = per("server.Handler")
	p.out["cluster.startup_ms"] = per("cluster.startup") / 1e6
	// The budget: what the handler spends beyond the three stages that
	// are measured on their own. Marshal runs once per delivery.
	p.out["unattributed_ns_per_doc"] = per("server.Handler") - per("document.Parse") -
		per("join.Multi.Ingest") - per("document.Document.MarshalJSON")*float64(p.deliveries)/docs
	return p.out, nil
}

func (p *layerPass) parse() error {
	var err error
	mallocs, bytes := allocs(func() {
		p.eachWindow(func(lo, hi int) {
			p.span("document.Parse", hi-lo, func() {
				for i := lo; i < hi && err == nil; i++ {
					_, err = document.Parse(uint64(i+1), p.in.lines[i])
				}
			})
		})
	})
	n := float64(len(p.in.lines))
	p.out["document.parse_allocs_per_doc"] = mallocs / n
	p.out["document.parse_bytes_per_doc"] = bytes / n
	return err
}

// intern times symbol.InternPair on pairs the tables already hold,
// which is the case for all but the first occurrence in a stream.
func (p *layerPass) intern() error {
	p.eachWindow(func(lo, hi int) {
		pairs := 0
		for _, d := range p.in.docs[lo:hi] {
			pairs += d.Len()
		}
		p.span("symbol.InternPair", pairs, func() {
			for _, d := range p.in.docs[lo:hi] {
				for _, pr := range d.Pairs() {
					symbol.InternPair(pr.Attr, pr.Val)
				}
			}
		})
	})
	return nil
}

// tree inserts each window into an FP-tree and then probes every
// document of the window against the full tree.
func (p *layerPass) tree() error {
	t := fptree.New(fptree.EmptyOrder())
	var insertAllocs, probeAllocs, nodes float64
	var buf []uint64
	p.eachWindow(func(lo, hi int) {
		t.Reset()
		window := p.in.docs[lo:hi]
		m, _ := allocs(func() {
			p.span("fptree.Tree.Insert", len(window), func() {
				for _, d := range window {
					t.Insert(d)
				}
			})
		})
		insertAllocs += m
		nodes += float64(t.NodeCount())
		m, _ = allocs(func() {
			p.span("fptree.Tree.JoinPartnersAppend", len(window), func() {
				for _, d := range window {
					buf = t.JoinPartnersAppend(buf[:0], d)
				}
			})
		})
		probeAllocs += m
	})
	n := float64(len(p.in.docs))
	p.out["fptree.insert_allocs_per_doc"] = insertAllocs / n
	p.out["fptree.probe_allocs_per_doc"] = probeAllocs / n
	p.out["fptree.nodes_per_doc"] = nodes / n
	return nil
}

func (p *layerPass) engine() error {
	e := join.NewFPJ()
	p.eachWindow(func(lo, hi int) {
		p.span("join.FPJ.ProbeInsert", hi-lo, func() {
			for _, d := range p.in.docs[lo:hi] {
				e.ProbeInsert(d)
			}
		})
		e.Reset()
	})
	return nil
}

// windowed is the single-threaded pass of the whole job — the
// baseline the scaled-out runs are compared with — and the gap to
// engine is result materialisation.
func (p *layerPass) windowed() error {
	wd := join.NewWindowed(join.NewFPJ())
	// Sized up front so that keeping the sample allocates nothing
	// inside the measured spans.
	p.results = make([]join.Result, 0, maxCollected)
	var mallocs, bytes, state float64
	pairs, windows := 0, 0
	p.eachWindow(func(lo, hi int) {
		m, b := allocs(func() {
			p.span("join.Windowed.Process", hi-lo, func() {
				for _, d := range p.in.docs[lo:hi] {
					res := wd.Process(d)
					pairs += len(res)
					if room := maxCollected - len(p.results); room > 0 {
						p.results = append(p.results, res[:min(room, len(res))]...)
					}
				}
			})
		})
		mallocs, bytes = mallocs+m, bytes+b
		state += float64(wd.MemBytes()) / float64(wd.Size())
		windows++
		p.span("join.Windowed.Tumble", 1, func() { wd.Tumble() })
	})
	n := float64(len(p.in.docs))
	p.out["join.windowed_allocs_per_doc"] = mallocs / n
	p.out["join.windowed_bytes_per_doc"] = bytes / n
	p.out["join.pairs_per_doc"] = float64(pairs) / n
	p.out["join.state_bytes_per_doc"] = state / float64(windows)
	return nil
}

func (p *layerPass) mergeMarshal() error {
	if len(p.results) == 0 {
		return nil
	}
	p.span("document.Merge", len(p.results), func() {
		for i, r := range p.results {
			document.Merge(uint64(i+1), p.in.docs[r.Left-1], p.in.docs[r.Right-1])
		}
	})
	var err error
	p.span("document.Document.MarshalJSON", len(p.results), func() {
		for _, r := range p.results {
			if _, e := r.Merged.MarshalJSON(); e != nil {
				err = e
			}
		}
	})
	return err
}

// querySpecs turns the standing queries into join.QuerySpecs the way
// server's POST /queries does, the default query first.
func querySpecs(w workload) (ids []string, specs []join.QuerySpec, err error) {
	ids, specs = []string{server.DefaultQueryID}, []join.QuerySpec{{WindowDocs: w.Window}}
	for _, q := range standingQueries(w.Dataset, w.Window) {
		spec := join.QuerySpec{WindowDocs: q.Window, Theta: q.Theta}
		for attr, v := range q.Filters {
			enc, err := document.EncodeJSONValue(v)
			if err != nil {
				return nil, nil, err
			}
			spec.Filters = append(spec.Filters, document.Pair{Attr: attr, Val: enc})
		}
		ids, specs = append(ids, q.ID), append(specs, spec)
	}
	return ids, specs, nil
}

func (p *layerPass) multi() error {
	ids, specs, err := querySpecs(p.w)
	if err != nil {
		return err
	}
	m := join.NewMulti()
	for i, id := range ids {
		if err := m.Register(id, specs[i]); err != nil {
			return err
		}
	}
	deliver := func(string, join.Result) { p.deliveries++ }
	p.eachServingWindow(func(lo, hi int) {
		p.span("join.Multi.Ingest", hi-lo, func() {
			for _, d := range p.in.docs[lo:hi] {
				m.Ingest(d, forcedTumbleDocs, deliver)
			}
		})
	})
	if len(p.results) > 0 {
		sink := func(string, join.Result) {}
		p.span("join.Multi.Demux", len(p.results), func() {
			for _, r := range p.results {
				m.Demux("FPJ", p.w.Window, r, sink)
			}
		})
	}
	return nil
}

func (p *layerPass) querySet() error {
	ids, specs, err := querySpecs(p.w)
	if err != nil {
		return err
	}
	qs := core.NewQuerySet(core.QuerySetConfig{MaxWindowDocs: forcedTumbleDocs})
	for i, id := range ids {
		if err := qs.Register(id, specs[i]); err != nil {
			return err
		}
	}
	sink := func(string, join.Result) {}
	p.eachServingWindow(func(lo, hi int) {
		p.span("core.QuerySet.IngestJSON", hi-lo, func() {
			for _, line := range p.in.lines[lo:hi] {
				if e := qs.IngestJSON(line, sink); e != nil {
					err = e
				}
			}
		})
	})
	return err
}

func (p *layerPass) pipeline() error {
	pl, err := core.NewPipeline("FPJ")
	if err != nil {
		return err
	}
	p.eachServingWindow(func(lo, hi int) {
		p.span("core.Pipeline.ProcessJSON", hi-lo, func() {
			for _, line := range p.in.lines[lo:hi] {
				if _, e := pl.ProcessJSON(line); e != nil {
					err = e
				}
			}
		})
		pl.Tumble()
	})
	return err
}

// partitioning plans partitions on one window and routes the next
// window's documents with them, as the creators and assigners do.
func (p *layerPass) partitioning() error {
	planned := 0
	p.eachWindow(func(lo, hi int) {
		if planned >= maxPlanWindows || hi >= len(p.in.docs) {
			return
		}
		planned++
		window := p.in.docs[lo:hi]
		next := p.in.docs[hi:min(hi+p.w.Window, len(p.in.docs))]
		m := p.w.M
		if m == 0 {
			m = 4 // serve workloads have no joiners; plan as the topology ones do
		}
		p.span("expansion.Analyze", 1, func() { expansion.Analyze(window, m) })
		var table *partition.Table
		var spec *expansion.Expansion
		p.span("core.PlanPartitions", 1, func() { table, spec = core.PlanPartitions(window, m, nil, core.ExpansionAuto) })
		p.span("core.RouteDocument", len(next), func() {
			for _, d := range next {
				core.RouteDocument(table, spec, d)
			}
		})
		p.span("expansion.Expansion.Apply", len(next), func() {
			for _, d := range next {
				spec.Apply(d)
			}
		})
	})
	return nil
}

// handler drives server's handler in-process with the workload's own
// request bodies: everything sfj-serve does per request but the socket.
func (p *layerPass) handler() error {
	srv, err := server.New(server.WithWindow(p.w.Window))
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	for _, q := range standingQueries(p.w.Dataset, p.w.Window) {
		spec, err := json.Marshal(q)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/queries", bytes.NewReader(spec)))
		if rec.Code != http.StatusCreated {
			return fmt.Errorf("bench: handler refused query %s: %d %s", q.ID, rec.Code, rec.Body)
		}
	}
	batch := max(p.w.Batch, 1)
	var mallocs, respBytes float64
	p.eachServingWindow(func(lo, hi int) {
		m, _ := allocs(func() {
			p.span("server.Handler", hi-lo, func() {
				for i := lo; i < hi; i += batch {
					body := bytes.Join(p.in.lines[i:min(i+batch, hi)], []byte("\n"))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/documents", bytes.NewReader(body)))
					if rec.Code != http.StatusOK {
						err = fmt.Errorf("bench: handler: %d %s", rec.Code, rec.Body)
					}
					respBytes += float64(rec.Body.Len())
				}
			})
		})
		mallocs += m
	})
	n := float64(p.servingDocs())
	p.out["server.handler_allocs_per_doc"] = mallocs / n
	if _, seen := p.out["server.response_bytes_per_doc"]; !seen {
		p.out["server.response_bytes_per_doc"] = respBytes / n
	}
	return err
}

// hopClock times the tuples of a hop topology from the spout's first
// emission to the sink's last receipt, so neither start-up nor the
// runtime's termination detection is counted.
type hopClock struct {
	n                     int
	first, last, received atomic.Int64 // first/last in unix ns
}

func (c *hopClock) nsPerTuple() float64 {
	return float64(c.last.Load()-c.first.Load()) / float64(c.n)
}

// hopSpout emits n small tuples after waiting out the start-up grace,
// which keeps the start-up frame loss described at startupGrace out of
// the cluster hop.
type hopSpout struct {
	clock *hopClock
	sent  int
}

func (s *hopSpout) Open(*topology.TaskContext) {}
func (s *hopSpout) Close()                     {}
func (s *hopSpout) NextTuple(c topology.Collector) bool {
	if s.sent >= s.clock.n {
		return false
	}
	if s.sent == 0 {
		time.Sleep(startupGrace)
		s.clock.first.Store(time.Now().UnixNano())
	}
	c.Emit(topology.Values{"n": s.sent})
	s.sent++
	return s.sent < s.clock.n
}

type hopBolt struct{ clock *hopClock }

func (b *hopBolt) Prepare(*topology.TaskContext) {}
func (b *hopBolt) Cleanup()                      {}
func (b *hopBolt) Execute(topology.Tuple, topology.Collector) {
	if b.clock.received.Add(1) == int64(b.clock.n) {
		b.clock.last.Store(time.Now().UnixNano())
	}
}

// hopTopology is the two-component spout→bolt topology, built with the
// public Builder, that the hop rows are measured on.
func hopTopology(clock *hopClock) *topology.Builder {
	b := topology.NewBuilder()
	b.SetSpout("source", func(int) topology.Spout { return &hopSpout{clock: clock} }, 1)
	b.SetBolt("sink", func(int) topology.Bolt { return &hopBolt{clock: clock} }, 1).ShuffleGrouping("source")
	return b
}

func (p *layerPass) hops() error {
	local := &hopClock{n: localHopTuples}
	topo, err := hopTopology(local).Build()
	if err != nil {
		return err
	}
	mallocs, _ := allocs(func() {
		p.span("topology.hop", local.n, func() { topo.Run() })
	})
	if got := local.received.Load(); got != int64(local.n) {
		return fmt.Errorf("bench: local hop delivered %d of %d tuples", got, local.n)
	}
	p.out["topology.hop_ns_per_tuple"] = local.nsPerTuple()
	p.out["topology.hop_allocs_per_tuple"] = mallocs / float64(local.n)

	// The same topology over two TCP workers: the spout lands on
	// worker 0 and the sink on worker 1, so every tuple crosses the
	// wire. The row is what the wire adds to the local hop.
	wire := &hopClock{n: clusterHopTuples}
	p.span("cluster.hop", wire.n, func() {
		_, err = cluster.Run(func() *topology.Builder { return hopTopology(wire) }, 2)
	})
	if err != nil {
		return fmt.Errorf("bench: cluster hop: %w", err)
	}
	if got := wire.received.Load(); got != int64(wire.n) {
		return fmt.Errorf("bench: cluster hop delivered %d of %d tuples", got, wire.n)
	}
	p.out["cluster.hop_ns_per_tuple"] = wire.nsPerTuple() - local.nsPerTuple()

	p.span("cluster.startup", 1, func() {
		_, err = cluster.Run(func() *topology.Builder { return hopTopology(&hopClock{}) }, 3)
	})
	if err != nil {
		return fmt.Errorf("bench: cluster start-up: %w", err)
	}
	return nil
}
