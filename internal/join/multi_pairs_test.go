package join

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/telemetry"
)

// delivered is one (query, left, right, merged JSON) a consumer saw.
type delivered struct {
	query       string
	left, right uint64
	merged      string
}

func sortDelivered(ds []delivered) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.query != b.query {
			return a.query < b.query
		}
		if a.right != b.right {
			return a.right < b.right
		}
		return a.left < b.left
	})
}

// predicateOracle is the demux decision as it was made before the
// pair-first result path, over Oracle's pairs: every window pair is
// merged first, θ is decided on the inputs and the filters on the
// merged document.
func predicateOracle(specs map[string]QuerySpec, docs []document.Document) []delivered {
	byID := make(map[uint64]document.Document, len(docs))
	for _, d := range docs {
		byID[d.ID] = d
	}
	var out []delivered
	for id, spec := range specs {
		for _, p := range Oracle(docs, spec.WindowDocs) {
			left, right := byID[p.LeftID], byID[p.RightID]
			_, shared := document.Classify(left, right)
			if shared < int(math.Ceil(spec.Theta*float64(min(left.Len(), right.Len())))) {
				continue
			}
			merged := document.Merge(0, left, right)
			if !matchFilters(spec.Filters, merged) {
				continue
			}
			js, _ := merged.MarshalJSON()
			out = append(out, delivered{id, p.LeftID, p.RightID, string(js)})
		}
	}
	sortDelivered(out)
	return out
}

// TestMultiPairsMatchMergedPredicates is the property the pair-first
// demux rests on: deciding θ and the filters on a pair's two inputs
// accepts exactly the pairs the old merge-then-test demux accepted, for
// θ ∈ {0, 0.5, 1}, with and without filters, on rwData and nbData; and
// the pair-level deliveries (IngestPairs) and the materialised ones
// (Ingest) are the same multiset with the same merged content.
func TestMultiPairsMatchMergedPredicates(t *testing.T) {
	for _, dataset := range []string{"rwData", "nbData"} {
		gen, _ := datagen.ByName(dataset, 11)
		docs := gen.Window(400)
		// Filters drawn from the data, so they select something: single
		// pairs and two-pair conjunctions that only a merged document
		// (one pair from each input) can satisfy.
		rng := rand.New(rand.NewSource(5))
		pick := func() document.Pair {
			ps := docs[rng.Intn(len(docs))].Pairs()
			return ps[rng.Intn(len(ps))]
		}
		specs := map[string]QuerySpec{}
		for _, theta := range []float64{0, 0.5, 1} {
			for k, filters := range [][]document.Pair{nil, {pick()}, {pick(), pick()}} {
				for _, window := range []int{50, 100} {
					id := fmt.Sprintf("t%g/f%d/w%d", theta, k, window)
					specs[id] = QuerySpec{WindowDocs: window, Theta: theta, Filters: filters}
				}
			}
		}
		want := predicateOracle(specs, docs)
		perQuery := map[string]int{}
		for _, d := range want {
			perQuery[d.query]++
		}
		// Not vacuous: every predicate kind accepts, and on rwData also
		// rejects (nbData's pairs all share at least half their
		// attributes).
		for _, q := range []string{"t0.5/f0/w100", "t1/f0/w100", "t0/f1/w100", "t0/f2/w100"} {
			if n := perQuery[q]; n == 0 || (dataset == "rwData" && n >= perQuery["t0/f0/w100"]) {
				t.Fatalf("%s: oracle delivers %d results to %s, %d to the plain query", dataset, n, q, perQuery["t0/f0/w100"])
			}
		}

		pairLevel, resultLevel := NewMulti(), NewMulti()
		for id, spec := range specs {
			if err := pairLevel.Register(id, spec); err != nil {
				t.Fatal(err)
			}
			if err := resultLevel.Register(id, spec); err != nil {
				t.Fatal(err)
			}
		}
		var gotPairs, gotResults []delivered
		for _, d := range docs {
			pairLevel.IngestPairs(d, 0, func(q string, left, right document.Document) {
				js := document.AppendMergedJSON(nil, left, right)
				gotPairs = append(gotPairs, delivered{q, left.ID, right.ID, string(js)})
			})
			resultLevel.Ingest(d, 0, func(q string, r Result) {
				js, _ := r.Merged.MarshalJSON()
				gotResults = append(gotResults, delivered{q, r.Left, r.Right, string(js)})
			})
		}
		for name, got := range map[string][]delivered{"IngestPairs": gotPairs, "Ingest": gotResults} {
			sortDelivered(got)
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d deliveries, oracle %d", dataset, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s: delivery %d = %+v, oracle %+v", dataset, name, i, got[i], want[i])
				}
			}
		}
		for id := range specs {
			p, _ := pairLevel.Status(id)
			r, _ := resultLevel.Status(id)
			if p.Results != r.Results || p.DocsMatched != r.DocsMatched {
				t.Errorf("%s %s: pair-level status %d/%d, result-level %d/%d", dataset, id, p.Results, p.DocsMatched, r.Results, r.DocsMatched)
			}
		}
	}
}

// TestMatchInputsEqualsMatchFiltersOnMerged checks the filter identity
// on its own, over random joinable pairs and random filter sets
// including pairs neither input carries and pairs with a conflicting
// value.
func TestMatchInputsEqualsMatchFiltersOnMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	attrs := []string{"a", "b", "c", "d", "e", "f"}
	randDoc := func(id uint64) document.Document {
		var ps []document.Pair
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				// Attribute values are a function of the attribute often
				// enough that many pairs of documents are joinable.
				ps = append(ps, document.Pair{Attr: a, Val: document.EncodeInt(int64(rng.Intn(2)))})
			}
		}
		return document.New(id, ps)
	}
	checked := 0
	for i := 0; i < 5000; i++ {
		l, r := randDoc(1), randDoc(2)
		if !document.Joinable(l, r) {
			continue
		}
		merged := document.Merge(3, l, r)
		var filters []document.Pair
		for n := rng.Intn(4); n > 0; n-- {
			filters = append(filters, document.Pair{Attr: attrs[rng.Intn(len(attrs))], Val: document.EncodeInt(int64(rng.Intn(2)))})
		}
		if got, want := matchInputs(filters, l, r), matchFilters(filters, merged); got != want {
			t.Fatalf("filters %v on %v ⋈ %v: inputs say %v, merged says %v", filters, l, r, got, want)
		}
		checked++
	}
	if checked < 500 {
		t.Fatalf("only %d joinable pairs drawn", checked)
	}
}

// TestMultiMaterialisesAcceptedPairsOnce: the result-level path builds
// one merged document per pair some query accepted — not one per
// partner, not one per delivery — and a group nobody consumes counts
// its accepted pairs without building any.
func TestMultiMaterialisesAcceptedPairsOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMulti()
	m.InstrumentWith(func(GroupKey) Instruments {
		return Instruments{Results: reg.Counter("results")}
	})
	// Both queries reject pairs without sev:W; "strict" additionally
	// wants containment.
	sevW := []document.Pair{{Attr: "sev", Val: document.EncodeString("W")}}
	m.Register("warn", QuerySpec{WindowDocs: 100, Filters: sevW})
	m.Register("strict", QuerySpec{WindowDocs: 100, Filters: sevW, Theta: 1})
	docs := []document.Document{
		mdoc(t, 1, `{"k":1,"sev":"W"}`),
		mdoc(t, 2, `{"k":1}`),
		mdoc(t, 3, `{"k":1,"x":2}`), // joins 1 (accepted by both) and 2 (accepted by neither)
	}
	ids := map[uint64]bool{}
	deliveries := 0
	for _, d := range docs {
		m.Ingest(d, 0, func(_ string, r Result) {
			deliveries++
			ids[r.Merged.ID] = true
		})
	}
	// Pairs: (1,2) warn+strict, (1,3) warn, (2,3) nobody.
	if deliveries != 3 || len(ids) != 2 {
		t.Errorf("%d deliveries of %d distinct merged documents, want 3 of 2", deliveries, len(ids))
	}
	if got := reg.Snapshot().Counter("results"); got != 2 {
		t.Errorf("materialised results = %d, want 2 (one per accepted pair)", got)
	}
	m.Ingest(mdoc(t, 4, `{"sev":"W","y":1}`), 0, nil) // joins 1, accepted by warn; no consumer
	if got := reg.Snapshot().Counter("results"); got != 3 {
		t.Errorf("results after an unconsumed document = %d, want 3", got)
	}
}

// TestMultiPartnerMissingIsLoud: a partner id the probe returns but the
// window store does not hold cannot happen while engine and store are
// updated together. If it does, the pair is not delivered (there is no
// left document to deliver), and instead of being skipped silently it
// is counted on the state, surfaced in the query's status and exported
// as join_partner_missing_total; the rest of the document's pairs are
// delivered as usual.
func TestMultiPartnerMissingIsLoud(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMulti()
	m.InstrumentWith(func(k GroupKey) Instruments {
		return Instruments{PartnerMissing: reg.Counter(telemetry.Name("join_partner_missing_total", "window", k.String()))}
	})
	m.Register("q", QuerySpec{WindowDocs: 100})
	m.Register("strong", QuerySpec{WindowDocs: 100, Theta: 1})
	var got []delivered
	deliver := func(q string, left, right document.Document) {
		got = append(got, delivered{q, left.ID, right.ID, ""})
	}
	m.IngestPairs(mdoc(t, 1, `{"a":1}`), 0, deliver)
	m.IngestPairs(mdoc(t, 2, `{"a":1,"b":2}`), 0, deliver)
	// Break the invariant: the engine still indexes document 1, the
	// store no longer holds it.
	s := m.queries["q"].class.state
	delete(s.win.store, s.arrival[1])
	got = nil
	m.IngestPairs(mdoc(t, 3, `{"a":1}`), 0, deliver)

	sortDelivered(got)
	want := []delivered{{"q", 2, 3, ""}, {"strong", 2, 3, ""}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("deliveries after the break = %+v, want %+v", got, want)
	}
	for _, id := range []string{"q", "strong"} {
		if st, _ := m.Status(id); st.PartnerMissing != 1 {
			t.Errorf("%s: PartnerMissing = %d, want 1", id, st.PartnerMissing)
		}
	}
	if n := reg.Snapshot().Counter(telemetry.Name("join_partner_missing_total", "window", "FPJ/w100")); n != 1 {
		t.Errorf("join_partner_missing_total = %d, want 1", n)
	}
	// The result-level path drops the same id and keeps results and
	// deliveries aligned.
	var results []Result
	m.Ingest(mdoc(t, 4, `{"a":1,"c":3}`), 0, func(q string, r Result) {
		if q == "q" {
			results = append(results, r)
		}
	})
	if len(results) != 2 || results[0].Left == 1 || results[1].Left == 1 {
		t.Errorf("result-level deliveries after the break = %+v, want partners 2 and 3 only", results)
	}
	for _, r := range results {
		left, _ := s.win.Doc(s.arrival[r.Left])
		right, _ := s.win.Doc(s.arrival[r.Right])
		want := document.AppendMergedJSON(nil, left, right)
		if js, _ := r.Merged.MarshalJSON(); !bytes.Equal(js, want) {
			t.Errorf("result (%d,%d) carries %s, want %s", r.Left, r.Right, js, want)
		}
	}
	if st, _ := m.Status("q"); st.PartnerMissing != 2 {
		t.Errorf("PartnerMissing = %d after a second probe, want 2", st.PartnerMissing)
	}
}
