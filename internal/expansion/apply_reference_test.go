package expansion

import (
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/symbol"
)

// referenceApply is the previous, string-level Apply: collect the
// surviving pairs, append the synthetic one, and let document.New sort
// and intern all of them again. Apply on symbols must build the same
// document.
func referenceApply(e *Expansion, d document.Document) (document.Document, bool) {
	if e == nil {
		return d, true
	}
	v, ok := syntheticValue(d, e.Components)
	if !ok {
		return d, false
	}
	comp := make(map[string]bool, len(e.Components))
	for _, c := range e.Components {
		comp[c] = true
	}
	pairs := make([]document.Pair, 0, d.Len())
	for _, p := range d.Pairs() {
		if !comp[p.Attr] {
			pairs = append(pairs, p)
		}
	}
	pairs = append(pairs, document.Pair{Attr: e.SyntheticAttr, Val: v})
	return document.New(d.ID, pairs), true
}

// checkApply compares Apply with referenceApply on one document: same
// verdict, Equal documents, identical symbols.
func checkApply(t testing.TB, e *Expansion, d document.Document) {
	t.Helper()
	got, ok := e.Apply(d)
	want, wantOK := referenceApply(e, d)
	if ok != wantOK {
		t.Errorf("%v.Apply(%v) ok = %v, reference %v", e, d, ok, wantOK)
		return
	}
	if got.ID != want.ID || !got.Equal(want) {
		t.Errorf("%v.Apply(%v) = %v, reference %v", e, d, got, want)
		return
	}
	gotSyms, gotEpoch := got.Syms()
	wantSyms, wantEpoch := want.Syms()
	if gotEpoch != wantEpoch || len(gotSyms) != len(wantSyms) {
		t.Errorf("%v.Apply(%v): %d symbols of epoch %d, reference %d of epoch %d", e, d, len(gotSyms), gotEpoch, len(wantSyms), wantEpoch)
		return
	}
	for i := range gotSyms {
		if gotSyms[i] != wantSyms[i] {
			t.Errorf("%v.Apply(%v): symbol %d = %v, reference %v", e, d, i, gotSyms[i], wantSyms[i])
		}
	}
}

// applyCases are expansions and the documents to try them on: what
// Analyze finds on both datasets, a forced three-component one, one
// whose synthetic attribute sorts first, last and in the middle, and
// documents that lack a component or already carry the synthetic
// attribute.
func applyCases(t testing.TB) []applyCase {
	applyCasesOnce.Do(func() { applyCasesBuilt = buildApplyCases(t) })
	return applyCasesBuilt
}

type applyCase struct {
	e    *Expansion
	docs []document.Document
}

var (
	applyCasesOnce  sync.Once
	applyCasesBuilt []applyCase
)

func buildApplyCases(t testing.TB) (cases []applyCase) {
	add := func(e *Expansion, docs []document.Document) {
		cases = append(cases, applyCase{e, docs})
	}
	for _, dataset := range []string{"nbData", "rwData"} {
		gen, _ := datagen.ByName(dataset, 3)
		window, next := gen.Window(500), gen.Window(500)
		for _, m := range []int{4, 64} {
			add(Analyze(window, m), next)
			add(AnalyzeForced(window, m), next)
		}
		first := window[0].Pairs()
		if len(first) >= 3 {
			three := []string{first[len(first)-1].Attr, first[0].Attr, first[len(first)/2].Attr}
			add(&Expansion{Components: three, SyntheticAttr: syntheticAttrName(three)}, next)
			add(&Expansion{Components: three, SyntheticAttr: "\x01first"}, next)
			add(&Expansion{Components: three, SyntheticAttr: "~last"}, next)
			add(&Expansion{Components: three[:1], SyntheticAttr: first[1].Attr}, next) // collides with a surviving attribute
		}
		add(nil, next[:10])
	}
	sawExpansion, sawMissing, sawThree := false, false, false
	for _, c := range cases {
		if c.e == nil {
			continue
		}
		sawExpansion = true
		sawThree = sawThree || len(c.e.Components) >= 3
		for _, d := range c.docs {
			if _, ok := c.e.Apply(d); !ok {
				sawMissing = true
				break
			}
		}
	}
	if !sawExpansion || !sawMissing || !sawThree {
		t.Fatalf("cases cover expansion=%v missing-component=%v three-components=%v; all three are needed", sawExpansion, sawMissing, sawThree)
	}
	return cases
}

func TestApplyMatchesReference(t *testing.T) {
	for _, c := range applyCases(t) {
		for _, d := range c.docs {
			checkApply(t, c.e, d)
		}
		if t.Failed() {
			return
		}
	}
	empty := document.New(1, nil)
	checkApply(t, &Expansion{Components: []string{"a"}, SyntheticAttr: "a"}, empty)
}

// TestApplySharedExpansion: one *Expansion serves every Assigner task,
// the Merger and the Pipeline at once, so its first use and its concat
// cache are raced by six goroutines here (run with -race -count 10).
func TestApplySharedExpansion(t *testing.T) {
	for _, c := range applyCases(t) {
		if c.e == nil {
			continue
		}
		e := &Expansion{Components: c.e.Components, SyntheticAttr: c.e.SyntheticAttr} // unresolved, empty cache
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range c.docs {
					checkApply(t, e, c.docs[(i+g*251)%len(c.docs)])
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

// TestApplySurvivesReset: a symbol.Reset invalidates the resolved IDs
// and the cache; Apply resolves again and re-interns documents built
// under the old epoch.
func TestApplySurvivesReset(t *testing.T) {
	docs := boolDocs(16)
	e := Analyze(docs, 8)
	for _, d := range docs {
		checkApply(t, e, d)
	}
	symbol.Reset()
	for _, d := range docs { // stale symbols
		checkApply(t, e, d)
	}
	for _, d := range boolDocs(16) { // fresh symbols
		checkApply(t, e, d)
	}
}

// TestApplyAllocations: a document whose synthetic value is known costs
// the two slices of the transformed document and nothing else.
func TestApplyAllocations(t *testing.T) {
	docs := boolDocs(64)
	e := Analyze(docs, 8)
	apply := func() {
		for _, d := range docs {
			e.Apply(d)
		}
	}
	apply()
	if got := testing.AllocsPerRun(20, apply) / float64(len(docs)); got != 2 {
		t.Errorf("%.2f allocations per Apply, want 2", got)
	}
}
