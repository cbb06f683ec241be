package partition

import (
	"repro/internal/document"
	"repro/internal/symbol"
)

// FullyCovered reports whether every pair of d belongs to some
// partition.
func (t *Table) FullyCovered(d document.Document) bool {
	var sc RouteScratch
	sc.Matched.Reset(t.M)
	return t.walk(sc.Matched, nil, d.InternedPairs(), nil, 0)
}

// UncoveredPairs returns the pairs of d not present in any partition.
func (t *Table) UncoveredPairs(d document.Document) []document.Pair {
	var sc RouteScratch
	t.RouteSyms(&sc, d.InternedPairs(), nil, 0)
	var out []document.Pair
	for _, sp := range sc.Uncovered {
		a, v := symbol.PairStrings(sp)
		out = append(out, document.Pair{Attr: a, Val: v})
	}
	return out
}
