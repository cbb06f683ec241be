package partition

// The association-group kernels as they stood before the linear-time
// rewrite (PR 26), kept verbatim — only renamed — as the oracle the
// parity tests in ag_parity_test.go compare the production code
// against: all-pairs folds, one docset signature string per pair,
// reflection-based sorts. Do not optimise this file.

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/document"
	"repro/internal/symbol"
)

// equivalence group: pairs sharing one exact document set.
type refEqGroup struct {
	pairs PairSet
	docs  []uint64 // sorted
}

// Groups runs Algorithm 1: it computes the association groups for a
// document batch. The returned groups have pairwise-disjoint pair sets.
func refGroups(docs []document.Document) []AssocGroup {
	egs := refEquivalenceGroups(docs)

	// Sort ascending by document count (Algorithm 1 line 3); ties are
	// broken by the docset signature, then by the first pair, for
	// determinism across runs. Sort keys are computed once per group
	// rather than inside the comparator.
	type egItem struct {
		eg     refEqGroup
		sig    string
		sorted []document.Pair
	}
	items := make([]egItem, len(egs))
	for i, eg := range egs {
		items[i] = egItem{eg: eg, sig: refDocsSignature(eg.docs), sorted: refSorted(eg.pairs)}
	}
	sort.Slice(items, func(i, j int) bool {
		if len(items[i].eg.docs) != len(items[j].eg.docs) {
			return len(items[i].eg.docs) < len(items[j].eg.docs)
		}
		if items[i].sig != items[j].sig {
			return items[i].sig < items[j].sig
		}
		return refLessSortedPairs(items[i].sorted, items[j].sorted)
	})
	for i := range items {
		egs[i] = items[i].eg
	}

	alive := make([]bool, len(egs))
	for i := range alive {
		alive[i] = true
	}
	var out []AssocGroup
	for i := range egs {
		if !alive[i] {
			continue
		}
		group := AssocGroup{Pairs: NewPairSet(), Docs: append([]uint64(nil), egs[i].docs...)}
		group.Pairs.AddAll(egs[i].pairs)
		for j := i + 1; j < len(egs); j++ {
			if !alive[j] {
				continue
			}
			// EG[i] implies EG[j] iff EG[j] appears in every document
			// EG[i] appears in (and beyond): docs(i) ⊂ docs(j). The
			// equivalence step already merged equal docsets, so a
			// subset here is automatically proper.
			if refSubsetIDs(egs[i].docs, egs[j].docs) {
				group.Pairs.AddAll(egs[j].pairs)
				group.Docs = refUnionIDs(group.Docs, egs[j].docs)
				alive[j] = false
			}
		}
		group.Load = len(group.Docs)
		out = append(out, group)
	}
	return out
}

// refEquivalenceGroups groups the attribute-value pairs occurring in
// exactly the same set of documents (Definition 1).
func refEquivalenceGroups(docs []document.Document) []refEqGroup {
	avInD := make(map[symbol.Pair][]uint64)
	for _, d := range docs {
		for _, sp := range d.InternedPairs() {
			avInD[sp] = append(avInD[sp], d.ID)
		}
	}
	bySig := make(map[string]*refEqGroup)
	for sp, ids := range avInD {
		refSortIDs(ids)
		ids = refDedupIDs(ids)
		sig := refDocsSignature(ids)
		g, ok := bySig[sig]
		if !ok {
			g = &refEqGroup{pairs: NewPairSet(), docs: ids}
			bySig[sig] = g
		}
		g.pairs.AddSym(sp)
	}
	out := make([]refEqGroup, 0, len(bySig))
	for _, g := range bySig {
		out = append(out, *g)
	}
	return out
}

// refAssignGroups packs association groups into m partitions: the m
// highest-load groups seed the partitions, then each remaining group
// (largest first) goes to the partition with the least accumulated
// load — the assignment scheme of Alvanaki & Michel reused by the
// paper.
func refAssignGroups(groups []AssocGroup, m int) *Table {
	type agItem struct {
		g      AssocGroup
		sorted []document.Pair
	}
	items := make([]agItem, len(groups))
	for i, g := range groups {
		items[i] = agItem{g: g, sorted: refSorted(g.Pairs)}
	}
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].g.Load != items[j].g.Load {
			return items[i].g.Load > items[j].g.Load
		}
		return refLessSortedPairs(items[i].sorted, items[j].sorted)
	})
	sorted := make([]AssocGroup, len(items))
	for i := range items {
		sorted[i] = items[i].g
	}
	parts := make([]PairSet, m)
	loads := make([]int, m)
	for i := range parts {
		parts[i] = NewPairSet()
	}
	for i, g := range sorted {
		target := i
		if i >= m {
			target = 0
			for k := 1; k < m; k++ {
				if loads[k] < loads[target] {
					target = k
				}
			}
		}
		parts[target].AddAll(g.Pairs)
		loads[target] += g.Load
	}
	return NewTable(parts)
}

// refConsolidate merges the local association groups produced by multiple
// PartitionCreators into one consistent global set (paper Sec. IV-A,
// Merger): groups whose pair set is a subset of another group's are
// folded into the superset, and a pair appearing in two groups is
// removed from the group with more elements.
func refConsolidate(local [][]AssocGroup) []AssocGroup {
	var all []AssocGroup
	for _, groups := range local {
		for _, g := range groups {
			cp := AssocGroup{Pairs: NewPairSet(), Docs: append([]uint64(nil), g.Docs...), Load: g.Load}
			cp.Pairs.AddAll(g.Pairs)
			all = append(all, cp)
		}
	}
	// Deterministic processing order: larger pair sets first so subsets
	// fold into the largest available superset. Sort keys are computed
	// once per group rather than inside the comparator.
	sortKeys := make([][]document.Pair, len(all))
	for i := range all {
		sortKeys[i] = refSorted(all[i].Pairs)
	}
	idxs := make([]int, len(all))
	for i := range idxs {
		idxs[i] = i
	}
	sort.SliceStable(idxs, func(x, y int) bool {
		i, j := idxs[x], idxs[y]
		if len(all[i].Pairs) != len(all[j].Pairs) {
			return len(all[i].Pairs) > len(all[j].Pairs)
		}
		return refLessSortedPairs(sortKeys[i], sortKeys[j])
	})
	reordered := make([]AssocGroup, len(all))
	for x, i := range idxs {
		reordered[x] = all[i]
	}
	all = reordered
	alive := make([]bool, len(all))
	for i := range alive {
		alive[i] = true
	}
	// Fold subsets into supersets. Loads add up: the creators saw
	// disjoint samples, so their document counts are additive.
	for i := 0; i < len(all); i++ {
		if !alive[i] {
			continue
		}
		for j := i + 1; j < len(all); j++ {
			if !alive[j] {
				continue
			}
			if refSubsetOf(all[j].Pairs, all[i].Pairs) {
				all[i].Load += all[j].Load
				all[i].Docs = refUnionIDs(all[i].Docs, all[j].Docs)
				alive[j] = false
			}
		}
	}
	var merged []AssocGroup
	for i, g := range all {
		if alive[i] {
			merged = append(merged, g)
		}
	}
	// Remove duplicated pairs from the larger of any two overlapping
	// groups so the final groups are pairwise disjoint.
	owner := make(map[symbol.Pair]int)
	for idx, g := range merged {
		for _, sp := range refSortedSyms(g.Pairs) {
			prev, dup := owner[sp]
			if !dup {
				owner[sp] = idx
				continue
			}
			if len(merged[prev].Pairs) >= len(merged[idx].Pairs) {
				delete(merged[prev].Pairs, sp)
				owner[sp] = idx
			} else {
				delete(merged[idx].Pairs, sp)
			}
		}
	}
	// Drop groups emptied by de-duplication.
	out := merged[:0]
	for _, g := range merged {
		if len(g.Pairs) > 0 {
			out = append(out, g)
		}
	}
	return out
}

func refSortIDs(ids []uint64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func refDedupIDs(ids []uint64) []uint64 {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || ids[i-1] != id {
			out = append(out, id)
		}
	}
	return out
}

// refSubsetIDs reports a ⊆ b for sorted id slices.
func refSubsetIDs(a, b []uint64) bool {
	if len(a) > len(b) {
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}

// refUnionIDs merges two sorted id slices.
func refUnionIDs(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func refDocsSignature(ids []uint64) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(id, 36))
	}
	return b.String()
}

// refLessSortedPairs compares two lexicographically sorted pair slices
// (the output of PairSet.Sorted) lexicographically.
func refLessSortedPairs(as, bs []document.Pair) bool {
	for i := 0; i < len(as) && i < len(bs); i++ {
		if as[i] != bs[i] {
			if as[i].Attr != bs[i].Attr {
				return as[i].Attr < bs[i].Attr
			}
			return as[i].Val < bs[i].Val
		}
	}
	return len(as) < len(bs)
}

// SubsetOf reports whether every pair of s is in o.
func refSubsetOf(s, o PairSet) bool {
	if len(s) > len(o) {
		return false
	}
	for sp := range s {
		if _, ok := o[sp]; !ok {
			return false
		}
	}
	return true
}

// Sorted returns the pairs in deterministic (lexicographic) order.
func refSorted(s PairSet) []document.Pair {
	out := make([]document.Pair, 0, len(s))
	for sp := range s {
		a, v := symbol.PairStrings(sp)
		out = append(out, document.Pair{Attr: a, Val: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attr != out[j].Attr {
			return out[i].Attr < out[j].Attr
		}
		return out[i].Val < out[j].Val
	})
	return out
}

// sortedSyms returns the pair symbols ordered lexicographically by
// their resolved strings — the same order as Sorted.
func refSortedSyms(s PairSet) []symbol.Pair {
	type kv struct {
		sp   symbol.Pair
		a, v string
	}
	items := make([]kv, 0, len(s))
	for sp := range s {
		a, v := symbol.PairStrings(sp)
		items = append(items, kv{sp, a, v})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].a != items[j].a {
			return items[i].a < items[j].a
		}
		return items[i].v < items[j].v
	})
	out := make([]symbol.Pair, len(items))
	for i, it := range items {
		out[i] = it.sp
	}
	return out
}
