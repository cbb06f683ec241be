package partition

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/document"
	"repro/internal/symbol"
)

// AssocGroup is one association group: a set of attribute-value pairs
// that the association analysis decided belong together, plus the
// documents it was derived from and the resulting load (number of
// documents containing at least one of the group's pairs).
type AssocGroup struct {
	Pairs PairSet
	Docs  []uint64 // sorted, union over constituent equivalence groups
	Load  int

	// sorted is Pairs in string order, as Groups and Consolidate leave
	// it behind for the next stage, so a group is resolved and sorted
	// once on its way from a creator into the table. It does not travel
	// (gob skips it) and is trusted only while it is as long as Pairs.
	sorted []symbol.Pair
}

// sortedPairs returns the group's pairs in string order.
func (g *AssocGroup) sortedPairs() []symbol.Pair {
	if len(g.sorted) != len(g.Pairs) {
		g.sorted = g.Pairs.sortedSyms()
	}
	return g.sorted
}

// AssociationGroups is the paper's partitioning algorithm (Sec. IV):
// equivalence groups are found by grouping the attribute-value pairs
// that occur in exactly the same set of documents, the implies relation
// merges equivalence groups into association groups (Algorithm 1), and
// the groups are packed into m partitions largest-load-first.
type AssociationGroups struct{}

// Name implements Partitioner.
func (AssociationGroups) Name() string { return "AG" }

// Partition implements Partitioner.
func (ag AssociationGroups) Partition(docs []document.Document, m int) *Table {
	groups := ag.Groups(docs)
	return AssignGroups(groups, m)
}

// eqGroup is one equivalence group: the pairs sharing one exact
// document set. Documents are named by rank — their index in the
// batch's ascending id list — so docsets are dense int32 lists.
type eqGroup struct {
	pairs []symbol.Pair
	docs  []int32 // ascending
}

// Groups runs Algorithm 1: it computes the association groups for a
// document batch. The returned groups have pairwise-disjoint pair sets.
func (AssociationGroups) Groups(docs []document.Document) []AssocGroup {
	egs, ids := equivalenceGroups(docs)

	// EG[i] implies EG[j] iff EG[j] appears in every document EG[i]
	// appears in (and beyond): docs(i) ⊂ docs(j); equal docsets were
	// merged by the equivalence step, so a subset is proper. Such a j
	// holds docs(i)'s first document, so only the groups of that
	// document are candidates: holders lists them per document, in
	// sorted-group order.
	holders := newLists(len(ids), len(egs), func(j int) []int32 { return egs[j].docs })

	absorbed := make([]bool, len(egs))
	var out []AssocGroup
	var members []int32
	var union, spare []int32
	for i := range egs {
		if absorbed[i] {
			continue
		}
		members = append(members[:0], int32(i))
		for _, j := range holders.of(egs[i].docs[0]) {
			if int(j) > i && !absorbed[j] && subsetRanks(egs[i].docs, egs[j].docs) {
				absorbed[j] = true
				members = append(members, j)
			}
		}
		npairs := 0
		union = append(union[:0], egs[i].docs...)
		for _, j := range members {
			npairs += len(egs[j].pairs)
			if int(j) != i {
				spare = unionSorted(spare[:0], union, egs[j].docs)
				union, spare = spare, union
			}
		}
		g := AssocGroup{
			Pairs:  make(PairSet, npairs),
			Docs:   make([]uint64, len(union)),
			Load:   len(union),
			sorted: make([]symbol.Pair, 0, npairs),
		}
		for _, j := range members {
			g.sorted = append(g.sorted, egs[j].pairs...)
		}
		slices.SortFunc(g.sorted, comparePairs)
		for _, sp := range g.sorted {
			g.Pairs[sp] = struct{}{}
		}
		for k, r := range union {
			g.Docs[k] = ids[r]
		}
		out = append(out, g)
	}
	return out
}

// equivalenceGroups groups the attribute-value pairs occurring in
// exactly the same set of documents (Definition 1). It returns the
// groups in the order Algorithm 1 processes them, and the batch's
// document ids in ascending order, which the groups' docsets index.
func equivalenceGroups(docs []document.Document) ([]eqGroup, []uint64) {
	// Documents arrive in id order, so a document's rank is its
	// position and every pair's docset comes out ascending; anything
	// else is ranked by search and the docsets sorted below.
	ids := make([]uint64, len(docs))
	inOrder := true
	for i, d := range docs {
		ids[i] = d.ID
		inOrder = inOrder && (i == 0 || ids[i-1] < d.ID)
	}
	if !inOrder {
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}

	// Number the distinct pairs in first-occurrence order and remember
	// the number of every occurrence, so the docsets fill one flat
	// array in a second pass without asking the map again.
	total := 0
	for _, d := range docs {
		total += d.Len()
	}
	index := make(map[symbol.Pair]int32, 2*len(docs))
	pairs := make([]symbol.Pair, 0, 2*len(docs))
	occurrences := make([]int32, 0, total)
	starts := make([]int, 1, len(docs)+1) // document i's occurrences: starts[i] … starts[i+1]
	for _, d := range docs {
		for _, sp := range d.InternedPairs() {
			n, ok := index[sp]
			if !ok {
				n = int32(len(pairs))
				index[sp] = n
				pairs = append(pairs, sp)
			}
			occurrences = append(occurrences, n)
		}
		starts = append(starts, len(occurrences))
	}
	docsets := newLists(len(pairs), len(docs), func(i int) []int32 {
		return occurrences[starts[i]:starts[i+1]]
	})
	// newLists filed document i under each of its pairs; what it holds
	// per pair is therefore document positions — ranks, when in order.
	if !inOrder {
		for n := range pairs {
			set := docsets.of(int32(n))
			for i, pos := range set {
				r, _ := slices.BinarySearch(ids, docs[pos].ID)
				set[i] = int32(r)
			}
			slices.Sort(set)
			docsets.trim(int32(n), len(slices.Compact(set)))
		}
	}

	// Ascending by document count (Algorithm 1 line 3); ties are broken
	// by the docset's signature — its ids in base 36, comma-separated,
	// compared as a string — for determinism across runs. Only equal
	// docsets compare equal, so sorting the pairs by docset puts each
	// equivalence group's pairs side by side, the groups in their final
	// order.
	byDocset := make([]int32, len(pairs))
	for n := range byDocset {
		byDocset[n] = int32(n)
	}
	compareDocsets := func(x, y int32) int {
		a, b := docsets.of(x), docsets.of(y)
		if c := cmp.Compare(len(a), len(b)); c != 0 {
			return c
		}
		for k := range a {
			if a[k] != b[k] {
				return compareBase36(ids[a[k]], ids[b[k]])
			}
		}
		return 0
	}
	slices.SortFunc(byDocset, compareDocsets)
	var egs []eqGroup
	for i, n := range byDocset {
		if i == 0 || compareDocsets(byDocset[i-1], n) != 0 {
			egs = append(egs, eqGroup{docs: docsets.of(n)})
		}
		last := &egs[len(egs)-1]
		last.pairs = append(last.pairs, pairs[n])
	}
	return egs, ids
}

// AssignGroups packs association groups into m partitions: the m
// highest-load groups seed the partitions, then each remaining group
// (largest first) goes to the partition with the least accumulated
// load — the assignment scheme of Alvanaki & Michel reused by the
// paper.
func AssignGroups(groups []AssocGroup, m int) *Table {
	sorted := slices.Clone(groups)
	for i := range sorted {
		sorted[i].sortedPairs()
	}
	slices.SortStableFunc(sorted, func(a, b AssocGroup) int {
		if a.Load != b.Load {
			return cmp.Compare(b.Load, a.Load)
		}
		return slices.CompareFunc(a.sorted, b.sorted, comparePairs)
	})
	target := make([]int, len(sorted))
	sizes := make([]int, m)
	loads := make([]int, m)
	for i, g := range sorted {
		target[i] = i
		if i >= m {
			target[i] = 0
			for k := 1; k < m; k++ {
				if loads[k] < loads[target[i]] {
					target[i] = k
				}
			}
		}
		sizes[target[i]] += len(g.sorted)
		loads[target[i]] += g.Load
	}
	parts := make([]PairSet, m)
	for i := range parts {
		parts[i] = make(PairSet, sizes[i])
	}
	for i, g := range sorted {
		for _, sp := range g.sorted {
			parts[target[i]][sp] = struct{}{}
		}
	}
	return NewTable(parts)
}

// Consolidate merges the local association groups produced by multiple
// PartitionCreators into one consistent global set (paper Sec. IV-A,
// Merger): groups whose pair set is a subset of another group's are
// folded into the superset, and a pair appearing in two groups is
// removed from the group with more elements.
func Consolidate(local [][]AssocGroup) []AssocGroup {
	type group struct {
		pairs []symbol.Pair // string order
		docs  []uint64
		load  int
		owned bool // docs is this function's own slice, not the caller's
	}
	var all []group
	for _, groups := range local {
		for i := range groups {
			g := groups[i]
			all = append(all, group{pairs: g.sortedPairs(), docs: g.Docs, load: g.Load})
		}
	}
	// Deterministic processing order: larger pair sets first so subsets
	// fold into the largest available superset.
	slices.SortStableFunc(all, func(a, b group) int {
		if len(a.pairs) != len(b.pairs) {
			return cmp.Compare(len(b.pairs), len(a.pairs))
		}
		return slices.CompareFunc(a.pairs, b.pairs, comparePairs)
	})

	// Number the distinct pairs; numbers[i] is parallel to all[i].pairs.
	index := make(map[symbol.Pair]int32)
	numbers := make([][]int32, len(all))
	var flat []int32
	for _, g := range all {
		for _, sp := range g.pairs {
			n, ok := index[sp]
			if !ok {
				n = int32(len(index))
				index[sp] = n
			}
			flat = append(flat, n)
		}
	}
	for i, g := range all {
		numbers[i], flat = flat[:len(g.pairs):len(g.pairs)], flat[len(g.pairs):]
	}
	// Group j ⊆ group i only if they share a pair, so the candidates of
	// i are the groups of its pairs: holders lists them per pair, in
	// processing order. j ⊆ i exactly when every pair of j is hit.
	holders := newLists(len(index), len(all), func(j int) []int32 { return numbers[j] })

	// Fold subsets into supersets. Loads add up: the creators saw
	// disjoint samples, so their document counts are additive.
	folded := make([]bool, len(all))
	hits := make([]int32, len(all))
	var touched []int32
	for i := range all {
		if folded[i] {
			continue
		}
		touched = touched[:0]
		for _, n := range numbers[i] {
			for _, j := range holders.of(n) {
				if int(j) > i && !folded[j] {
					if hits[j] == 0 {
						touched = append(touched, j)
					}
					hits[j]++
				}
			}
		}
		if i == 0 {
			// The empty set is a subset of everything; empty groups sort
			// last and all fold into the first group.
			for j := len(all) - 1; j > 0 && len(all[j].pairs) == 0; j-- {
				touched = append(touched, int32(j))
			}
		}
		for _, j := range touched {
			if int(hits[j]) == len(all[j].pairs) {
				all[i].load += all[j].load
				all[i].docs = unionSorted(make([]uint64, 0, len(all[i].docs)+len(all[j].docs)), all[i].docs, all[j].docs)
				all[i].owned = true
				folded[j] = true
			}
			hits[j] = 0
		}
	}

	// Remove duplicated pairs from the larger of any two overlapping
	// groups so the final groups are pairwise disjoint: going through
	// the surviving groups in order and each group's pairs in string
	// order, a pair two groups hold stays with the one that has fewer
	// pairs left at that moment (the later one on a tie). The group a
	// pair ends up with is its owner; size counts the pairs a group has
	// left.
	owner := make([]int32, len(index))
	for n := range owner {
		owner[n] = -1
	}
	size := make([]int, len(all))
	for i, g := range all {
		size[i] = len(g.pairs)
	}
	for i := range all {
		if folded[i] {
			continue
		}
		for _, n := range numbers[i] {
			switch prev := owner[n]; {
			case prev < 0:
				owner[n] = int32(i)
			case size[prev] >= size[i]:
				size[prev]--
				owner[n] = int32(i)
			default:
				size[i]--
			}
		}
	}
	// Groups emptied by de-duplication are dropped.
	var out []AssocGroup
	for i, g := range all {
		if folded[i] || size[i] == 0 {
			continue
		}
		res := AssocGroup{
			Pairs:  make(PairSet, size[i]),
			Docs:   g.docs,
			Load:   g.load,
			sorted: make([]symbol.Pair, 0, size[i]),
		}
		if !g.owned {
			res.Docs = slices.Clone(g.docs)
		}
		for k, sp := range g.pairs {
			if owner[numbers[i][k]] == int32(i) {
				res.sorted = append(res.sorted, sp)
				res.Pairs[sp] = struct{}{}
			}
		}
		out = append(out, res)
	}
	return out
}

// lists is an inverted index in one flat array: of(k) is the ascending
// list of the items filed under key k.
type lists struct {
	start []int32 // len = keys + 1
	end   []int32
	flat  []int32
}

// newLists files each item i < items under every key of keysOf(i),
// which is called twice per item; keys are < keys.
func newLists(keys, items int, keysOf func(i int) []int32) lists {
	l := lists{start: make([]int32, keys+1), end: make([]int32, keys)}
	for i := 0; i < items; i++ {
		for _, k := range keysOf(i) {
			l.start[k+1]++
		}
	}
	for k := 0; k < keys; k++ {
		l.start[k+1] += l.start[k]
	}
	copy(l.end, l.start)
	l.flat = make([]int32, l.start[keys])
	for i := 0; i < items; i++ {
		for _, k := range keysOf(i) {
			l.flat[l.end[k]] = int32(i)
			l.end[k]++
		}
	}
	return l
}

func (l lists) of(k int32) []int32 { return l.flat[l.start[k]:l.end[k]:l.end[k]] }

// trim shortens k's list to its first n items.
func (l lists) trim(k int32, n int) { l.end[k] = l.start[k] + int32(n) }

// subsetRanks reports a ⊆ b for ascending rank lists. When b is much
// the longer — a group of few documents against a near-ubiquitous one —
// each rank of a is searched in b instead of walking all of b.
func subsetRanks(a, b []int32) bool {
	if len(a) > len(b) {
		return false
	}
	if len(b) >= 16*len(a) {
		for _, r := range a {
			at, ok := slices.BinarySearch(b, r)
			if !ok {
				return false
			}
			b = b[at+1:]
		}
		return true
	}
	j := 0
	for _, r := range a {
		for j < len(b) && b[j] < r {
			j++
		}
		if j == len(b) || b[j] != r {
			return false
		}
		j++
	}
	return true
}

// unionSorted appends the union of two ascending lists to dst.
func unionSorted[T cmp.Ordered](dst, a, b []T) []T {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// compareBase36 orders two ids as their base-36 renderings order as
// strings ("10" before "9"): the order of the docset signatures that
// break Groups' ties, which is not numeric order. Renderings of equal
// length order numerically; otherwise the longer one is cut to the
// shorter's length, and a proper prefix sorts first.
func compareBase36(x, y uint64) int {
	dx, dy := digits36(x), digits36(y)
	longer := cmp.Compare(dx, dy)
	for ; dx > dy; dx-- {
		x /= 36
	}
	for ; dy > dx; dy-- {
		y /= 36
	}
	if c := cmp.Compare(x, y); c != 0 {
		return c
	}
	return longer
}

// digits36 is the length of x in base 36.
func digits36(x uint64) int {
	n := 1
	for ; x >= 36; x /= 36 {
		n++
	}
	return n
}

// comparePairs orders pair symbols by their strings, attribute first —
// the order of PairSet.Sorted.
func comparePairs(a, b symbol.Pair) int {
	if a.Attr() != b.Attr() {
		return strings.Compare(symbol.AttrString(a.Attr()), symbol.AttrString(b.Attr()))
	}
	return strings.Compare(symbol.ValString(a.Val()), symbol.ValString(b.Val()))
}
