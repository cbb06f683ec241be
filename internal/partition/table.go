// Package partition implements the data-partitioning algorithms of the
// paper: the Association Groups approach of Section IV (the
// contribution) and the two competitors from Alvanaki & Michel used in
// the evaluation, Set Cover (SC) and Disjoint Sets (DS).
//
// A partition is a set of attribute-value pairs assigned to one
// machine. A document matches a partition when the two share at least
// one attribute-value pair; matching documents are forwarded to that
// machine, and a document matching several partitions is replicated to
// all of them so the join result stays complete.
package partition

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/document"
	"repro/internal/symbol"
)

// PairSet is a set of attribute-value pairs, keyed by their interned
// symbols (see internal/symbol): membership tests hash one uint64
// instead of two strings. The string-typed methods intern (Add) or
// look up (Has) transparently; Sorted resolves back to strings in the
// same deterministic lexicographic order as before interning.
//
// Like every symbol-keyed structure, a PairSet is bound to the symbol
// epoch it was built under; symbol.Reset is quiesce-only and must not
// run while a PairSet is live.
type PairSet map[symbol.Pair]struct{}

// NewPairSet builds a set from pairs, interning them.
func NewPairSet(pairs ...document.Pair) PairSet {
	s := make(PairSet, len(pairs))
	for _, p := range pairs {
		s.Add(p)
	}
	return s
}

// NewPairSetFromSyms builds a set from already-interned pair symbols —
// the allocation-free path for pairs coming out of a Document.
func NewPairSetFromSyms(syms []symbol.Pair) PairSet {
	s := make(PairSet, len(syms))
	for _, sp := range syms {
		s[sp] = struct{}{}
	}
	return s
}

// Add inserts a pair, interning it.
func (s PairSet) Add(p document.Pair) { s[symbol.InternPair(p.Attr, p.Val)] = struct{}{} }

// AddSym inserts an already-interned pair symbol.
func (s PairSet) AddSym(sp symbol.Pair) { s[sp] = struct{}{} }

// Has reports membership. A pair whose attribute or value was never
// interned cannot be in any set.
func (s PairSet) Has(p document.Pair) bool {
	sp, ok := symbol.LookupPair(p.Attr, p.Val)
	if !ok {
		return false
	}
	_, ok = s[sp]
	return ok
}

// HasSym reports membership of an already-interned pair symbol.
func (s PairSet) HasSym(sp symbol.Pair) bool { _, ok := s[sp]; return ok }

// AddAll inserts every pair of o.
func (s PairSet) AddAll(o PairSet) {
	for sp := range o {
		s[sp] = struct{}{}
	}
}

// SubsetOf reports whether every pair of s is in o.
func (s PairSet) SubsetOf(o PairSet) bool {
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
func (s PairSet) Sorted() []document.Pair {
	out := make([]document.Pair, len(s))
	for i, sp := range s.sortedSyms() {
		out[i].Attr, out[i].Val = symbol.PairStrings(sp)
	}
	return out
}

// sortedSyms returns the pair symbols ordered lexicographically by
// their resolved strings — the same order as Sorted.
func (s PairSet) sortedSyms() []symbol.Pair {
	out := make([]symbol.Pair, 0, len(s))
	for sp := range s {
		out = append(out, sp)
	}
	slices.SortFunc(out, comparePairs)
	return out
}

// Table is a complete partitioning: m pair sets, one per machine, plus
// an inverted index for O(#pairs) document assignment. The index is
// keyed by interned pair symbols, so routing a document hashes one
// uint64 per pair.
type Table struct {
	M          int
	Partitions []PairSet

	// index maps a pair to the partition holding it, i ≥ 0, or — for a
	// pair several partitions hold — to ^k, with shared[k] listing them.
	index  map[symbol.Pair]int32
	shared [][]int
	all    []int // 0 … M-1: the broadcast target list, never written
}

// NewTable builds a table over the given partitions (len == m) and
// constructs the pair index.
func NewTable(parts []PairSet) *Table {
	pairs := 0
	for _, ps := range parts {
		pairs += len(ps)
	}
	t := &Table{
		M:          len(parts),
		Partitions: parts,
		index:      make(map[symbol.Pair]int32, pairs),
		all:        make([]int, len(parts)),
	}
	for i, ps := range parts {
		t.all[i] = i
		for sp := range ps {
			t.indexPair(sp, i)
		}
	}
	return t
}

// indexPair records that partition i holds sp.
func (t *Table) indexPair(sp symbol.Pair, i int) {
	switch at, ok := t.index[sp]; {
	case !ok:
		t.index[sp] = int32(i)
	case at >= 0:
		t.index[sp] = int32(^len(t.shared))
		t.shared = append(t.shared, []int{int(at), i})
	default:
		t.shared[^at] = append(t.shared[^at], i)
	}
}

// Covers reports whether the pair belongs to any partition.
func (t *Table) Covers(p document.Pair) bool {
	sp, ok := symbol.LookupPair(p.Attr, p.Val)
	return ok && t.CoversSym(sp)
}

// CoversSym reports whether an interned pair belongs to any partition.
func (t *Table) CoversSym(sp symbol.Pair) bool {
	_, ok := t.index[sp]
	return ok
}

// All returns the broadcast target list, 0 … M-1. It is shared by every
// caller and must not be written.
func (t *Table) All() []int { return t.all }

// TargetSet is a set of partition indexes kept as a bitmask: one word
// up to m = 64, as many as it takes beyond.
type TargetSet []uint64

// Reset empties the set and sizes it for indexes below m.
func (s *TargetSet) Reset(m int) {
	n := (m + 63) / 64
	if cap(*s) < n {
		*s = make(TargetSet, n)
		return
	}
	*s = (*s)[:n]
	clear(*s)
}

// Add inserts index i.
func (s TargetSet) Add(i int) { s[i>>6] |= 1 << (i & 63) }

// List returns the members in ascending order as a new slice, nil for
// the empty set.
func (s TargetSet) List() []int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for k, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, k<<6+bits.TrailingZeros64(w))
		}
	}
	return out
}

// RouteScratch is the caller-owned scratch of RouteSyms: one per
// routing task, reused from document to document.
type RouteScratch struct {
	// Matched holds, after a call, the partitions sharing a pair with
	// the document; Uncovered lists the document's pairs that no
	// partition holds.
	Matched   TargetSet
	Uncovered []symbol.Pair
}

// walk is the routing kernel: one pass over a document's pairs with one
// index lookup per pair. It adds the partitions sharing a pair with the
// document to matched (sized for the table), appends the pairs no
// partition holds to *uncovered, and reports whether there were none.
// A nil uncovered ends the walk at the first uncovered pair, for
// callers that only need to know there is one.
//
// The document is syms without the pairs under the attributes in drop —
// and under extra's attribute — plus extra: an attribute-value expansion
// applied without building the transformed document. An empty drop
// means syms as they are.
func (t *Table) walk(matched TargetSet, uncovered *[]symbol.Pair, syms []symbol.Pair, drop []symbol.ID, extra symbol.Pair) (covered bool) {
	covered = true
	if len(drop) > 0 && !t.walkPair(matched, uncovered, extra) {
		if uncovered == nil {
			return false
		}
		covered = false
	}
	for _, sp := range syms {
		if len(drop) > 0 && (sp.Attr() == extra.Attr() || slices.Contains(drop, sp.Attr())) {
			continue
		}
		if !t.walkPair(matched, uncovered, sp) {
			if uncovered == nil {
				return false
			}
			covered = false
		}
	}
	return covered
}

// walkPair is walk's step for one pair; it reports whether the pair is
// covered.
func (t *Table) walkPair(matched TargetSet, uncovered *[]symbol.Pair, sp symbol.Pair) bool {
	switch at, ok := t.index[sp]; {
	case !ok:
		if uncovered != nil {
			*uncovered = append(*uncovered, sp)
		}
		return false
	case at >= 0:
		matched.Add(int(at))
	default:
		for _, i := range t.shared[^at] {
			matched.Add(i)
		}
	}
	return true
}

// RouteSyms routes the document "syms without the pairs under drop's
// attributes, plus extra" (see walk; an empty drop means syms as they
// are) under the Assigner policy. It returns the matching partitions in
// ascending order as a new slice, or nil when the document must be
// broadcast: some pair is uncovered — sc.Uncovered lists them all — or
// nothing matched.
func (t *Table) RouteSyms(sc *RouteScratch, syms []symbol.Pair, drop []symbol.ID, extra symbol.Pair) []int {
	sc.Matched.Reset(t.M)
	sc.Uncovered = sc.Uncovered[:0]
	if !t.walk(sc.Matched, &sc.Uncovered, syms, drop, extra) {
		return nil
	}
	return sc.Matched.List()
}

// Assign returns the sorted set of partition indexes whose pair sets
// share at least one attribute-value pair with d. An empty result means
// the document matches no partition and must be broadcast to all
// machines to guarantee join completeness.
func (t *Table) Assign(d document.Document) []int {
	var matched TargetSet
	matched.Reset(t.M)
	var uncovered []symbol.Pair // recorded so the walk does not stop early
	t.walk(matched, &uncovered, d.InternedPairs(), nil, 0)
	return matched.List()
}

// Route computes the machines a document is forwarded to under the
// Assigner policy: if every pair is covered, the matching partitions;
// otherwise a broadcast to all machines (broadcast=true) — a document
// with an uncovered (previously unseen) pair must reach every machine,
// because that pair could be its only link to a joinable partner (paper
// Sec. VI-A and VII-E.4). A broadcast's target list is shared by every
// caller and must not be written.
func (t *Table) Route(d document.Document) (targets []int, broadcast bool) {
	return t.RouteExpanded(d.InternedPairs(), nil, 0)
}

// RouteExpanded is Route for the document "syms without the pairs under
// drop's attributes, plus extra" (see RouteSyms).
func (t *Table) RouteExpanded(syms []symbol.Pair, drop []symbol.ID, extra symbol.Pair) (targets []int, broadcast bool) {
	var words [4]uint64 // m ≤ 256 routes without touching the heap
	matched := TargetSet(words[:0])
	matched.Reset(t.M)
	if t.walk(matched, nil, syms, drop, extra) {
		if targets = matched.List(); targets != nil {
			return targets, false
		}
	}
	return t.All(), true
}

// AddPair extends partition idx with pair p (used by the Merger's
// δ-gated partition updates).
func (t *Table) AddPair(idx int, p document.Pair) {
	if idx < 0 || idx >= t.M {
		panic(fmt.Sprintf("partition: AddPair index %d out of range [0,%d)", idx, t.M))
	}
	sp := symbol.InternPair(p.Attr, p.Val)
	if t.Partitions[idx].HasSym(sp) {
		return
	}
	t.Partitions[idx].AddSym(sp)
	t.indexPair(sp, idx)
}

// AddDocument adds every uncovered pair of d to the currently
// least-loaded partition (by pair count), implementing the paper's
// "updating the partitions is adding a single document to the already
// created partitions". If some pairs are covered, the uncovered pairs
// join the partition already holding most of d's pairs, keeping the
// document on one machine.
func (t *Table) AddDocument(d document.Document) {
	target := -1
	if matched := t.Assign(d); len(matched) > 0 {
		// Attach to the best matching partition.
		best, bestShared := -1, -1
		for _, idx := range matched {
			shared := 0
			for _, sp := range d.InternedPairs() {
				if t.Partitions[idx].HasSym(sp) {
					shared++
				}
			}
			if shared > bestShared {
				best, bestShared = idx, shared
			}
		}
		target = best
	} else {
		// Least-loaded partition by pair count.
		min := int(^uint(0) >> 1)
		for i, ps := range t.Partitions {
			if len(ps) < min {
				min = len(ps)
				target = i
			}
		}
	}
	pairs := d.Pairs()
	for i, sp := range d.InternedPairs() {
		if !t.CoversSym(sp) {
			t.AddPair(target, pairs[i])
		}
	}
}

// Clone returns a deep copy of the table. The Merger mutates only
// clones so that previously broadcast tables stay immutable for the
// Assigners reading them concurrently.
func (t *Table) Clone() *Table {
	parts := make([]PairSet, len(t.Partitions))
	for i, ps := range t.Partitions {
		cp := make(PairSet, len(ps))
		cp.AddAll(ps)
		parts[i] = cp
	}
	return NewTable(parts)
}

// NonEmpty counts partitions holding at least one pair. Partitioners
// limited by low value variety (paper Sec. VI-B) produce fewer
// non-empty partitions than machines.
func (t *Table) NonEmpty() int {
	n := 0
	for _, ps := range t.Partitions {
		if len(ps) > 0 {
			n++
		}
	}
	return n
}

// String summarises partition sizes.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table m=%d sizes=[", t.M)
	for i, ps := range t.Partitions {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", len(ps))
	}
	b.WriteByte(']')
	return b.String()
}

// Partitioner turns a window of documents into a Table of m partitions.
type Partitioner interface {
	Name() string
	Partition(docs []document.Document, m int) *Table
}

// ByName returns the partitioner for a short algorithm name.
func ByName(name string) (Partitioner, error) {
	switch strings.ToUpper(name) {
	case "AG":
		return AssociationGroups{}, nil
	case "SC":
		return SetCover{}, nil
	case "DS":
		return DisjointSets{}, nil
	default:
		return nil, fmt.Errorf("partition: unknown partitioner %q", name)
	}
}
