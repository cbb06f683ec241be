// Package expansion implements the attribute-value expansion of the
// paper's Section VI-B: attributes with few unique values that occur in
// every document (e.g. Booleans) cap the number of useful partitions,
// so their values are concatenated with the values of further
// attributes until the synthetic attribute has enough distinct values
// for the required number of partitions.
//
// Correctness note. Replacing the component pairs by one synthetic pair
// preserves the join-completeness of the routing: any two joinable
// documents that both carry every component attribute must agree on all
// of them (a disagreement would be a natural-join conflict), hence they
// produce the same synthetic value and meet in the same partition; a
// document missing a component attribute cannot build the synthetic
// value and is broadcast to all machines, exactly as the paper
// prescribes ("such documents will be emitted to all machines"). The
// expected extra replication is pna·m, where pna is the fraction of
// documents lacking a component attribute.
package expansion

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/document"
	"repro/internal/symbol"
)

// Expansion describes one synthetic attribute: the ordered component
// attributes (the disabling attribute first, then the combining
// attributes) whose values are concatenated.
type Expansion struct {
	// Components holds the attribute names in concatenation order.
	Components []string
	// SyntheticAttr is the name of the generated attribute.
	SyntheticAttr string
	// DistinctValues is the number of distinct synthetic values
	// observed in the analysis batch.
	DistinctValues int
	// MissingFraction is the fraction of analysis documents lacking at
	// least one component attribute (pna in the paper's estimate).
	MissingFraction float64

	// resolved caches the symbol-level form Apply works on. Unexported:
	// it does not travel with the Expansion (gob), every process
	// resolves against its own symbol tables.
	resolved atomic.Pointer[resolved]
}

// Analyze decides whether expansion is needed for the batch and, if so,
// constructs it. It returns nil when no disabling attribute exists —
// i.e. no attribute that appears in every document has fewer unique
// values than the required number of partitions m.
func Analyze(docs []document.Document, m int) *Expansion {
	if len(docs) == 0 || m <= 1 {
		return nil
	}
	stats := document.CollectAttrStats(docs)

	// The disabling attribute: present in all documents, fewer than m
	// unique values; among candidates pick the fewest distinct values
	// (the most limiting), ties lexicographic.
	disabling := ""
	for _, a := range stats.Ubiquitous() {
		if stats.Distinct[a] >= m {
			continue
		}
		if disabling == "" ||
			stats.Distinct[a] < stats.Distinct[disabling] ||
			(stats.Distinct[a] == stats.Distinct[disabling] && a < disabling) {
			disabling = a
		}
	}
	if disabling == "" {
		return nil
	}

	components := []string{disabling}
	for {
		distinct, missing := syntheticStats(docs, components)
		if distinct >= m {
			return build(components, distinct, missing, len(docs))
		}
		next := nextCombining(stats, components)
		if next == "" {
			// No further attribute available; return the best
			// expansion achievable.
			return build(components, distinct, missing, len(docs))
		}
		components = append(components, next)
	}
}

// AnalyzeForced is Analyze with the ubiquity requirement on the
// disabling attribute relaxed to "the most frequent attribute with
// fewer than m unique values". The paper forces expansion for the DS
// competitor on the real-world dataset, whose limiting attribute need
// not be strictly ubiquitous in every sample. Routing completeness is
// unaffected: documents missing any component attribute are broadcast.
func AnalyzeForced(docs []document.Document, m int) *Expansion {
	if e := Analyze(docs, m); e != nil {
		return e
	}
	if len(docs) == 0 || m <= 1 {
		return nil
	}
	stats := document.CollectAttrStats(docs)
	disabling := ""
	for a, distinct := range stats.Distinct {
		if distinct >= m {
			continue
		}
		if disabling == "" ||
			stats.DocCount[a] > stats.DocCount[disabling] ||
			(stats.DocCount[a] == stats.DocCount[disabling] && a < disabling) {
			disabling = a
		}
	}
	if disabling == "" {
		return nil
	}
	components := []string{disabling}
	for {
		distinct, missing := syntheticStats(docs, components)
		if distinct >= m {
			return build(components, distinct, missing, len(docs))
		}
		next := nextCombining(stats, components)
		if next == "" {
			return build(components, distinct, missing, len(docs))
		}
		components = append(components, next)
	}
}

func build(components []string, distinct, missing, total int) *Expansion {
	return &Expansion{
		Components:      components,
		SyntheticAttr:   syntheticAttrName(components),
		DistinctValues:  distinct,
		MissingFraction: float64(missing) / float64(total),
	}
}

// nextCombining picks the combining attribute: the attribute, not yet a
// component, that appears in the most documents, with ties broken by
// the smallest number of unique values, then lexicographically.
func nextCombining(stats *document.AttrStats, components []string) string {
	used := make(map[string]bool, len(components))
	for _, c := range components {
		used[c] = true
	}
	var candidates []string
	for a := range stats.DocCount {
		if !used[a] {
			candidates = append(candidates, a)
		}
	}
	if len(candidates) == 0 {
		return ""
	}
	sort.Slice(candidates, func(i, j int) bool {
		ai, aj := candidates[i], candidates[j]
		if stats.DocCount[ai] != stats.DocCount[aj] {
			return stats.DocCount[ai] > stats.DocCount[aj]
		}
		if stats.Distinct[ai] != stats.Distinct[aj] {
			return stats.Distinct[ai] < stats.Distinct[aj]
		}
		return ai < aj
	})
	return candidates[0]
}

// syntheticStats counts distinct synthetic values and documents unable
// to build one.
func syntheticStats(docs []document.Document, components []string) (distinct, missing int) {
	values := make(map[string]struct{})
	for _, d := range docs {
		v, ok := syntheticValue(d, components)
		if !ok {
			missing++
			continue
		}
		values[v] = struct{}{}
	}
	return len(values), missing
}

func syntheticValue(d document.Document, components []string) (string, bool) {
	parts := make([]string, 0, len(components))
	for _, a := range components {
		v, ok := d.Get(a)
		if !ok {
			return "", false
		}
		parts = append(parts, v)
	}
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = document.ConcatValues(acc, p)
	}
	return acc, true
}

func syntheticAttrName(components []string) string {
	acc := components[0]
	for _, c := range components[1:] {
		acc = document.ConcatAttrs(acc, c)
	}
	return acc
}

// Apply transforms a document for partitioning purposes: the component
// pairs are replaced by the single synthetic pair. ok=false means the
// document lacks a component attribute, cannot form the synthetic value
// and must be broadcast to all machines.
//
// The transformation is only used for routing; Joiners always operate
// on the original documents. Routing itself does not build the
// transformed document — it asks Synthetic for the change and walks the
// original pairs (partition.Table.RouteSyms).
//
// Apply works on the document's interned symbols: the pairs that stay
// keep their strings and symbols. It is safe for concurrent use on a
// shared *Expansion.
func (e *Expansion) Apply(d document.Document) (document.Document, bool) {
	if e == nil {
		return d, true
	}
	src := d
	if _, epoch := d.Syms(); epoch != symbol.Epoch() {
		// Built before a symbol.Reset: intern it again.
		src = document.FromSorted(d.ID, d.Pairs())
	}
	syms, _ := src.Syms()
	drop, sym, ok := e.Synthetic(syms)
	if !ok {
		return d, false
	}
	p := document.Pair{Attr: symbol.AttrString(sym.Attr()), Val: symbol.ValString(sym.Val())}
	return src.Substitute(drop, p, sym), true
}

// Synthetic is the symbol half of Apply: for a document's pair symbols
// (of the current epoch) it returns the synthetic pair and the
// attributes whose pairs it replaces. The component values are found by
// attribute ID and their concatenation is looked up by value ID; a
// string is built only the first time a combination is seen. ok=false
// means a component attribute is missing. A nil Expansion changes
// nothing: no attributes to drop, ok=true. drop must not be written.
func (e *Expansion) Synthetic(syms []symbol.Pair) (drop []symbol.ID, synthetic symbol.Pair, ok bool) {
	if e == nil {
		return nil, 0, true
	}
	r := e.resolve()
	var val symbol.ID
	for n, c := range r.components {
		i := 0
		for i < len(syms) && syms[i].Attr() != c {
			i++
		}
		if i == len(syms) {
			return nil, 0, false
		}
		if n == 0 {
			val = syms[i].Val()
		} else {
			val = r.concat(val, syms[i].Val())
		}
	}
	return r.components, symbol.MakePair(r.attr, val), true
}

// resolved is an Expansion in terms of one symbol epoch: the IDs of its
// attributes, and every concatenation of two values it has built so
// far. It lives as long as its Expansion — the Merger replaces that at
// every repartition — or until a symbol.Reset, and holds one entry per
// distinct synthetic value (and per distinct prefix of one, beyond two
// components), each of which the value table holds anyway.
type resolved struct {
	epoch      uint64
	components []symbol.ID
	attr       symbol.ID

	mu      sync.RWMutex
	concats map[symbol.Pair]symbol.ID // (left value, right value) -> their ConcatValues
}

// resolve returns e's symbol-level form for the current epoch, building
// it on first use. Racing first users may each build one; they are
// equivalent and one of them stays.
func (e *Expansion) resolve() *resolved {
	epoch := symbol.Epoch()
	if r := e.resolved.Load(); r != nil && r.epoch == epoch {
		return r
	}
	r := &resolved{epoch: epoch, concats: make(map[symbol.Pair]symbol.ID)}
	for _, c := range e.Components {
		r.components = append(r.components, symbol.InternAttr(c))
	}
	r.attr = symbol.InternAttr(e.SyntheticAttr)
	e.resolved.Store(r)
	return r
}

// concat returns the value ID of ConcatValues(left, right), building
// and interning the string only the first time the combination is seen.
func (r *resolved) concat(left, right symbol.ID) symbol.ID {
	key := symbol.MakePair(left, right)
	r.mu.RLock()
	id, ok := r.concats[key]
	r.mu.RUnlock()
	if ok {
		return id
	}
	id = symbol.InternVal(document.ConcatValues(symbol.ValString(left), symbol.ValString(right)))
	r.mu.Lock()
	r.concats[key] = id
	r.mu.Unlock()
	return id
}

// ApplyBatch transforms a whole batch, dropping the documents that
// cannot form the synthetic value (they are broadcast and need no
// partition).
func (e *Expansion) ApplyBatch(docs []document.Document) []document.Document {
	if e == nil {
		return docs
	}
	out := make([]document.Document, 0, len(docs))
	for _, d := range docs {
		if t, ok := e.Apply(d); ok {
			out = append(out, t)
		}
	}
	return out
}

// ExpectedReplication is the paper's estimate pna·m for the replication
// the expansion adds through broadcast documents, plus the single copy
// each remaining document contributes.
func (e *Expansion) ExpectedReplication(m int) float64 {
	if e == nil {
		return 1
	}
	return e.MissingFraction*float64(m) + (1 - e.MissingFraction)
}

// String renders the expansion for logs.
func (e *Expansion) String() string {
	if e == nil {
		return "expansion(none)"
	}
	return fmt.Sprintf("expansion(%s distinct=%d missing=%.2f)",
		strings.Join(e.Components, "+"), e.DistinctValues, e.MissingFraction)
}
