// Package document defines the schema-free JSON document model and the
// natural-join semantics used throughout the system.
//
// A document is an unordered set of attribute-value pairs
// d = {a1:v1, a2:v2, ...}. Following the paper's join definition, two
// documents are joinable if and only if they share at least one
// attribute-value pair and have identical values for every attribute
// they have in common. Documents that share no attribute are excluded
// from the join result.
package document

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/symbol"
)

// Pair is a single attribute-value pair. Val holds the canonical
// encoding of the JSON value (see EncodeValue) so that equality of Val
// strings coincides with JSON value equality.
type Pair struct {
	Attr string
	Val  string
}

// String renders the pair as attr:value using the decoded value form.
func (p Pair) String() string {
	return p.Attr + ":" + DecodeValueString(p.Val)
}

// Key returns the canonical map key for the pair, unique across
// attribute and value. The separator cannot occur inside Attr because
// attribute names are JSON strings flattened with '.'; a rune from the
// Unicode private-use area keeps keys collision-free even for values
// containing ':' or '='.
func (p Pair) Key() string {
	return p.Attr + pairSep + p.Val
}

const pairSep = ""

// KeyHash is 64-bit FNV-1a over the bytes of Key(), computed in place:
// no key string is built. It is the same on every process, so it can
// decide where a pair lives (core's hash routing).
func (p Pair) KeyHash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, part := range [...]string{p.Attr, pairSep, p.Val} {
		for i := 0; i < len(part); i++ {
			h = (h ^ uint64(part[i])) * prime
		}
	}
	return h
}

// PairFromKey reconstructs a Pair from Key(). It panics on malformed
// input because keys only circulate internally.
func PairFromKey(key string) Pair {
	i := strings.Index(key, pairSep)
	if i < 0 {
		panic(fmt.Sprintf("document: malformed pair key %q", key))
	}
	return Pair{Attr: key[:i], Val: key[i+len(pairSep):]}
}

// Document is an immutable schema-free document: an identifier plus a
// set of attribute-value pairs held sorted by attribute name. At most
// one pair per attribute exists (JSON object semantics).
//
// Alongside the canonical string pairs, a document carries the interned
// symbol of every pair (see internal/symbol), so the hot kernels —
// Classify, Merge, the FP-tree probe, partition assignment — compare
// and hash integers instead of strings. The symbols are an internal
// acceleration structure: the string API is unchanged and remains the
// source of truth for display and serialisation.
type Document struct {
	ID    uint64
	pairs []Pair        // sorted by Attr, unique attrs
	syms  []symbol.Pair // parallel to pairs; interned under epoch
	epoch uint64        // symbol-table epoch the syms were interned under
}

// New builds a document from the given pairs. Pairs are copied, sorted
// by attribute, and de-duplicated; when the same attribute appears more
// than once the last value wins (matching encoding/json object
// decoding).
func New(id uint64, pairs []Pair) Document {
	cp := make([]Pair, len(pairs))
	copy(cp, pairs)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Attr < cp[j].Attr })
	out := cp[:0]
	for _, p := range cp {
		if n := len(out); n > 0 && out[n-1].Attr == p.Attr {
			out[n-1] = p
			continue
		}
		out = append(out, p)
	}
	return newFromSortedUnique(id, out)
}

// FromSorted builds a document from pairs that are already sorted by
// attribute and free of duplicate attributes — the trusted fast path
// for payloads that were produced by New on the other side of a wire.
// The invariant is verified in one linear pass; violating input falls
// back to the full New construction, so a corrupted payload cannot
// break the sorted-unique invariant. FromSorted takes ownership of the
// slice.
func FromSorted(id uint64, pairs []Pair) Document {
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].Attr >= pairs[i].Attr {
			return New(id, pairs)
		}
	}
	return newFromSortedUnique(id, pairs)
}

// newFromSortedUnique interns the pair symbols and assembles the
// document. The epoch is read before interning: if a (quiesce-only)
// symbol.Reset races with construction, the stored epoch is already
// stale and every symbol fast path safely falls back to strings.
func newFromSortedUnique(id uint64, pairs []Pair) Document {
	if len(pairs) == 0 {
		return Document{ID: id, pairs: pairs}
	}
	epoch := symbol.Epoch()
	syms := make([]symbol.Pair, len(pairs))
	for i, p := range pairs {
		syms[i] = symbol.InternPair(p.Attr, p.Val)
	}
	return Document{ID: id, pairs: pairs, syms: syms, epoch: epoch}
}

// Substitute returns the document that lacks the pairs of the given
// attributes and holds the pair p instead, at its sorted place; a pair
// already under p's attribute is replaced. drop and sym (p's symbol)
// must be of the epoch of d's own symbols — the pairs that stay keep
// their strings and symbols, nothing is interned again.
// Attribute-value expansion builds its routing documents with it.
func (d Document) Substitute(drop []symbol.ID, p Pair, sym symbol.Pair) Document {
	n := len(d.pairs) - len(drop) + 1 // exact when d holds every dropped attribute and not p's
	out := Document{ID: d.ID, pairs: make([]Pair, 0, max(n, 1)), syms: make([]symbol.Pair, 0, max(n, 1)), epoch: d.epoch}
	placed := false
	for i, q := range d.pairs {
		if slices.Contains(drop, d.syms[i].Attr()) {
			continue
		}
		if !placed && q.Attr >= p.Attr {
			placed = true
			out.pairs, out.syms = append(out.pairs, p), append(out.syms, sym)
			if q.Attr == p.Attr {
				continue
			}
		}
		out.pairs, out.syms = append(out.pairs, q), append(out.syms, d.syms[i])
	}
	if !placed {
		out.pairs, out.syms = append(out.pairs, p), append(out.syms, sym)
	}
	return out
}

// Syms returns the document's interned pair symbols (parallel to
// Pairs) and the symbol-table epoch they were interned under. The
// returned slice must not be modified; it is nil for empty documents.
func (d Document) Syms() ([]symbol.Pair, uint64) { return d.syms, d.epoch }

// InternedPairs returns pair symbols valid for the current global
// symbol epoch, re-interning when the document was built under an
// older epoch (possible only after an explicit symbol.Reset). The
// result is parallel to Pairs and must not be modified.
func (d Document) InternedPairs() []symbol.Pair {
	if d.epoch == symbol.Epoch() {
		return d.syms
	}
	syms := make([]symbol.Pair, len(d.pairs))
	for i, p := range d.pairs {
		syms[i] = symbol.InternPair(p.Attr, p.Val)
	}
	return syms
}

// Pairs returns the document's pairs sorted by attribute. The returned
// slice must not be modified.
func (d Document) Pairs() []Pair { return d.pairs }

// MemBytes estimates the document's resident heap footprint: the
// Document value itself plus its pair slice (string headers and string
// bytes) and the parallel symbol slice. It is an accounting estimate
// for the memory governor, not an exact allocator measurement — the
// constants approximate Go's per-object layout on 64-bit platforms.
func (d Document) MemBytes() int64 {
	const (
		docBytes  = 8 + 24 + 24 + 8 // ID + pairs header + syms header + epoch
		pairBytes = 2 * 16          // two string headers
		symBytes  = 8               // one symbol.Pair
	)
	n := int64(docBytes)
	for _, p := range d.pairs {
		n += pairBytes + int64(len(p.Attr)) + int64(len(p.Val))
	}
	n += int64(len(d.syms)) * symBytes
	return n
}

// Len reports the number of attribute-value pairs.
func (d Document) Len() int { return len(d.pairs) }

// Get returns the canonical value for attr and whether it is present.
func (d Document) Get(attr string) (string, bool) {
	i := sort.Search(len(d.pairs), func(i int) bool { return d.pairs[i].Attr >= attr })
	if i < len(d.pairs) && d.pairs[i].Attr == attr {
		return d.pairs[i].Val, true
	}
	return "", false
}

// Lookup returns the human-readable value for attr (the decoded form
// of the canonical encoding) and whether it is present. Use Get when
// comparing values across documents; use Lookup for display and
// application logic on the value's content.
func (d Document) Lookup(attr string) (string, bool) {
	v, ok := d.Get(attr)
	if !ok {
		return "", false
	}
	return DecodeValueString(v), true
}

// Has reports whether the document contains the exact pair p.
func (d Document) Has(p Pair) bool {
	v, ok := d.Get(p.Attr)
	return ok && v == p.Val
}

// HasAttr reports whether the document contains attribute attr with any
// value.
func (d Document) HasAttr(attr string) bool {
	_, ok := d.Get(attr)
	return ok
}

// String renders the document as {a:v, b:w, ...} with a leading id.
func (d Document) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "d%d{", d.ID)
	for i, p := range d.pairs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Equal reports whether two documents hold exactly the same pair set
// (IDs are ignored).
func (d Document) Equal(o Document) bool {
	if len(d.pairs) != len(o.pairs) {
		return false
	}
	for i, p := range d.pairs {
		if o.pairs[i] != p {
			return false
		}
	}
	return true
}

// Relation classifies how two documents relate under natural-join
// semantics.
type Relation int

const (
	// RelDisjoint means the documents share no attribute at all; the
	// paper excludes such pairs from the join result.
	RelDisjoint Relation = iota
	// RelJoinable means the documents share at least one identical
	// attribute-value pair and have no conflicting attribute.
	RelJoinable
	// RelConflicting means at least one shared attribute carries
	// different values.
	RelConflicting
	// RelAttrOnly means the documents share attributes but not a
	// single identical pair, without conflicts. This cannot occur for
	// exact-equality semantics (a shared attribute either matches,
	// making the pair shared, or conflicts), so it is unreachable; it
	// exists to make the classification total and future-proof.
	RelAttrOnly
)

// Classify performs a single merge pass over both sorted pair sets and
// returns the relation together with the number of shared pairs.
//
// When both documents carry symbols of the same epoch, shared
// attributes and values are detected by integer equality; the string
// comparison is only consulted to steer the merge cursor when the
// attributes differ. Within one epoch the symbol tables are bijective,
// so attribute IDs are equal exactly when the attribute strings are —
// the two paths classify identically (fuzz-checked in fuzz_test.go).
func Classify(a, b Document) (Relation, int) {
	shared := 0
	sharedAttr := false
	i, j := 0, 0
	ap, bp := a.pairs, b.pairs
	if as, bs := a.syms, b.syms; as != nil && bs != nil && a.epoch == b.epoch {
		for i < len(ap) && j < len(bp) {
			sa, sb := as[i], bs[j]
			if sa.Attr() == sb.Attr() {
				sharedAttr = true
				if sa != sb {
					return RelConflicting, shared
				}
				shared++
				i++
				j++
				continue
			}
			if ap[i].Attr < bp[j].Attr {
				i++
			} else {
				j++
			}
		}
		return classifyTail(shared, sharedAttr)
	}
	for i < len(ap) && j < len(bp) {
		switch {
		case ap[i].Attr < bp[j].Attr:
			i++
		case ap[i].Attr > bp[j].Attr:
			j++
		default:
			sharedAttr = true
			if ap[i].Val != bp[j].Val {
				return RelConflicting, shared
			}
			shared++
			i++
			j++
		}
	}
	return classifyTail(shared, sharedAttr)
}

func classifyTail(shared int, sharedAttr bool) (Relation, int) {
	switch {
	case shared > 0:
		return RelJoinable, shared
	case sharedAttr:
		return RelAttrOnly, shared
	default:
		return RelDisjoint, shared
	}
}

// Joinable reports whether two documents are part of the natural join
// result: they share at least one attribute-value pair and no attribute
// they have in common carries conflicting values.
func Joinable(a, b Document) bool {
	r, _ := Classify(a, b)
	return r == RelJoinable
}

// SharedPairs returns the number of identical attribute-value pairs the
// two documents have in common, or -1 when they conflict.
func SharedPairs(a, b Document) int {
	r, n := Classify(a, b)
	if r == RelConflicting {
		return -1
	}
	return n
}

// Merge produces the natural-join output document for two joinable
// documents: the union of their pairs. The resulting document carries
// the supplied id. Merge panics if the inputs conflict, since callers
// must only merge documents that passed the join test.
//
// When both inputs carry symbols of the same epoch, the merge runs on
// integer attribute IDs and the output document inherits its symbols
// from the inputs without touching the intern tables.
//
// The output slices are sized exactly (len == cap): merged results are
// what a consumer retains, so they carry no slack for the collector to
// scan. That costs one counting walk over the attributes first.
func Merge(id uint64, a, b Document) Document {
	i, j := 0, 0
	ap, bp := a.pairs, b.pairs
	n := len(ap) + len(bp) - sharedAttrs(ap, bp)
	merged := make([]Pair, 0, n)
	if as, bs := a.syms, b.syms; as != nil && bs != nil && a.epoch == b.epoch {
		msyms := make([]symbol.Pair, 0, n)
		for i < len(ap) && j < len(bp) {
			sa, sb := as[i], bs[j]
			if sa.Attr() == sb.Attr() {
				if sa != sb {
					panic(fmt.Sprintf("document: Merge on conflicting documents %v and %v", a, b))
				}
				merged = append(merged, ap[i])
				msyms = append(msyms, sa)
				i++
				j++
				continue
			}
			if ap[i].Attr < bp[j].Attr {
				merged = append(merged, ap[i])
				msyms = append(msyms, sa)
				i++
			} else {
				merged = append(merged, bp[j])
				msyms = append(msyms, sb)
				j++
			}
		}
		merged = append(merged, ap[i:]...)
		msyms = append(msyms, as[i:]...)
		merged = append(merged, bp[j:]...)
		msyms = append(msyms, bs[j:]...)
		return Document{ID: id, pairs: merged, syms: msyms, epoch: a.epoch}
	}
	for i < len(ap) && j < len(bp) {
		switch {
		case ap[i].Attr < bp[j].Attr:
			merged = append(merged, ap[i])
			i++
		case ap[i].Attr > bp[j].Attr:
			merged = append(merged, bp[j])
			j++
		default:
			if ap[i].Val != bp[j].Val {
				panic(fmt.Sprintf("document: Merge on conflicting documents %v and %v", a, b))
			}
			merged = append(merged, ap[i])
			i++
			j++
		}
	}
	merged = append(merged, ap[i:]...)
	merged = append(merged, bp[j:]...)
	// The mixed-epoch path re-interns so the output is well-formed
	// under the current epoch.
	return newFromSortedUnique(id, merged)
}

// sharedAttrs counts the attributes two attribute-sorted pair lists
// have in common.
func sharedAttrs(ap, bp []Pair) int {
	n, i, j := 0, 0, 0
	for i < len(ap) && j < len(bp) {
		switch c := strings.Compare(ap[i].Attr, bp[j].Attr); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
