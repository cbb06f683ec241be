package document

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Parse decodes a single JSON object into a Document with the given id.
//
// Nested objects are flattened into dotted attribute paths
// ("nested_obj.str"), matching the flat attribute-value pair model the
// paper assumes; arrays are kept as one opaque canonical value so that
// join equality applies to the array as a whole.
func Parse(id uint64, data []byte) (Document, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw map[string]any
	if err := dec.Decode(&raw); err != nil {
		return Document{}, fmt.Errorf("document: parse: %w", err)
	}
	pairs := make([]Pair, 0, len(raw))
	pairs = flattenObject("", raw, pairs)
	return New(id, pairs), nil
}

// MustParse is Parse for trusted literals in tests and examples.
func MustParse(id uint64, data string) Document {
	d, err := Parse(id, []byte(data))
	if err != nil {
		panic(err)
	}
	return d
}

func flattenObject(prefix string, obj map[string]any, pairs []Pair) []Pair {
	for k, v := range obj {
		attr := k
		if prefix != "" {
			attr = prefix + "." + k
		}
		pairs = flattenValue(attr, v, pairs)
	}
	return pairs
}

func flattenValue(attr string, v any, pairs []Pair) []Pair {
	switch x := v.(type) {
	case map[string]any:
		return flattenObject(attr, x, pairs)
	case []any:
		return append(pairs, Pair{Attr: attr, Val: EncodeArrayJSON(compactJSON(x))})
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return append(pairs, Pair{Attr: attr, Val: EncodeInt(i)})
		}
		if f, err := x.Float64(); err == nil {
			return append(pairs, Pair{Attr: attr, Val: EncodeFloat(f)})
		}
		// The literal does not fit a float64 (e.g. 1e999): keep the
		// raw number text so equality and JSON round-trips still work.
		return append(pairs, Pair{Attr: attr, Val: "n" + x.String()})
	default:
		return append(pairs, Pair{Attr: attr, Val: EncodeValue(v)})
	}
}

// compactJSON serialises a decoded JSON value deterministically:
// encoding/json already sorts map keys, so equal arrays always produce
// equal strings.
func compactJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}

// ParseStream decodes a stream of newline- or whitespace-separated JSON
// objects, assigning ids sequentially starting at firstID.
func ParseStream(firstID uint64, data []byte) ([]Document, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var docs []Document
	id := firstID
	for dec.More() {
		var raw map[string]any
		if err := dec.Decode(&raw); err != nil {
			return docs, fmt.Errorf("document: parse stream at doc %d: %w", id, err)
		}
		pairs := flattenObject("", raw, nil)
		docs = append(docs, New(id, pairs))
		id++
	}
	return docs, nil
}

// AttrStats summarises how attributes occur across a document batch:
// in how many documents each attribute appears, and how many distinct
// values it carries. Both drive the FP-tree global ordering and the
// attribute-expansion heuristics.
type AttrStats struct {
	DocCount  map[string]int
	Distinct  map[string]int
	TotalDocs int

	values map[string]map[string]struct{}
}

// CollectAttrStats scans a batch of documents.
func CollectAttrStats(docs []Document) *AttrStats {
	s := &AttrStats{
		DocCount:  make(map[string]int),
		Distinct:  make(map[string]int),
		TotalDocs: len(docs),
		values:    make(map[string]map[string]struct{}),
	}
	for _, d := range docs {
		for _, p := range d.Pairs() {
			s.DocCount[p.Attr]++
			vs := s.values[p.Attr]
			if vs == nil {
				vs = make(map[string]struct{})
				s.values[p.Attr] = vs
			}
			vs[p.Val] = struct{}{}
		}
	}
	for a, vs := range s.values {
		s.Distinct[a] = len(vs)
	}
	return s
}

// Ubiquitous returns the attributes present in every document of the
// batch, sorted by the global ordering (see Order).
func (s *AttrStats) Ubiquitous() []string {
	var out []string
	for a, c := range s.DocCount {
		if c == s.TotalDocs && s.TotalDocs > 0 {
			out = append(out, a)
		}
	}
	s.sortByOrder(out)
	return out
}

// Order returns all attributes in the paper's fixed global ordering:
// descending document frequency, ties broken by ascending number of
// distinct values, final tie broken lexicographically for determinism.
func (s *AttrStats) Order() []string {
	out := make([]string, 0, len(s.DocCount))
	for a := range s.DocCount {
		out = append(out, a)
	}
	s.sortByOrder(out)
	return out
}

func (s *AttrStats) sortByOrder(attrs []string) {
	sort.Slice(attrs, func(i, j int) bool {
		ai, aj := attrs[i], attrs[j]
		if s.DocCount[ai] != s.DocCount[aj] {
			return s.DocCount[ai] > s.DocCount[aj]
		}
		if s.Distinct[ai] != s.Distinct[aj] {
			return s.Distinct[ai] < s.Distinct[aj]
		}
		return ai < aj
	})
}
