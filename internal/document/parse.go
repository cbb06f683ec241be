package document

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"unicode/utf8"

	"repro/internal/symbol"
)

// Parse decodes a single JSON object into a Document with the given id.
//
// Nested objects are flattened into dotted attribute paths
// ("nested_obj.str"), matching the flat attribute-value pair model the
// paper assumes; arrays are kept as one opaque canonical value so that
// join equality applies to the array as a whole. When two members
// flatten to the same path ({"a":{"b":1},"a.b":2}) the last one in
// input order wins; a repeated key replaces the earlier member and
// everything under it, as in encoding/json. Only an object is a
// document, and nothing but whitespace may follow it.
//
// The document is built in one pass over the bytes and is born
// interned: every attribute and canonical value is looked up in the
// symbol tables straight from the input, and the document's strings
// are the tables' own. The pairs scanned before a syntax error stay
// interned: a rejected document can grow the tables by what a valid
// prefix of it would have.
func Parse(id uint64, data []byte) (Document, error) {
	p := parsers.Get().(*parser)
	defer parsers.Put(p)
	return p.parse(id, data)
}

// MustParse is Parse for trusted literals in tests and examples.
func MustParse(id uint64, data string) Document {
	d, err := Parse(id, []byte(data))
	if err != nil {
		panic(err)
	}
	return d
}

// ParseStream decodes a stream of newline- or whitespace-separated JSON
// objects, assigning ids sequentially starting at firstID.
func ParseStream(firstID uint64, data []byte) ([]Document, error) {
	p := parsers.Get().(*parser)
	defer parsers.Put(p)
	p.data, p.pos = data, 0
	defer func() { p.data = nil }()
	var docs []Document
	for id := firstID; ; id++ {
		p.skipSpace()
		if p.pos == len(p.data) {
			return docs, nil
		}
		d, err := p.document(id)
		if err != nil {
			return docs, fmt.Errorf("document: parse stream at doc %d: %w", id, err)
		}
		docs = append(docs, d)
	}
}

// maxDepth is encoding/json's nesting limit, kept so that the same
// inputs are accepted.
const maxDepth = 10000

// errIrregular aborts the fast pass over a document whose members are
// not in strictly ascending order, at some level or once flattened:
// only then can a key repeat or two paths collide, and the careful pass
// sorts that out.
var errIrregular = errors.New("document: members not in ascending order")

// parser is the scanner's working memory; it is pooled, and nothing it
// holds survives into a Document.
type parser struct {
	data  []byte
	pos   int
	depth int
	slow  int // values handed to encoding/json (escapes, invalid UTF-8, non-compact arrays)

	path  []byte // dotted path of the member being read
	val   []byte // canonical encoding of the value being read
	epoch uint64
	pairs []Pair
	syms  []symbol.Pair

	// The careful pass records every member as a node and every pair's
	// member, to find out afterwards which pairs a repeated key
	// replaced.
	careful bool
	nodes   []member
	owner   []int32
}

// member is one key of one object in the careful pass.
type member struct {
	parent   int32 // the member whose value is the enclosing object; -1 at the top
	replaced bool  // a later member of the same object has the same key
}

var parsers = sync.Pool{New: func() any { return new(parser) }}

func (p *parser) parse(id uint64, data []byte) (Document, error) {
	p.data, p.pos, p.slow = data, 0, 0
	defer func() { p.data = nil }()
	p.skipSpace()
	d, err := p.document(id)
	if err == nil {
		if p.skipSpace(); p.pos < len(p.data) {
			err = p.errorf("unexpected %q after the document", p.data[p.pos])
		}
	}
	if err != nil {
		return Document{}, fmt.Errorf("document: parse: %w", err)
	}
	return d, nil
}

// document reads the object at p.pos.
func (p *parser) document(id uint64) (Document, error) {
	if p.peek() != '{' {
		if p.pos == len(p.data) {
			return Document{}, p.errorf("unexpected end of JSON input")
		}
		return Document{}, p.errorf("only a JSON object is a document, found %q", p.data[p.pos])
	}
	start, slow := p.pos, p.slow
	p.begin(false)
	err := p.object(-1)
	if err == errIrregular {
		p.pos, p.slow = start, slow
		p.begin(true)
		if err = p.object(-1); err == nil {
			p.settle()
		}
	}
	if err != nil {
		return Document{}, err
	}
	if len(p.pairs) == 0 {
		return Document{ID: id, pairs: []Pair{}}, nil
	}
	// Exact-size copies: the document is what a window retains.
	d := Document{ID: id, pairs: make([]Pair, len(p.pairs)), syms: make([]symbol.Pair, len(p.syms)), epoch: p.epoch}
	copy(d.pairs, p.pairs)
	copy(d.syms, p.syms)
	return d, nil
}

func (p *parser) begin(careful bool) {
	p.careful = careful
	p.depth = 0
	p.path, p.pairs, p.syms = p.path[:0], p.pairs[:0], p.syms[:0]
	p.nodes, p.owner = p.nodes[:0], p.owner[:0]
	// Read before interning: if a (quiesce-only) symbol.Reset races with
	// construction, the stored epoch is already stale and every symbol
	// fast path safely falls back to strings.
	p.epoch = symbol.Epoch()
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf(format+" at offset %d", append(args, p.pos)...)
}

func (p *parser) peek() byte {
	if p.pos < len(p.data) {
		return p.data[p.pos]
	}
	return 0
}

// skipSpace moves past JSON whitespace and reports whether there was any.
func (p *parser) skipSpace() bool {
	start := p.pos
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return p.pos > start
		}
	}
	return p.pos > start
}

// expect consumes c or fails.
func (p *parser) expect(c byte) error {
	if p.peek() != c {
		if p.pos == len(p.data) {
			return p.errorf("unexpected end of JSON input")
		}
		return p.errorf("expected %q, found %q", c, p.data[p.pos])
	}
	p.pos++
	return nil
}

func (p *parser) enter() error {
	if p.depth++; p.depth > maxDepth {
		return p.errorf("exceeded max depth")
	}
	return nil
}

// object reads the object at p.pos, whose members' paths extend p.path,
// and emits a pair for every scalar or array below it. parent is the
// member the object is the value of.
func (p *parser) object(parent int32) error {
	if err := p.enter(); err != nil {
		return err
	}
	defer func() { p.depth-- }()
	p.pos++ // '{'
	if p.skipSpace(); p.peek() == '}' {
		p.pos++
		return nil
	}
	base := len(p.path)
	if base > 0 {
		p.path = append(p.path, '.')
	}
	keyStart := len(p.path)
	prevEnd := keyStart // p.path[keyStart:prevEnd] is the previous key
	first := true
	var seen map[string]int32
	if p.careful {
		seen = make(map[string]int32)
	}
	for {
		if p.peek() != '"' {
			return p.expect('"')
		}
		// The key is decoded behind the previous one, compared, and
		// moved down over it.
		var err error
		if p.path, err = p.str(p.path[:prevEnd]); err != nil {
			return err
		}
		key := p.path[prevEnd:]
		if !p.careful && !first && bytes.Compare(p.path[keyStart:prevEnd], key) >= 0 {
			return errIrregular
		}
		first = false
		prevEnd = keyStart + copy(p.path[keyStart:], key)
		p.path = p.path[:prevEnd]

		node := parent
		if p.careful {
			node = int32(len(p.nodes))
			p.nodes = append(p.nodes, member{parent: parent})
			if prev, dup := seen[string(p.path[keyStart:])]; dup {
				p.nodes[prev].replaced = true
			}
			seen[string(p.path[keyStart:])] = node
		}
		p.skipSpace()
		if err := p.expect(':'); err != nil {
			return err
		}
		p.skipSpace()
		if err := p.value(node); err != nil {
			return err
		}
		p.skipSpace()
		if p.peek() == '}' {
			p.pos++
			p.path = p.path[:base]
			return nil
		}
		if err := p.expect(','); err != nil {
			return err
		}
		p.skipSpace()
	}
}

// value reads the value of the member at p.path: an object recurses,
// anything else becomes one pair.
func (p *parser) value(node int32) error {
	var err error
	switch c := p.peek(); {
	case c == '{':
		return p.object(node)
	case c == '"':
		p.val, err = p.str(append(p.val[:0], 's'))
	case c == '[':
		err = p.array()
	case c == '-' || (c >= '0' && c <= '9'):
		var lit []byte
		if lit, err = p.number(); err == nil {
			p.val = appendNumber(p.val[:0], lit)
		}
	case c == 't':
		p.val, err = append(p.val[:0], "btrue"...), p.literal("true")
	case c == 'f':
		p.val, err = append(p.val[:0], "bfalse"...), p.literal("false")
	case c == 'n':
		p.val, err = append(p.val[:0], 'z'), p.literal("null")
	case p.pos == len(p.data):
		err = p.errorf("unexpected end of JSON input")
	default:
		err = p.errorf("invalid character %q looking for beginning of value", c)
	}
	if err != nil {
		return err
	}
	if !p.careful && len(p.pairs) > 0 && p.pairs[len(p.pairs)-1].Attr >= string(p.path) {
		return errIrregular
	}
	aid, attr := symbol.InternAttrBytes(p.path)
	vid, val := symbol.InternValBytes(p.val)
	p.pairs = append(p.pairs, Pair{Attr: attr, Val: val})
	p.syms = append(p.syms, symbol.MakePair(aid, vid))
	if p.careful {
		p.owner = append(p.owner, node)
	}
	return nil
}

// settle ends the careful pass: it drops the pairs of replaced members,
// sorts by attribute and lets the last pair in input order win a path.
func (p *parser) settle() {
	for i := range p.nodes { // parents precede their members
		if par := p.nodes[i].parent; par >= 0 && p.nodes[par].replaced {
			p.nodes[i].replaced = true
		}
	}
	n := 0
	for i, o := range p.owner {
		if !p.nodes[o].replaced {
			p.pairs[n], p.syms[n] = p.pairs[i], p.syms[i]
			n++
		}
	}
	s := pairSorter{p.pairs[:n], p.syms[:n]}
	sort.Stable(s)
	n = 0
	for i := range s.pairs {
		if n > 0 && s.pairs[n-1].Attr == s.pairs[i].Attr {
			n--
		}
		s.pairs[n], s.syms[n] = s.pairs[i], s.syms[i]
		n++
	}
	p.pairs, p.syms = p.pairs[:n], p.syms[:n]
}

// pairSorter orders pairs and their symbols together, by attribute.
type pairSorter struct {
	pairs []Pair
	syms  []symbol.Pair
}

func (s pairSorter) Len() int           { return len(s.pairs) }
func (s pairSorter) Less(i, j int) bool { return s.pairs[i].Attr < s.pairs[j].Attr }
func (s pairSorter) Swap(i, j int) {
	s.pairs[i], s.pairs[j] = s.pairs[j], s.pairs[i]
	s.syms[i], s.syms[j] = s.syms[j], s.syms[i]
}

// scanString moves past the string literal at p.pos and returns what is
// between the quotes. escaped: it contains a backslash; ascii: every
// byte is below 0x80. Escape sequences are not checked here.
func (p *parser) scanString() (raw []byte, escaped, ascii bool, err error) {
	ascii = true
	for i := p.pos + 1; i < len(p.data); i++ {
		switch c := p.data[i]; {
		case c == '"':
			raw = p.data[p.pos+1 : i]
			p.pos = i + 1
			return raw, escaped, ascii, nil
		case c == '\\':
			escaped = true
			i++
		case c < 0x20:
			p.pos = i
			return nil, false, false, p.errorf("invalid character %q in string literal", c)
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	p.pos = len(p.data)
	return nil, false, false, p.errorf("unexpected end of JSON input")
}

// str reads the string at p.pos and appends its content to dst. A
// string with escapes or invalid UTF-8 is decoded by encoding/json, so
// its rules (\uXXXX, surrogate pairs, U+FFFD) apply unchanged.
func (p *parser) str(dst []byte) ([]byte, error) {
	start := p.pos
	raw, escaped, ascii, err := p.scanString()
	if err != nil {
		return dst, err
	}
	if !escaped && (ascii || utf8.Valid(raw)) {
		return append(dst, raw...), nil
	}
	p.slow++
	var s string
	if err := json.Unmarshal(p.data[start:p.pos], &s); err != nil {
		p.pos = start
		return dst, p.errorf("%v in string", err)
	}
	return append(dst, s...), nil
}

// number moves past the number at p.pos and returns the literal.
func (p *parser) number() ([]byte, error) {
	start := p.pos
	digits := func() bool {
		from := p.pos
		for c := p.peek(); c >= '0' && c <= '9'; c = p.peek() {
			p.pos++
		}
		return p.pos > from
	}
	if p.peek() == '-' {
		p.pos++
	}
	if p.peek() == '0' {
		p.pos++
	} else if !digits() {
		return nil, p.errorf("invalid character in numeric literal")
	}
	if p.peek() == '.' {
		if p.pos++; !digits() {
			return nil, p.errorf("invalid character after decimal point in numeric literal")
		}
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		p.pos++
		if c := p.peek(); c == '+' || c == '-' {
			p.pos++
		}
		if !digits() {
			return nil, p.errorf("invalid character in exponent of numeric literal")
		}
	}
	return p.data[start:p.pos], nil
}

func (p *parser) literal(word string) error {
	if !bytes.HasPrefix(p.data[p.pos:], []byte(word)) {
		return p.errorf("invalid literal, expected %s", word)
	}
	p.pos += len(word)
	return nil
}

// array reads the array at p.pos into p.val. Its bytes are kept as they
// are when they already are what json.Marshal writes for the array's
// UseNumber decoding; otherwise encoding/json re-serialises it.
func (p *parser) array() error {
	start := p.pos
	verbatim, err := p.skip()
	if err != nil {
		return err
	}
	raw := p.data[start:p.pos]
	p.val = append(p.val[:0], 'j')
	if verbatim {
		p.val = append(p.val, raw...)
		return nil
	}
	p.slow++
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		p.pos = start
		return p.errorf("%v in array", err)
	}
	compact, err := compactJSON(v)
	if err != nil {
		return err
	}
	p.val = append(p.val, compact...)
	return nil
}

// skip checks the syntax of the value at p.pos and moves past it
// (escape sequences excepted: a value with one is never verbatim, and
// encoding/json then checks it). verbatim reports that the bytes are
// json.Marshal's compact form of the value: no whitespace, no object
// (Marshal sorts keys), strings of plain ASCII that HTML escaping
// leaves alone. Numbers are verbatim by definition: a json.Number
// marshals as its literal.
func (p *parser) skip() (verbatim bool, err error) {
	switch c := p.peek(); {
	case c == '"':
		raw, escaped, ascii, err := p.scanString()
		return !escaped && ascii && !bytes.ContainsAny(raw, "<>&"), err
	case c == '-' || (c >= '0' && c <= '9'):
		_, err := p.number()
		return true, err
	case c == 't':
		return true, p.literal("true")
	case c == 'f':
		return true, p.literal("false")
	case c == 'n':
		return true, p.literal("null")
	case c == '[' || c == '{':
		if err := p.enter(); err != nil {
			return false, err
		}
		defer func() { p.depth-- }()
		closer := c + 2 // ']' after '[', '}' after '{'
		verbatim = c == '['
		p.pos++
		if p.skipSpace() {
			verbatim = false
		}
		if p.peek() == closer {
			p.pos++
			return verbatim, nil
		}
		for {
			if c == '{' {
				if p.peek() != '"' {
					return false, p.expect('"')
				}
				if _, _, _, err := p.scanString(); err != nil {
					return false, err
				}
				p.skipSpace()
				if err := p.expect(':'); err != nil {
					return false, err
				}
				p.skipSpace()
			}
			v, err := p.skip()
			if err != nil {
				return false, err
			}
			spaced := p.skipSpace()
			verbatim = verbatim && v && !spaced
			if p.peek() == closer {
				p.pos++
				return verbatim, nil
			}
			if err := p.expect(','); err != nil {
				return false, err
			}
			if p.skipSpace() {
				verbatim = false
			}
		}
	case p.pos == len(p.data):
		return false, p.errorf("unexpected end of JSON input")
	default:
		return false, p.errorf("invalid character %q looking for beginning of value", c)
	}
}

// compactJSON serialises a decoded JSON value deterministically:
// encoding/json already sorts map keys, so equal arrays always produce
// equal strings.
func compactJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("document: re-serialise array: %w", err)
	}
	return b, nil
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
