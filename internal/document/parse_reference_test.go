package document

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/symbol"
)

// This file keeps the previous Parse — encoding/json into map[string]any,
// then a recursive flatten — as the reference the one-pass scanner is
// checked against, on generated documents here and on arbitrary bytes in
// FuzzParse. The two must agree on the error, the pairs, the symbols
// and the marshalled bytes, with four sanctioned differences, each of
// them a defect of the reference (see TestParseEdgeCases):
//
//	(a) integers at ±2^63: the shared EncodeFloat is fixed, so the two
//	    agree again; the table test pins the values.
//	(b) colliding flattened paths: the reference's answer depends on
//	    map iteration order, the scanner's is the last in input order.
//	(c) trailing input after the object: the reference ignores it.
//	(d) a top-level null: the reference reads an empty document.

// reference is the outcome of the previous parser on one input.
type reference struct {
	doc      Document
	raw      []Pair // flattened pairs before New sorted and de-duplicated them
	trailing bool   // non-whitespace follows the first value
	null     bool   // the first value is null
}

func referenceParse(id uint64, data []byte) (reference, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw map[string]any
	if err := dec.Decode(&raw); err != nil {
		return reference{}, fmt.Errorf("document: parse: %w", err)
	}
	pairs := referenceFlattenObject("", raw, make([]Pair, 0, len(raw)))
	rest := data[dec.InputOffset():]
	return reference{
		doc:      New(id, pairs),
		raw:      pairs,
		trailing: len(bytes.TrimLeft(rest, " \t\r\n")) > 0,
		null:     raw == nil,
	}, nil
}

func referenceFlattenObject(prefix string, obj map[string]any, pairs []Pair) []Pair {
	for k, v := range obj {
		attr := k
		if prefix != "" {
			attr = prefix + "." + k
		}
		pairs = referenceFlattenValue(attr, v, pairs)
	}
	return pairs
}

func referenceFlattenValue(attr string, v any, pairs []Pair) []Pair {
	switch x := v.(type) {
	case map[string]any:
		return referenceFlattenObject(attr, x, pairs)
	case []any:
		b, err := json.Marshal(x)
		if err != nil {
			panic(err)
		}
		return append(pairs, Pair{Attr: attr, Val: EncodeArrayJSON(string(b))})
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

// checkAgainstReference parses data both ways and fails the test on any
// difference that is not sanctioned. It returns the scanner's document
// and error for further checks.
func checkAgainstReference(t testing.TB, data []byte) (Document, error) {
	t.Helper()
	got, err := Parse(7, data)
	ref, refErr := referenceParse(7, data)
	switch {
	case refErr != nil:
		if err == nil {
			t.Fatalf("Parse accepted %q, the reference refuses it: %v", data, refErr)
		}
		return got, err
	case ref.trailing || ref.null: // (c), (d)
		if err == nil {
			t.Fatalf("Parse accepted %q (trailing input: %v, top-level null: %v)", data, ref.trailing, ref.null)
		}
		return got, err
	case err != nil:
		t.Fatalf("Parse refused %q, the reference accepts it: %v", data, err)
	}

	// (b): where raw paths collide the reference picked by map order.
	// The scanner's pick must be one of the candidates; everything else
	// must match exactly.
	candidates := make(map[string][]string)
	for _, p := range ref.raw {
		candidates[p.Attr] = append(candidates[p.Attr], p.Val)
	}
	want := ref.doc.Pairs()
	if len(got.Pairs()) != len(want) {
		t.Fatalf("Parse(%q) = %v, reference %v", data, got, ref.doc)
	}
	collided := false
	for i, p := range got.Pairs() {
		if vals := candidates[p.Attr]; len(vals) > 1 {
			collided = true
			if p.Attr != want[i].Attr || !slices.Contains(vals, p.Val) {
				t.Fatalf("Parse(%q): pair %d = %v, reference candidates %q", data, i, p, vals)
			}
			continue
		}
		if p != want[i] {
			t.Fatalf("Parse(%q): pair %d = %v, reference %v", data, i, p, want[i])
		}
	}
	syms, epoch := got.Syms()
	if epoch != symbol.Epoch() || len(syms) != len(got.Pairs()) {
		t.Fatalf("Parse(%q): %d symbols under epoch %d for %d pairs under epoch %d", data, len(syms), epoch, len(got.Pairs()), symbol.Epoch())
	}
	for i, p := range got.Pairs() {
		if s, ok := symbol.LookupPair(p.Attr, p.Val); !ok || s != syms[i] {
			t.Fatalf("Parse(%q): symbol %d = %v, the tables hold %v (%v) for %v", data, i, syms[i], s, ok, p)
		}
	}
	if !collided {
		refSyms, _ := ref.doc.Syms()
		for i := range syms {
			if syms[i] != refSyms[i] {
				t.Fatalf("Parse(%q): symbol %d = %v, reference %v", data, i, syms[i], refSyms[i])
			}
		}
		gotJSON, _ := got.MarshalJSON()
		refJSON, _ := ref.doc.MarshalJSON()
		if !bytes.Equal(gotJSON, refJSON) {
			t.Fatalf("Parse(%q) marshals to %s, reference %s", data, gotJSON, refJSON)
		}
	}
	return got, nil
}

// jsonGen writes random JSON text — not json.Marshal's spelling of
// random values: the spelling is what the scanner has to get right.
type jsonGen struct {
	rng *rand.Rand
	b   strings.Builder
}

var genKeys = []string{
	"a", "b", "c", "a.b", "a.c", "b.a", "a!", "", "User", "Severity", "nested_obj", "str", "num",
	"ké", "k ", "<k>", "k&", `k\"q`, `k\\`, "k\\u0041", "\\ud83d\\ude00", "\\ud800", "k\xff", "k\xc3",
}

var genStrings = []string{
	"", "x", "hello world", "GROUP_7", "/srv/data/user33-file0.dat", "<b>&amp;</b>", "a b c", "é世界", "\U0001F600", " ", " ",
	`q\"uote`, `back\\slash`, `sl\/ash`, `\b\f\n\r\t`, "\\u2028", "\\u0000", "\\u00e9", "\\u0020", "\\ud83d\\ude00", "\\ud800", "\\udc00x", "\\ud800\\u0041",
	"\xff", "a\xc3", "\xe2\x82", "\xed\xa0\x80", "ok\x7f",
}

var genNumbers = []string{
	"0", "-0", "1", "-1", "42", "2.0", "2.5", "-0.0", "1e2", "1E2", "1e+2", "1e-2", "1.5e3", "0.1", "100", "1e0",
	"9223372036854775807", "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
	"1234567890123456789", "12345678901234567890", "999999999999999999", "1000000000000000000",
	"1e308", "1e309", "1e999", "-1e999", "1e-999", "4.9e-324", "123456789012345678901234567890", "0.30000000000000004", "1.0000000000000002",
}

func (g *jsonGen) space() {
	if g.rng.Intn(6) == 0 {
		g.b.WriteString([]string{" ", "\n", "\t", "\r\n", "  "}[g.rng.Intn(5)])
	}
}

func (g *jsonGen) str(from []string) {
	g.b.WriteByte('"')
	g.b.WriteString(from[g.rng.Intn(len(from))])
	g.b.WriteByte('"')
}

func (g *jsonGen) value(depth int) {
	switch n := g.rng.Intn(12); {
	case n < 3:
		g.str(genStrings)
	case n < 6:
		g.b.WriteString(genNumbers[g.rng.Intn(len(genNumbers))])
	case n == 6:
		g.b.WriteString([]string{"true", "false", "null"}[g.rng.Intn(3)])
	case n < 9 && depth < 5:
		g.object(depth + 1)
	case n < 11 && depth < 5:
		g.b.WriteByte('[')
		g.space()
		for i, m := 0, g.rng.Intn(4); i < m; i++ {
			if i > 0 {
				g.b.WriteByte(',')
				g.space()
			}
			g.value(depth + 1)
			g.space()
		}
		g.b.WriteByte(']')
	default:
		g.str(genStrings)
	}
}

func (g *jsonGen) object(depth int) {
	g.b.WriteByte('{')
	g.space()
	keys := make([]string, g.rng.Intn(5))
	for i := range keys {
		keys[i] = genKeys[g.rng.Intn(len(genKeys))]
	}
	if g.rng.Intn(2) == 0 { // sorted members are the fast pass, unsorted ones the careful one
		sort.Strings(keys)
	}
	for i, k := range keys {
		if i > 0 {
			g.b.WriteByte(',')
			g.space()
		}
		g.b.WriteByte('"')
		g.b.WriteString(k)
		g.b.WriteByte('"')
		g.space()
		g.b.WriteByte(':')
		g.space()
		g.value(depth)
		g.space()
	}
	g.b.WriteByte('}')
}

// TestParseMatchesReference is the differential property test: random
// documents covering every value tag, nesting, empty containers,
// escapes, HTML characters, U+2028, invalid UTF-8, surrogate halves,
// every number spelling that canonicalises specially, repeated keys and
// colliding paths, in sorted and unsorted member order.
func TestParseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	accepted := 0
	for i := 0; i < n; i++ {
		g := jsonGen{rng: rng}
		g.space()
		g.object(0)
		g.space()
		if _, err := checkAgainstReference(t, []byte(g.b.String())); err == nil {
			accepted++
		}
	}
	if accepted < n*9/10 {
		t.Errorf("only %d of %d generated documents parse; the generator is off", accepted, n)
	}
}

// TestParseMatchesReferenceOnFixedInputs pins the cases a random
// generator reaches rarely or not at all.
func TestParseMatchesReferenceOnFixedInputs(t *testing.T) {
	deep := func(open, close string, n int, inner string) string {
		return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
	}
	inputs := []string{
		`{}`, ` { } `, `{"a":{}}`, `{"a":[]}`, `{"a":[ ]}`, `{"a":[[],[[]],{}]}`, `{"a":[{"z":1,"b":2,"b":3}]}`,
		`{"a":{"b":1},"a":{"c":2}}`, `{"a":{"b":1},"a":5}`, `{"a":5,"a":{"b":1}}`, `{"a":{"b":1},"a.c":1,"a":{"d":2}}`,
		`{"a":{"b":{"c":1}},"x":1,"a":{"b":{"d":2}}}`, `{"a":{"b":1,"b":2,"c":{"d":1},"c":3}}`, `{"dup":1,"dup":2}`,
		`{"a":{"b":1},"a!":1}`, `{"":{"a":1}}`, `{"a":{"":{"b":1}}}`, `{"":1}`, `{"a":{"":1},"a.":2}`,
		`{"b":1,"a":2}`, `{"User":"A","Severity":"Warning","MsgId":2,"nested":{"y":"z","x":1}}`,
		`{"n":1e308,"m":-0.0,"big":9223372036854775807}`, `{"u":"é世界"}`, `{"a":[[[]]]}`, `{"huge":1e999}`,
		`{"a":"<>&"}`, `{"a":["<>&"]}`, `{"a":[" "]}`, `{"a":[1.0,1e2,-0,1E5]}`, `{"a":[1, 2]}`, `{"a":["x" ,"y"]}`,
		`{"a":"😀"}`, `{"a":"\ud83d\ude00"}`, `{"a":"\u00e9\u0000\u2028"}`, `{"a":"\ud800"}`, `{"a":"\ud800\ud800"}`, "{\"a\":\"\xff\"}", "{\"\xff\":1}", "{\"a\":[\"\xff\"]}",
		deep(`{"a":`, `}`, 200, `1`), deep(`[`, `]`, 300, ``),
		`{"a":` + deep(`[`, `]`, maxDepth-1, ``) + `}`, `{"a":` + deep(`[`, `]`, maxDepth, ``) + `}`,
		deep(`{"a":`, `}`, maxDepth, `1`), deep(`{"a":`, `}`, maxDepth+1, `1`),
		// Refused by both.
		``, ` `, `{`, `}`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{,}`, `{"a":1 "b":2}`, `{"a":01}`, `{"a":1.}`, `{"a":.5}`, `{"a":-}`, `{"a":1e}`,
		`{"a":+1}`, `{"a":tru}`, `{"a":nul}`, `{"a":"x}`, "{\"a\":\"\n\"}", `{"a":"\x"}`, `{"a":"\u12"}`, `{"a":[1,]}`, `{"a":[1 2]}`,
		`{"a":[}`, `{"a":[1}`, `{a:1}`, `{'a':1}`, `[1,2]`, `"x"`, `1`, `true`, `{"a":1x}`, `{"a":[tru]}`, `{"a":["\x"]}`, `{"a":{"b":[}}`,
		"\ufeff{}", "{\"a\":1}\x00",
		// Sanctioned: (c) trailing input, (d) top-level null.
		`{"a":1} trailing`, `{"a":1}{"b":2}`, `{"a":1}}`, `{"a":1} 2`, `null`, ` null `,
	}
	for _, in := range inputs {
		checkAgainstReference(t, []byte(in))
	}
}

// TestParseEdgeCases pins the four behaviours that were wrong or silent
// before the one-pass scanner (the sanctioned differences above).
func TestParseEdgeCases(t *testing.T) {
	t.Run("integers at the int64 boundary stay distinct", func(t *testing.T) {
		cases := []struct{ lit, want string }{
			{"9223372036854775807", "i9223372036854775807"},
			{"-9223372036854775808", "i-9223372036854775808"},
			{"9223372036854775808", "n9.223372036854776e+18"},
			{"9223372036854775808.0", "n9.223372036854776e+18"},
			{"-9223372036854775808.0", "i-9223372036854775808"},
			{"-9223372036854775809", "i-9223372036854775808"}, // rounds to -2^63 as a float64, which is an int64
			{"1e19", "n1e+19"},
		}
		for _, c := range cases {
			d := MustParse(1, `{"n":`+c.lit+`}`)
			if got, _ := d.Get("n"); got != c.want {
				t.Errorf("%s encodes as %q, want %q", c.lit, got, c.want)
			}
		}
		if got := EncodeFloat(1 << 63); got != "n9.223372036854776e+18" {
			t.Errorf("EncodeFloat(2^63) = %q", got)
		}
		if Joinable(MustParse(1, `{"n":9223372036854775808}`), MustParse(2, `{"n":-9223372036854775808}`)) {
			t.Error("2^63 and -2^63 join")
		}
	})
	t.Run("last in input order wins a colliding path", func(t *testing.T) {
		cases := []struct{ in, attr, want string }{
			{`{"a":{"b":1},"a.b":2}`, "a.b", "i2"},
			{`{"a.b":2,"a":{"b":1}}`, "a.b", "i1"},
			{`{"a":{"b":{"c":1}},"a.b":{"c":2},"a.b.c":3}`, "a.b.c", "i3"},
			{`{"a.b.c":3,"a.b":{"c":2},"a":{"b":{"c":1}}}`, "a.b.c", "i1"},
			{`{"x":1,"x":2,"x":3}`, "x", "i3"},
		}
		for _, c := range cases {
			for i := 0; i < 20; i++ { // the old answer changed from run to run
				d := MustParse(1, c.in)
				if got, _ := d.Get(c.attr); got != c.want || d.Len() != 1 {
					t.Fatalf("Parse(%s) = %v, want only %s = %s", c.in, d, c.attr, c.want)
				}
			}
		}
	})
	t.Run("trailing input is an error", func(t *testing.T) {
		for _, in := range []string{`{"a":1} trailing`, `{"a":1}{"b":2}`, `{"a":1}}`, `{"a":1},`, `{} null`} {
			if d, err := Parse(1, []byte(in)); err == nil {
				t.Errorf("Parse(%s) = %v, want an error", in, d)
			}
		}
		for _, in := range []string{`{"a":1}`, " {\"a\":1}\r\n", "{\"a\":1}\t \n"} {
			if _, err := Parse(1, []byte(in)); err != nil {
				t.Errorf("Parse(%q): %v", in, err)
			}
		}
		// A stream of concatenated objects is ParseStream's contract.
		docs, err := ParseStream(1, []byte(`{"a":1}{"b":2} {"c":3}`))
		if err != nil || len(docs) != 3 {
			t.Errorf("ParseStream of concatenated objects = %v, %v", docs, err)
		}
	})
	t.Run("only an object is a document", func(t *testing.T) {
		for _, in := range []string{`null`, ` null `, `[]`, `"s"`, `0`, `true`} {
			if d, err := Parse(1, []byte(in)); err == nil {
				t.Errorf("Parse(%s) = %v, want an error", in, d)
			}
			if docs, err := ParseStream(1, []byte(`{"a":1} `+in)); err == nil || len(docs) != 1 {
				t.Errorf("ParseStream with %s = %v, %v; want the first document and an error", in, docs, err)
			}
		}
	})
	t.Run("nesting is bounded by an error", func(t *testing.T) {
		in := strings.Repeat(`{"a":`, 1_000_000)
		if _, err := Parse(1, []byte(in)); err == nil || !strings.Contains(err.Error(), "max depth") {
			t.Errorf("a million open objects: %v", err)
		}
		in = `{"a":` + strings.Repeat(`[`, 1_000_000)
		if _, err := Parse(1, []byte(in)); err == nil || !strings.Contains(err.Error(), "max depth") {
			t.Errorf("a million open arrays: %v", err)
		}
	})
}

// TestParseSlowValues: which values leave the one-pass scanner for
// encoding/json, and that well-formed generated data never does (the
// datasets are checked line by line in datasets_test.go).
func TestParseSlowValues(t *testing.T) {
	cases := []struct {
		in   string
		slow int
	}{
		{`{"a":"plain","b":[1,"x",[true,null]],"c":{"d":2.5}}`, 0},
		{`{"a":"é世界","k\u00e9":1}`, 1}, // valid UTF-8 stays; the escaped key does not
		{`{"a":"é世界","b":"\u00e9"}`, 1},
		{`{"a":"q\"q"}`, 1},
		{"{\"a\":\"\xff\"}", 1},
		{`{"a":[1, 2]}`, 1},
		{`{"a":["<"]}`, 1},
		{`{"a":[{"b":1}]}`, 1},
		{`{"a":["é"]}`, 1},
		{`{"a":"\n","c":1,"b":2}`, 1}, // counted once although the document is read twice (unsorted)
	}
	for _, c := range cases {
		var p parser
		if _, err := p.parse(1, []byte(c.in)); err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if p.slow != c.slow {
			t.Errorf("%s: %d values took the slow path, want %d", c.in, p.slow, c.slow)
		}
	}
}

// TestEncodeJSONValueMatchesParse: a filter value canonicalises exactly
// as the same value inside a document.
func TestEncodeJSONValueMatchesParse(t *testing.T) {
	for _, lit := range append([]string{`"x"`, `true`, `null`, `[1,"a",{"z":1,"b":[2.0]}]`, `[ ]`, `["<"]`}, genNumbers...) {
		dec := json.NewDecoder(strings.NewReader(lit))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		got, err := EncodeJSONValue(v)
		if err != nil {
			t.Fatalf("EncodeJSONValue(%s): %v", lit, err)
		}
		if want, _ := MustParse(1, `{"v":`+lit+`}`).Get("v"); got != want {
			t.Errorf("EncodeJSONValue(%s) = %q, Parse gives %q", lit, got, want)
		}
	}
	if _, err := EncodeJSONValue(map[string]any{"a": 1}); err == nil {
		t.Error("a nested object is not a single value")
	}
	if _, err := EncodeJSONValue(json.Number("12x")); err == nil {
		t.Error("a malformed json.Number must be refused")
	}
}
