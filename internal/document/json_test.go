package document

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// referenceMarshalJSON is Document.MarshalJSON as it was before the
// append-based encoder: one json.Marshal per attribute and per string
// value. It is kept here as the reference the new encoder must match
// byte for byte.
func referenceMarshalJSON(d Document) []byte {
	refString := func(s string) string {
		b, err := json.Marshal(s)
		if err != nil {
			return `""`
		}
		return string(b)
	}
	refValue := func(enc string) string {
		if enc == "" {
			return `""`
		}
		switch enc[0] {
		case 's':
			return refString(enc[1:])
		case 'n', 'i', 'b', 'j':
			return enc[1:]
		case 'z':
			return "null"
		default:
			return refString(enc)
		}
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range d.pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(refString(p.Attr))
		b.WriteByte(':')
		b.WriteString(refValue(p.Val))
	}
	b.WriteByte('}')
	return []byte(b.String())
}

// nastyStrings are the inputs encoding/json treats specially: HTML
// characters, control bytes, the JSONP separators, invalid UTF-8 (a lone
// continuation byte, a truncated sequence, a surrogate half), DEL, and
// the private-use separator of synthetic attributes.
var nastyStrings = []string{
	"", "plain", "<>&", `quote"back\slash`, "\b\f\n\r\t", "\x00\x01\x1f\x7f",
	string(rune(0x2028)) + "x" + string(rune(0x2029)),
	"\xff", "ab\xc3", "\xed\xa0\x80", "\x80tail", "é世界🙂",
	ConcatAttrs("a", "b"), ConcatValues("s1", "i2")[1:],
	"mixed<\xfe>" + string(rune(0x2028)) + "\"end",
}

// nastyValues covers every value tag, the empty value and an unknown
// tag.
func nastyValues() []string {
	vals := []string{
		"", "z", "btrue", "bfalse", "i0", "i-42", "n2.5", "n1e999", "n1e+21",
		`j[1,"two",null]`, `j[]`, `j[{"a":"<"}]`, "xunknown-tag", "s",
	}
	for _, s := range nastyStrings {
		vals = append(vals, EncodeString(s))
	}
	return vals
}

// randomDocs draws two joinable documents: disjoint private attributes
// plus a set of attributes shared with identical values.
func randomDocs(rng *rand.Rand) (a, b Document) {
	vals := nastyValues()
	pick := func(list []string) string { return list[rng.Intn(len(list))] }
	attr := func(prefix string) string { return prefix + pick(nastyStrings) }
	var pa, pb []Pair
	for i, n := 0, rng.Intn(5); i < n; i++ {
		pa = append(pa, Pair{Attr: attr("a"), Val: pick(vals)})
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		pb = append(pb, Pair{Attr: attr("b"), Val: pick(vals)})
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		p := Pair{Attr: attr("s"), Val: pick(vals)}
		pa, pb = append(pa, p), append(pb, p)
	}
	a, b = New(1, pa), New(2, pb)
	// New keeps the last value of a repeated attribute; drawing the same
	// shared attribute twice with different values could therefore leave
	// the two sides in conflict. Redraw instead of special-casing.
	if r, _ := Classify(a, b); r == RelConflicting {
		return randomDocs(rng)
	}
	return a, b
}

// TestAppendJSONMatchesReference: AppendJSON / MarshalJSON and
// AppendMergedJSON produce exactly the bytes of the previous encoder,
// with and without interned symbols, appending after existing content.
func TestAppendJSONMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		a, b := randomDocs(rng)
		for _, d := range []Document{a, b} {
			want := referenceMarshalJSON(d)
			if got := d.AppendJSON(nil); !bytes.Equal(got, want) {
				t.Fatalf("AppendJSON(%v)\n got %s\nwant %s", d, got, want)
			}
			if got, err := d.MarshalJSON(); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("MarshalJSON(%v) = %s, %v\nwant %s", d, got, err, want)
			}
		}
		want := referenceMarshalJSON(Merge(0, a, b))
		if got := AppendMergedJSON(nil, a, b); !bytes.Equal(got, want) {
			t.Fatalf("AppendMergedJSON(%v, %v)\n got %s\nwant %s", a, b, got, want)
		}
		if got := AppendMergedJSON(nil, stripSyms(b), a); !bytes.Equal(got, want) {
			t.Fatalf("AppendMergedJSON swapped/unsymbolised\n got %s\nwant %s", got, want)
		}
		prefix := []byte(`{"merged":`)
		if got := AppendMergedJSON(append([]byte(nil), prefix...), a, b); !bytes.Equal(got, append(prefix, want...)) {
			t.Fatalf("AppendMergedJSON after a prefix\n got %s", got)
		}
	}
}

// TestAppendJSONStringMatchesEncodingJSON pins the escaper to both of
// encoding/json's modes.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range nastyStrings {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString(nil, s, true); !bytes.Equal(got, want) {
			t.Errorf("AppendJSONString(%q, html) = %s, want %s", s, got, want)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		want = bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		if got := AppendJSONString(nil, s, false); !bytes.Equal(got, want) {
			t.Errorf("AppendJSONString(%q, plain) = %s, want %s", s, got, want)
		}
	}
}

// TestValueJSONAndEmptyDocument covers the edges the generator rarely
// hits.
func TestValueJSONAndEmptyDocument(t *testing.T) {
	if got := string(New(1, nil).AppendJSON([]byte("x"))); got != "x{}" {
		t.Errorf("empty document = %q", got)
	}
	if got := string(AppendMergedJSON(nil, New(1, nil), New(2, nil))); got != "{}" {
		t.Errorf("empty merge = %q", got)
	}
	for enc, want := range map[string]string{"": `""`, "z": "null", "s<": "\"\\u003c\"", "i7": "7", "q": `"q"`} {
		if got := ValueJSON(enc); got != want {
			t.Errorf("ValueJSON(%q) = %s, want %s", enc, got, want)
		}
	}
}

// FuzzAppendMergedJSON: for arbitrary attribute and value material, the
// one-walk merged encoding equals the reference encoding of the merged
// document.
func FuzzAppendMergedJSON(f *testing.F) {
	f.Add("a", "1", "b", "<2>", "c", "3", byte('s'))
	f.Add("x", "", "", "\xff", "x", string(rune(0x2028)), byte('j'))
	f.Add("same", "v", "same", "v", "same", "\x01", byte('q'))
	f.Fuzz(func(t *testing.T, a1, v1, a2, v2, a3, v3 string, tag byte) {
		shared := Pair{Attr: a2, Val: EncodeString(v2)}
		a := New(1, []Pair{{Attr: a1, Val: string(tag) + v1}, shared})
		b := New(2, []Pair{{Attr: a3, Val: EncodeString(v3)}, shared})
		if r, _ := Classify(a, b); r == RelConflicting {
			return
		}
		want := referenceMarshalJSON(Merge(0, a, b))
		if got := AppendMergedJSON(nil, a, b); !bytes.Equal(got, want) {
			t.Fatalf("AppendMergedJSON(%v, %v)\n got %s\nwant %s", a, b, got, want)
		}
		if got := a.AppendJSON(nil); !bytes.Equal(got, referenceMarshalJSON(a)) {
			t.Fatalf("AppendJSON(%v) = %s", a, got)
		}
	})
}
