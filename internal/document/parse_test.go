package document

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/symbol"
)

func TestParseScalars(t *testing.T) {
	d, err := Parse(1, []byte(`{"s":"hello","i":42,"f":3.5,"b":true,"z":null}`))
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]string{
		"s": EncodeString("hello"),
		"i": EncodeInt(42),
		"f": EncodeFloat(3.5),
		"b": EncodeBool(true),
		"z": EncodeNull(),
	}
	for attr, want := range checks {
		if got, ok := d.Get(attr); !ok || got != want {
			t.Errorf("Get(%s) = %q,%v; want %q", attr, got, ok, want)
		}
	}
}

func TestParseIntegerFloatEquivalence(t *testing.T) {
	a := MustParse(1, `{"n": 2}`)
	b := MustParse(2, `{"n": 2.0}`)
	if !Joinable(a, b) {
		t.Error("2 and 2.0 must compare equal under canonical encoding")
	}
}

func TestParseNestedObjectFlattening(t *testing.T) {
	d := MustParse(1, `{"nested_obj":{"str":"x","num":7},"top":"y"}`)
	if v, ok := d.Get("nested_obj.str"); !ok || v != EncodeString("x") {
		t.Errorf("nested_obj.str = %q,%v", v, ok)
	}
	if v, ok := d.Get("nested_obj.num"); !ok || v != EncodeInt(7) {
		t.Errorf("nested_obj.num = %q,%v", v, ok)
	}
	if d.HasAttr("nested_obj") {
		t.Error("flattened parent attribute must not exist")
	}
}

func TestParseDeepNesting(t *testing.T) {
	d := MustParse(1, `{"a":{"b":{"c":{"d":1}}}}`)
	if v, ok := d.Get("a.b.c.d"); !ok || v != EncodeInt(1) {
		t.Errorf("a.b.c.d = %q,%v", v, ok)
	}
}

func TestParseArrayOpaque(t *testing.T) {
	a := MustParse(1, `{"arr":["x","y"]}`)
	b := MustParse(2, `{"arr":["x","y"]}`)
	c := MustParse(3, `{"arr":["y","x"]}`)
	if !Joinable(a, b) {
		t.Error("identical arrays must join")
	}
	if Joinable(a, c) {
		t.Error("differently-ordered arrays are distinct values")
	}
}

func TestParseError(t *testing.T) {
	if _, err := Parse(1, []byte(`{"a":`)); err == nil {
		t.Error("truncated JSON must error")
	}
	if _, err := Parse(1, []byte(`[1,2]`)); err == nil {
		t.Error("non-object JSON must error")
	}
}

// Interning happens as the scanner goes, so a document rejected late
// has already interned the pairs before the error — and nothing after
// it. Deliberate: valid documents grow the tables the same way.
func TestParseRejectedDocumentInternsScannedPrefix(t *testing.T) {
	for i, in := range []string{
		`{"rejected_seen_0":"v","rejected_unseen_0":`,
		`{"rejected_seen_1":"v"} {"rejected_unseen_1":"v"}`,
	} {
		if _, err := Parse(1, []byte(in)); err == nil {
			t.Fatalf("%s: want an error", in)
		}
		if _, ok := symbol.LookupPair(fmt.Sprintf("rejected_seen_%d", i), "sv"); !ok {
			t.Errorf("%s: the pair scanned before the error is not interned", in)
		}
		if _, ok := symbol.LookupAttr(fmt.Sprintf("rejected_unseen_%d", i)); ok {
			t.Errorf("%s: an attribute past the error is interned", in)
		}
	}
}

func TestParseStream(t *testing.T) {
	data := []byte(`{"a":1}` + "\n" + `{"b":2}` + "\n" + `{"c":3}`)
	docs, err := ParseStream(10, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("got %d docs", len(docs))
	}
	for i, d := range docs {
		if d.ID != uint64(10+i) {
			t.Errorf("doc %d id = %d", i, d.ID)
		}
	}
}

func TestParseStreamError(t *testing.T) {
	if _, err := ParseStream(0, []byte(`{"a":1}{"b":`)); err == nil {
		t.Error("truncated stream must error")
	}
}

func TestMarshalJSONRoundTripsJoinSemantics(t *testing.T) {
	src := `{"User":"A","MsgId":2,"ok":true,"ratio":0.5,"nil":null}`
	d := MustParse(1, src)
	out, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(2, out)
	if err != nil {
		t.Fatalf("re-parse %s: %v", out, err)
	}
	if !d.Equal(d2) {
		t.Errorf("round trip changed document: %v vs %v", d, d2)
	}
}

func TestMarshalJSONQuotesStrings(t *testing.T) {
	d := MustParse(1, `{"a":"has \"quotes\""}`)
	out, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(out) {
		t.Errorf("invalid JSON: %s", out)
	}
	if !strings.Contains(string(out), `\"quotes\"`) {
		t.Errorf("quoting lost: %s", out)
	}
}

func TestCollectAttrStatsCounts(t *testing.T) {
	docs := []Document{
		MustParse(1, `{"a":1,"b":2}`),
		MustParse(2, `{"a":2}`),
	}
	s := CollectAttrStats(docs)
	if s.DocCount["a"] != 2 || s.DocCount["b"] != 1 {
		t.Errorf("DocCount = %v", s.DocCount)
	}
	if s.Distinct["a"] != 2 || s.Distinct["b"] != 1 {
		t.Errorf("Distinct = %v", s.Distinct)
	}
	if s.TotalDocs != 2 {
		t.Errorf("TotalDocs = %d", s.TotalDocs)
	}
}

func TestConcatHelpers(t *testing.T) {
	v := ConcatValues(EncodeString("x"), EncodeBool(true))
	v2 := ConcatValues(EncodeString("x"), EncodeBool(false))
	if v == v2 {
		t.Error("distinct inputs produced equal concatenated values")
	}
	a := ConcatAttrs("bool", "str1")
	if !IsSyntheticAttr(a) {
		t.Error("concatenated attribute not recognised as synthetic")
	}
	if IsSyntheticAttr("plain") {
		t.Error("plain attribute misclassified as synthetic")
	}
}

func TestValueJSONForms(t *testing.T) {
	cases := map[string]string{
		EncodeString("x"):            `"x"`,
		EncodeInt(5):                 `5`,
		EncodeFloat(2.5):             `2.5`,
		EncodeBool(false):            `false`,
		EncodeNull():                 `null`,
		EncodeArrayJSON(`["a","b"]`): `["a","b"]`,
	}
	for enc, want := range cases {
		if got := ValueJSON(enc); got != want {
			t.Errorf("ValueJSON(%q) = %s, want %s", enc, got, want)
		}
	}
}
