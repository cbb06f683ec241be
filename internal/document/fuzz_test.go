package document

import (
	"encoding/json"
	"testing"

	"repro/internal/symbol"
)

// FuzzParse exercises the JSON-to-document scanner on arbitrary bytes:
// it must never panic, it must agree with the reference parser
// (parse_reference_test.go) on the error, the pairs, the symbols and
// the marshalled bytes, and every successfully parsed document must
// round-trip through MarshalJSON into an equal document (join
// semantics survive serialisation).
func FuzzParse(f *testing.F) {
	seeds := []string{
		`{"User":"A","Severity":"Warning"}`,
		`{"a":1,"b":2.5,"c":true,"d":null}`,
		`{"nested":{"x":{"y":1}},"arr":[1,"two",null]}`,
		`{"":""}`,
		`{"dup":1,"dup":2}`,
		`{"n":1e308,"m":-0.0,"big":9223372036854775807}`,
		`{"u":"é世界"}`,
		`{}`,
		`{"a":[[[]]]}`,
		`{"huge":1e999}`,
		`{"bool":true,"dyn1":0,"nested_arr":["A0"],"nested_obj.num":0,"nested_obj.str":"GROUP_0","sparse_000":"S0_0","str1":"GROUP_0"}`,
		`{"a":{"b":1},"a.b":2}`,
		`{"a":{"b":1},"a":{"c":2}}`,
		`{"a":{"b":1},"a.c":1,"a":{"d":2}}`,
		`{"":{"":1},"":{}}`,
		`{"a":1} trailing`,
		`{"a":1}{"b":2}`,
		`null`,
		`{"i":9223372036854775808,"j":-9223372036854775808,"k":-0,"l":1e2,"m":2.0,"n":12345678901234567890}`,
		`{"s":"é😀\ud800 <>&\"\\\/\b\f\n\r\t"}`,
		"{\"s\":\"\xff\xc3\",\"\xff\":[\"\xff\", \"<\"]}",
		`{"a":[1, {"z":1,"b":[2.0,{}]}, "x" ] , "b" : { } }`,
		"{\"a\" :\t1 ,\r\n\"b\":[ ]}",
		`{"a":{"a":{"a":{"a":{"a":{"a":[[[[[[{"a":[]}]]]]]]}}}}}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := checkAgainstReference(t, data)
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		out, err := d.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal of parsed doc failed: %v", err)
		}
		if !json.Valid(out) {
			t.Fatalf("marshal produced invalid JSON: %s", out)
		}
		back, err := Parse(2, out)
		if err != nil {
			t.Fatalf("re-parse failed: %v (json: %s)", err, out)
		}
		if !d.Equal(back) {
			t.Fatalf("round trip changed document:\n  in:  %v\n  out: %v", d, back)
		}
	})
}

// FuzzClassify checks the join-classification kernel for panics and
// symmetry on arbitrary attribute/value material.
func FuzzClassify(f *testing.F) {
	f.Add("a", "1", "b", "2")
	f.Add("x", "", "", "y")
	f.Add("same", "v", "same", "v")
	f.Fuzz(func(t *testing.T, a1, v1, a2, v2 string) {
		d1 := New(1, []Pair{{Attr: a1, Val: EncodeString(v1)}, {Attr: a2, Val: EncodeString(v2)}})
		d2 := New(2, []Pair{{Attr: a2, Val: EncodeString(v1)}, {Attr: a1, Val: EncodeString(v2)}})
		r12, n12 := Classify(d1, d2)
		r21, n21 := Classify(d2, d1)
		if r12 != r21 || n12 != n21 {
			t.Fatalf("classification asymmetric: %v/%d vs %v/%d", r12, n12, r21, n21)
		}
		if Joinable(d1, d2) {
			// Merge must not panic for joinable pairs.
			Merge(3, d1, d2)
		}
	})
}

// stripSyms returns a copy of d without its interned symbols, forcing
// Classify/Merge onto the string path.
func stripSyms(d Document) Document {
	return Document{ID: d.ID, pairs: d.pairs}
}

// FuzzInternedParity asserts that the symbol fast paths of Classify and
// Merge agree exactly with the string-path implementations on arbitrary
// documents: same relation, same shared count, and identical merged
// output with well-formed symbols.
func FuzzInternedParity(f *testing.F) {
	f.Add("a", "1", "b", "2", "c", "3", byte(0))
	f.Add("a", "1", "a", "2", "a", "3", byte(3))
	f.Add("x", "", "", "y", "x", "", byte(7))
	f.Add("same", "v", "same", "v", "same", "v", byte(1))
	f.Fuzz(func(t *testing.T, a1, v1, a2, v2, a3, v3 string, mix byte) {
		d1 := New(1, []Pair{{Attr: a1, Val: EncodeString(v1)}, {Attr: a2, Val: EncodeString(v2)}})
		p2 := []Pair{{Attr: a3, Val: EncodeString(v3)}}
		if mix&1 != 0 {
			p2 = append(p2, Pair{Attr: a2, Val: EncodeString(v2)}) // shared pair
		}
		if mix&2 != 0 {
			p2 = append(p2, Pair{Attr: a1, Val: EncodeString(v3)}) // potential conflict
		}
		d2 := New(2, p2)

		rI, nI := Classify(d1, d2)
		rS, nS := Classify(stripSyms(d1), stripSyms(d2))
		if rI != rS || nI != nS {
			t.Fatalf("interned Classify = %v/%d, string Classify = %v/%d\n  d1: %v\n  d2: %v",
				rI, nI, rS, nS, d1, d2)
		}
		// Mixed paths (one side carrying symbols) must agree too.
		if rM, nM := Classify(d1, stripSyms(d2)); rM != rS || nM != nS {
			t.Fatalf("mixed Classify = %v/%d, string Classify = %v/%d", rM, nM, rS, nS)
		}

		if rI != RelConflicting {
			mI := Merge(3, d1, d2)
			mS := Merge(3, stripSyms(d1), stripSyms(d2))
			if !mI.Equal(mS) || mI.ID != mS.ID {
				t.Fatalf("interned Merge = %v, string Merge = %v", mI, mS)
			}
			// The fast-path output's symbols must stay parallel to its
			// pairs under the epoch it claims.
			syms, epoch := mI.Syms()
			if syms != nil && epoch == symbol.Epoch() {
				for i, p := range mI.Pairs() {
					if want := symbol.InternPair(p.Attr, p.Val); syms[i] != want {
						t.Fatalf("merged symbol %d = %v, want %v (pair %v)", i, syms[i], want, p)
					}
				}
			}
		}
	})
}
