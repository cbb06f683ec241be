package document

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/symbol"
)

func pairsOf(kv ...string) []Pair {
	if len(kv)%2 != 0 {
		panic("pairsOf: odd arguments")
	}
	var ps []Pair
	for i := 0; i < len(kv); i += 2 {
		ps = append(ps, Pair{Attr: kv[i], Val: EncodeString(kv[i+1])})
	}
	return ps
}

func TestNewSortsAndDeduplicates(t *testing.T) {
	d := New(1, []Pair{
		{Attr: "b", Val: EncodeString("x")},
		{Attr: "a", Val: EncodeString("y")},
		{Attr: "b", Val: EncodeString("z")}, // later value wins
	})
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if v, ok := d.Get("b"); !ok || v != EncodeString("z") {
		t.Errorf("Get(b) = %q,%v; want z", v, ok)
	}
	ps := d.Pairs()
	if ps[0].Attr != "a" || ps[1].Attr != "b" {
		t.Errorf("pairs not sorted: %v", ps)
	}
}

func TestGetAbsent(t *testing.T) {
	d := New(1, pairsOf("a", "1"))
	if _, ok := d.Get("missing"); ok {
		t.Error("Get(missing) reported present")
	}
	if d.Has(Pair{Attr: "a", Val: EncodeString("2")}) {
		t.Error("Has matched wrong value")
	}
	if !d.HasAttr("a") || d.HasAttr("zz") {
		t.Error("HasAttr wrong")
	}
}

// TestPaperFigure1 reproduces the joinability relationships between the
// documents of the paper's Fig. 1.
func TestPaperFigure1(t *testing.T) {
	d1 := MustParse(1, `{"User":"A","Severity":"Warning"}`)
	d2 := MustParse(2, `{"User":"A","Severity":"Warning","MsgId":2}`)
	d3 := MustParse(3, `{"User":"A","Severity":"Error"}`)
	d4 := MustParse(4, `{"IP":"10.2.145.212","Severity":"Warning"}`)
	d5 := MustParse(5, `{"User":"B","Severity":"Critical","MsgId":1}`)
	d6 := MustParse(6, `{"User":"B","Severity":"Critical"}`)
	d7 := MustParse(7, `{"User":"B","Severity":"Warning"}`)

	cases := []struct {
		a, b Document
		want bool
	}{
		{d1, d2, true},  // identical shared pairs, d2 adds MsgId
		{d1, d3, false}, // Severity conflicts (Warning vs Error)
		{d1, d4, true},  // share Severity:Warning, no conflicts
		{d1, d7, false}, // User conflicts
		{d5, d6, true},  // share User:B and Severity:Critical
		{d5, d7, false}, // Severity conflicts
		{d6, d7, false}, // Severity conflicts
		{d4, d7, true},  // share Severity:Warning
		{d2, d5, false}, // MsgId and User conflict
	}
	for _, c := range cases {
		if got := Joinable(c.a, c.b); got != c.want {
			t.Errorf("Joinable(d%d, d%d) = %v, want %v", c.a.ID, c.b.ID, got, c.want)
		}
	}
}

func TestClassifyDisjoint(t *testing.T) {
	a := New(1, pairsOf("x", "1"))
	b := New(2, pairsOf("y", "1"))
	r, n := Classify(a, b)
	if r != RelDisjoint || n != 0 {
		t.Errorf("Classify = %v,%d; want Disjoint,0", r, n)
	}
	if Joinable(a, b) {
		t.Error("documents sharing no attribute must not join")
	}
}

func TestSharedPairs(t *testing.T) {
	a := New(1, pairsOf("a", "1", "b", "2", "c", "3"))
	b := New(2, pairsOf("a", "1", "b", "2", "d", "9"))
	if n := SharedPairs(a, b); n != 2 {
		t.Errorf("SharedPairs = %d, want 2", n)
	}
	c := New(3, pairsOf("a", "1", "b", "X"))
	if n := SharedPairs(a, c); n != -1 {
		t.Errorf("SharedPairs conflicting = %d, want -1", n)
	}
}

func TestMerge(t *testing.T) {
	a := New(1, pairsOf("a", "1", "b", "2"))
	b := New(2, pairsOf("b", "2", "c", "3"))
	m := Merge(99, a, b)
	want := New(99, pairsOf("a", "1", "b", "2", "c", "3"))
	if !m.Equal(want) {
		t.Errorf("Merge = %v, want %v", m, want)
	}
	if m.ID != 99 {
		t.Errorf("Merge id = %d", m.ID)
	}
}

func TestMergePanicsOnConflict(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Merge on conflicting docs did not panic")
		}
	}()
	Merge(0, New(1, pairsOf("a", "1")), New(2, pairsOf("a", "2")))
}

func TestPairKeyRoundTrip(t *testing.T) {
	ps := []Pair{
		{Attr: "a", Val: EncodeString("x:y=z")},
		{Attr: "weird.attr", Val: EncodeInt(42)},
		{Attr: "b", Val: EncodeNull()},
	}
	for _, p := range ps {
		if got := PairFromKey(p.Key()); got != p {
			t.Errorf("round trip %v -> %v", p, got)
		}
	}
}

// randomDoc builds a random document over a small attribute/value
// universe so collisions (shared and conflicting pairs) are common.
func randomDoc(r *rand.Rand, id uint64) Document {
	attrs := []string{"a", "b", "c", "d", "e", "f"}
	n := 1 + r.Intn(5)
	var ps []Pair
	perm := r.Perm(len(attrs))
	for i := 0; i < n; i++ {
		ps = append(ps, Pair{Attr: attrs[perm[i]], Val: EncodeInt(int64(r.Intn(3)))})
	}
	return New(id, ps)
}

// naiveJoinable is an intentionally simple reference implementation.
func naiveJoinable(a, b Document) bool {
	shared := false
	for _, pa := range a.Pairs() {
		if v, ok := b.Get(pa.Attr); ok {
			if v != pa.Val {
				return false
			}
			shared = true
		}
	}
	return shared
}

func TestQuickJoinableMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randomDoc(rr, 1)
		b := randomDoc(rr, 2)
		return Joinable(a, b) == naiveJoinable(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinableSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randomDoc(rr, 1)
		b := randomDoc(rr, 2)
		return Joinable(a, b) == Joinable(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickSelfJoinable(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := randomDoc(rr, 1)
		return Joinable(d, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeJoinableWithBoth(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randomDoc(rr, 1)
		b := randomDoc(rr, 2)
		if !Joinable(a, b) {
			return true
		}
		m := Merge(3, a, b)
		// The merged document must be joinable with both inputs and
		// contain every input pair.
		if !Joinable(m, a) || !Joinable(m, b) {
			return false
		}
		for _, p := range a.Pairs() {
			if !m.Has(p) {
				return false
			}
		}
		for _, p := range b.Pairs() {
			if !m.Has(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAttrStatsOrderPaperTableI(t *testing.T) {
	// Table I: d1{a:3,b:7,c:1} d2{a:3,b:8} d3{a:3,b:7} d4{b:8,c:2}
	docs := []Document{
		New(1, []Pair{{Attr: "a", Val: EncodeInt(3)}, {Attr: "b", Val: EncodeInt(7)}, {Attr: "c", Val: EncodeInt(1)}}),
		New(2, []Pair{{Attr: "a", Val: EncodeInt(3)}, {Attr: "b", Val: EncodeInt(8)}}),
		New(3, []Pair{{Attr: "a", Val: EncodeInt(3)}, {Attr: "b", Val: EncodeInt(7)}}),
		New(4, []Pair{{Attr: "b", Val: EncodeInt(8)}, {Attr: "c", Val: EncodeInt(2)}}),
	}
	s := CollectAttrStats(docs)
	want := []string{"b", "a", "c"}
	if got := s.Order(); !reflect.DeepEqual(got, want) {
		t.Errorf("Order = %v, want %v (paper Table I)", got, want)
	}
	if ub := s.Ubiquitous(); !reflect.DeepEqual(ub, []string{"b"}) {
		t.Errorf("Ubiquitous = %v, want [b]", ub)
	}
}

func TestAttrStatsTieBreakByDistinct(t *testing.T) {
	// x and y both appear in 2 docs; x has 1 distinct value, y has 2,
	// so x precedes y.
	docs := []Document{
		New(1, pairsOf("x", "same", "y", "v1")),
		New(2, pairsOf("x", "same", "y", "v2")),
	}
	s := CollectAttrStats(docs)
	if got := s.Order(); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Errorf("Order = %v, want [x y]", got)
	}
}

func TestDocumentStringer(t *testing.T) {
	d := New(5, pairsOf("a", "1"))
	if s := d.String(); s != "d5{a:1}" {
		t.Errorf("String = %q", s)
	}
}

func TestRelationTotality(t *testing.T) {
	// Sanity: sort order of pairs inside Classify must not matter.
	a := New(1, pairsOf("z", "1", "a", "1"))
	b := New(2, pairsOf("a", "1", "z", "1", "m", "2"))
	r, n := Classify(a, b)
	if r != RelJoinable || n != 2 {
		t.Errorf("Classify = %v,%d; want Joinable,2", r, n)
	}
}

func sortedAttrs(d Document) []string {
	var out []string
	for _, p := range d.Pairs() {
		out = append(out, p.Attr)
	}
	sort.Strings(out)
	return out
}

func TestQuickPairsSortedUnique(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := randomDoc(rr, 1)
		attrs := sortedAttrs(d)
		for i := 1; i < len(attrs); i++ {
			if attrs[i] == attrs[i-1] {
				return false
			}
		}
		return sort.StringsAreSorted(attrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Substitute drops the named attributes, places the new pair in order
// and replaces a pair already under its attribute — also when the
// document holds none of the dropped attributes.
func TestSubstitute(t *testing.T) {
	d := New(7, []Pair{{"a", "s1"}, {"c", "s2"}, {"e", "s3"}})
	ids := func(attrs ...string) []symbol.ID {
		var out []symbol.ID
		for _, a := range attrs {
			out = append(out, symbol.InternAttr(a))
		}
		return out
	}
	for _, tc := range []struct {
		drop []symbol.ID
		p    Pair
		want []Pair
	}{
		{ids("a", "e"), Pair{"b", "sx"}, []Pair{{"b", "sx"}, {"c", "s2"}}},
		{ids("c"), Pair{"z", "sx"}, []Pair{{"a", "s1"}, {"e", "s3"}, {"z", "sx"}}},
		{nil, Pair{"c", "sx"}, []Pair{{"a", "s1"}, {"c", "sx"}, {"e", "s3"}}},
		{ids("a", "c", "e"), Pair{"b", "sx"}, []Pair{{"b", "sx"}}},
		{ids("p", "q", "r", "s", "t"), Pair{"b", "sx"}, []Pair{{"a", "s1"}, {"b", "sx"}, {"c", "s2"}, {"e", "s3"}}},
	} {
		got := d.Substitute(tc.drop, tc.p, symbol.InternPair(tc.p.Attr, tc.p.Val))
		if want := New(7, tc.want); !got.Equal(want) {
			t.Errorf("Substitute(%v, %v) = %v, want %v", tc.drop, tc.p, got, want)
		}
		syms, _ := got.Syms()
		for i, p := range got.Pairs() {
			if syms[i] != symbol.InternPair(p.Attr, p.Val) {
				t.Errorf("Substitute(%v, %v): symbol %d does not match its pair", tc.drop, tc.p, i)
			}
		}
	}
}
