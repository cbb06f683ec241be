package document

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/symbol"
)

// mergeLoose is Merge as it was before the output slices were sized
// exactly (capacity len(a)+len(b)): the reference the property test
// holds the current implementation to.
func mergeLoose(id uint64, a, b Document) Document {
	i, j := 0, 0
	ap, bp := a.pairs, b.pairs
	merged := make([]Pair, 0, len(ap)+len(bp))
	if as, bs := a.syms, b.syms; as != nil && bs != nil && a.epoch == b.epoch {
		msyms := make([]symbol.Pair, 0, len(ap)+len(bp))
		for i < len(ap) && j < len(bp) {
			sa, sb := as[i], bs[j]
			switch {
			case sa.Attr() == sb.Attr():
				merged, msyms = append(merged, ap[i]), append(msyms, sa)
				i++
				j++
			case ap[i].Attr < bp[j].Attr:
				merged, msyms = append(merged, ap[i]), append(msyms, sa)
				i++
			default:
				merged, msyms = append(merged, bp[j]), append(msyms, sb)
				j++
			}
		}
		merged = append(append(merged, ap[i:]...), bp[j:]...)
		msyms = append(append(msyms, as[i:]...), bs[j:]...)
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
			merged = append(merged, ap[i])
			i++
			j++
		}
	}
	merged = append(append(merged, ap[i:]...), bp[j:]...)
	return newFromSortedUnique(id, merged)
}

// wideDoc draws a document over a larger universe than randomDoc, so
// merges have long disjoint runs as well as shared attributes.
func wideDoc(r *rand.Rand, id uint64) Document {
	n := 1 + r.Intn(12)
	ps := make([]Pair, 0, n)
	for _, a := range r.Perm(20)[:n] {
		ps = append(ps, Pair{Attr: fmt.Sprintf("attr%02d", a), Val: EncodeInt(int64(r.Intn(2)))})
	}
	return New(id, ps)
}

// TestMergeExactSizedMatchesReference: on fuzzed joinable inputs, on
// the symbol path and the string path, Merge's output has no slack, is
// sorted-unique with symbols parallel to its pairs, and equals the
// previous implementation's.
func TestMergeExactSizedMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	checked := 0
	for iter := 0; iter < 20000; iter++ {
		a, b := wideDoc(r, 1), wideDoc(r, 2)
		if iter%2 == 0 {
			a, b = randomDoc(r, 1), randomDoc(r, 2)
		}
		if !Joinable(a, b) {
			continue
		}
		checked++
		for _, strip := range []bool{false, true} {
			x, y := a, b
			if strip {
				x, y = stripSyms(a), stripSyms(b)
			}
			got, want := Merge(7, x, y), mergeLoose(7, x, y)
			if !got.Equal(want) || got.ID != want.ID {
				t.Fatalf("Merge(%v, %v) = %v, reference %v", x, y, got, want)
			}
			if len(got.pairs) != cap(got.pairs) || len(got.syms) != cap(got.syms) {
				t.Fatalf("Merge(%v, %v): pairs len/cap %d/%d, syms len/cap %d/%d — want no slack",
					x, y, len(got.pairs), cap(got.pairs), len(got.syms), cap(got.syms))
			}
			if len(got.syms) != len(got.pairs) || got.epoch != symbol.Epoch() {
				t.Fatalf("Merge(%v, %v): %d symbols for %d pairs, epoch %d", x, y, len(got.syms), len(got.pairs), got.epoch)
			}
			for i, p := range got.pairs {
				if i > 0 && got.pairs[i-1].Attr >= p.Attr {
					t.Fatalf("Merge(%v, %v) = %v: not sorted-unique at %d", x, y, got, i)
				}
				if s := symbol.InternPair(p.Attr, p.Val); got.syms[i] != s {
					t.Fatalf("Merge(%v, %v): symbol %d = %v, want %v", x, y, i, got.syms[i], s)
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d joinable inputs drawn", checked)
	}
}

// BenchmarkMerge tracks result materialisation on server-log-shaped
// documents: mostly shared attributes, a few on one side only.
func BenchmarkMerge(b *testing.B) {
	x := MustParse(1, `{"host":"web-17","severity":"warning","service":"auth","user":"u1042","region":"eu-west","code":401,"msg_id":7,"session":"s-99812"}`)
	y := MustParse(2, `{"host":"web-17","severity":"warning","service":"auth","user":"u1042","region":"eu-west","latency_ms":212,"trace":"t-5521","retry":false}`)
	for name, f := range map[string]func(uint64, Document, Document) Document{"exact": Merge, "reference": mergeLoose} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchDoc = f(uint64(i), x, y)
			}
		})
	}
}

var benchDoc Document
