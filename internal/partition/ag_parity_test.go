package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/expansion"
)

// The parity tests hold the production association-group kernels to
// the reference copies in ag_reference_test.go: the same groups in the
// same order, the same partitions per index.

// sameGroups compares two group lists element-wise: pairs, documents,
// load, and order. A nil and an empty document list are the same list.
func sameGroups(got, want []AssocGroup) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, reference has %d", len(got), len(want))
	}
	for i := range got {
		if g, w := got[i].Pairs.Sorted(), refSorted(want[i].Pairs); !slices.Equal(g, w) {
			return fmt.Errorf("group %d: pairs %v, reference %v", i, g, w)
		}
		if !slices.Equal(got[i].Docs, want[i].Docs) {
			return fmt.Errorf("group %d: docs %v, reference %v", i, got[i].Docs, want[i].Docs)
		}
		if got[i].Load != want[i].Load {
			return fmt.Errorf("group %d: load %d, reference %d", i, got[i].Load, want[i].Load)
		}
		if len(got[i].sorted) != 0 && !slices.Equal(got[i].sorted, refSortedSyms(got[i].Pairs)) {
			return fmt.Errorf("group %d: cached pair order %v is not the string order of %v", i, got[i].sorted, got[i].Pairs.Sorted())
		}
	}
	return nil
}

func sameTables(got, want *Table) error {
	if got.M != want.M || len(got.Partitions) != len(want.Partitions) {
		return fmt.Errorf("table m=%d/%d partitions, reference m=%d/%d", got.M, len(got.Partitions), want.M, len(want.Partitions))
	}
	for i := range got.Partitions {
		if g, w := got.Partitions[i].Sorted(), refSorted(want.Partitions[i]); !slices.Equal(g, w) {
			return fmt.Errorf("partition %d: %v, reference %v", i, g, w)
		}
	}
	return nil
}

// pipelineParity runs creators → consolidate → assign on both
// implementations, each stage of the production side fed with the
// production side's own output (so the cached pair order travels as it
// does in the topology) and also with plain groups that carry no cache
// (as after a gob hop).
func pipelineParity(docs []document.Document, creators, m int) error {
	shares := make([][]document.Document, creators)
	for i, d := range docs {
		shares[i%creators] = append(shares[i%creators], d)
	}
	local := make([][]AssocGroup, creators)
	plain := make([][]AssocGroup, creators)
	refLocal := make([][]AssocGroup, creators)
	for c, share := range shares {
		local[c] = AssociationGroups{}.Groups(share)
		refLocal[c] = refGroups(share)
		if err := sameGroups(local[c], refLocal[c]); err != nil {
			return fmt.Errorf("creator %d of %d: Groups: %w", c, creators, err)
		}
		for _, g := range local[c] {
			plain[c] = append(plain[c], AssocGroup{Pairs: g.Pairs, Docs: g.Docs, Load: g.Load})
		}
	}
	refMerged := refConsolidate(refLocal)
	refTable := refAssignGroups(refMerged, m)
	for name, in := range map[string][][]AssocGroup{"cached": local, "plain": plain} {
		merged := Consolidate(in)
		if err := sameGroups(merged, refMerged); err != nil {
			return fmt.Errorf("%d creators, %s: Consolidate: %w", creators, name, err)
		}
		if err := sameTables(AssignGroups(merged, m), refTable); err != nil {
			return fmt.Errorf("%d creators, %s: AssignGroups: %w", creators, name, err)
		}
	}
	return nil
}

func TestGroupsParityDatasets(t *testing.T) {
	const windows, size, m = 8, 2000, 4
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, dataset := range []string{"nbData", "rwData"} {
		for _, seed := range seeds {
			gen, ok := datagen.ByName(dataset, seed)
			if !ok {
				t.Fatalf("unknown dataset %s", dataset)
			}
			for w := 0; w < windows; w++ {
				window := gen.Window(size)
				specs := map[string]*expansion.Expansion{
					"off":     nil,
					"analyze": expansion.Analyze(window, m),
					"forced":  expansion.AnalyzeForced(window, m),
				}
				if specs["analyze"] != nil {
					delete(specs, "forced") // AnalyzeForced returns Analyze's answer when there is one
				}
				for mode, spec := range specs {
					if mode != "off" && spec == nil {
						continue // same input as "off"
					}
					docs := spec.ApplyBatch(window)
					for creators := 1; creators <= 3; creators++ {
						if err := pipelineParity(docs, creators, m); err != nil {
							t.Fatalf("%s seed %d window %d expansion %s: %v", dataset, seed, w, mode, err)
						}
					}
				}
			}
		}
	}
}

// smallDocs draws documents over a tiny vocabulary so equal docsets,
// implied groups and overlapping local groups are all common. Shapes
// the generators never produce are mixed in: empty documents,
// single-pair documents, repeated ids, ids out of order, ids whose
// base-36 order differs from their numeric order.
func smallDocs(rng *rand.Rand) []document.Document {
	n := rng.Intn(40)
	attrs := 1 + rng.Intn(6)
	vals := 1 + rng.Intn(3)
	docs := make([]document.Document, 0, n)
	id := uint64(rng.Intn(3))
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0: // repeat or step back
			id -= uint64(rng.Intn(int(min(id, 3)) + 1))
		case 1: // jump over a base-36 digit boundary: "z" < "10" numerically, not as strings
			id += uint64(30 + rng.Intn(1300))
		default:
			id += uint64(1 + rng.Intn(3))
		}
		var pairs []document.Pair
		switch rng.Intn(6) {
		case 0: // empty document
		case 1:
			pairs = append(pairs, document.Pair{Attr: "a" + strconv.Itoa(rng.Intn(attrs)), Val: strconv.Itoa(rng.Intn(vals))})
		default:
			for a := 0; a < attrs; a++ {
				if rng.Intn(3) > 0 {
					pairs = append(pairs, document.Pair{Attr: "a" + strconv.Itoa(a), Val: strconv.Itoa(rng.Intn(vals))})
				}
			}
		}
		docs = append(docs, document.New(id, pairs))
	}
	return docs
}

func TestGroupsParityQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		docs := smallDocs(rng)
		for creators := 1; creators <= 3; creators++ {
			if err := pipelineParity(docs, creators, 1+rng.Intn(5)); err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestConsolidateParityQuick feeds Consolidate and AssignGroups groups
// no creator would produce: empty pair sets, identical groups from
// several creators, chains of subsets, equal loads.
func TestConsolidateParityQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		local := make([][]AssocGroup, 1+rng.Intn(3))
		refLocal := make([][]AssocGroup, len(local))
		nextDoc := uint64(1)
		for c := range local {
			for g := rng.Intn(8); g > 0; g-- {
				var pairs []document.Pair
				for a := 0; a < 5; a++ {
					if rng.Intn(3) == 0 {
						pairs = append(pairs, document.Pair{Attr: "a" + strconv.Itoa(a), Val: strconv.Itoa(rng.Intn(2))})
					}
				}
				var docs []uint64
				for k := rng.Intn(4); k > 0; k-- {
					docs = append(docs, nextDoc)
					nextDoc += uint64(rng.Intn(2)) // the next group may start on this id
				}
				docs = slices.Compact(docs)
				load := rng.Intn(4)
				local[c] = append(local[c], AssocGroup{Pairs: NewPairSet(pairs...), Docs: docs, Load: load})
				refLocal[c] = append(refLocal[c], AssocGroup{Pairs: NewPairSet(pairs...), Docs: docs, Load: load})
			}
		}
		merged, refMerged := Consolidate(local), refConsolidate(refLocal)
		if err := sameGroups(merged, refMerged); err != nil {
			t.Errorf("seed %d: Consolidate: %v", seed, err)
			return false
		}
		for c := range local {
			for i, g := range local[c] {
				if !slices.Equal(g.Pairs.Sorted(), refLocal[c][i].Pairs.Sorted()) || !slices.Equal(g.Docs, refLocal[c][i].Docs) {
					t.Errorf("seed %d: Consolidate changed its input group %d/%d", seed, c, i)
					return false
				}
			}
		}
		m := 1 + rng.Intn(4)
		if err := sameTables(AssignGroups(merged, m), refAssignGroups(refMerged, m)); err != nil {
			t.Errorf("seed %d: AssignGroups: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestCompareBase36 pins the tie-break order of Groups to the order of
// the signature strings the reference builds.
func TestCompareBase36(t *testing.T) {
	check := func(x, y uint64, shift uint8) bool {
		x, y = x>>(shift%64), y>>(shift%64) // short and long renderings alike
		want := 0
		switch sx, sy := strconv.FormatUint(x, 36), strconv.FormatUint(y, 36); {
		case sx < sy:
			want = -1
		case sx > sy:
			want = 1
		}
		// As the reference compares them: inside a signature, followed
		// by a separator or the end.
		a, b := refDocsSignature([]uint64{x, 7}), refDocsSignature([]uint64{y, 7})
		if (a < b) != (want < 0) || (a > b) != (want > 0) {
			t.Errorf("signature order of %d and %d is not their base-36 order", x, y)
		}
		return compareBase36(x, y) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCreateKernels runs BenchmarkPartitionCreate's shape (root
// package: 2 creators × 1 000 documents → consolidate → assign, m = 4)
// on the production kernels and on the reference copies, side by side.
func BenchmarkCreateKernels(b *testing.B) {
	for _, dataset := range []string{"nbData", "rwData"} {
		gen, _ := datagen.ByName(dataset, 1)
		docs := gen.Window(2000)
		var halves [2][]document.Document
		for i, d := range expansion.Analyze(docs, 4).ApplyBatch(docs) {
			halves[i%2] = append(halves[i%2], d)
		}
		b.Run(dataset+"/production", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				local := [][]AssocGroup{AssociationGroups{}.Groups(halves[0]), AssociationGroups{}.Groups(halves[1])}
				AssignGroups(Consolidate(local), 4)
			}
		})
		b.Run(dataset+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				local := [][]AssocGroup{refGroups(halves[0]), refGroups(halves[1])}
				refAssignGroups(refConsolidate(local), 4)
			}
		})
	}
}
