package topology

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
)

// TargetTasks computes the receiving task indexes of one emission for a
// non-direct grouping. The round-robin cursor rr is shared per edge for
// shuffle grouping. Every emission on either runtime routes through
// this function, in the executor's collector.
func TargetTasks(g GroupingKind, fields []string, v Values, nTasks int, rr *atomic.Uint64) []int {
	switch g {
	case Shuffle:
		// Reduce in uint64 before narrowing: converting the raw cursor
		// to int first goes negative once it exceeds MaxInt64, and a
		// negative modulus would panic the task with a bad index.
		return []int{int((rr.Add(1) - 1) % uint64(nTasks))}
	case Fields:
		return []int{FieldsHash(fields, v) % nTasks}
	case All:
		out := make([]int, nTasks)
		for i := range out {
			out[i] = i
		}
		return out
	case Global:
		return []int{0}
	case Direct:
		return nil // direct targets come from EmitDirect only
	default:
		panic(fmt.Sprintf("topology: unknown grouping %v", g))
	}
}

// FieldsHash hashes the grouping fields of a tuple deterministically.
func FieldsHash(fields []string, v Values) int {
	h := fnv.New64a()
	for _, f := range fields {
		fmt.Fprintf(h, "%v\x00", v[f])
	}
	return int(h.Sum64() % uint64(1<<31))
}
