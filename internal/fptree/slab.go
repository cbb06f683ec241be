package fptree

// slabChunk is the number of elements a slab reserves at a time: large
// enough that a 2 000-document window takes a handful of chunks, small
// enough that an almost-empty tree holds little.
const slabChunk = 4096

// slab hands out the backing arrays of the per-node kids and docs
// slices from a few large chunks instead of one heap object per node.
// Chunks are never reallocated, so a slice carved earlier is never
// moved or overlapped by a later one; rewind makes every chunk
// available again and is only sound once no carved slice is live
// (Tree.Reset truncates the arena in the same step).
type slab[T any] struct {
	chunks [][]T
	cur    int // chunk being carved
	off    int // first free element of chunks[cur]
	used   int // elements carved since the last rewind
}

// grow returns s with room for one more element and its length bumped
// by one (the caller fills the new slot): in place while s has spare
// capacity, otherwise in a fresh region of twice the capacity carved
// from the slab. The old region stays carved until rewind.
func (sl *slab[T]) grow(s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	grown := sl.carve(max(1, 2*cap(s)))[:len(s)+1]
	copy(grown, s)
	return grown
}

// carve returns an empty slice of capacity exactly n, so an append
// past it can never run into a neighbour.
func (sl *slab[T]) carve(n int) []T {
	for sl.cur < len(sl.chunks) && sl.off+n > len(sl.chunks[sl.cur]) {
		sl.cur++
		sl.off = 0
	}
	if sl.cur == len(sl.chunks) {
		sl.chunks = append(sl.chunks, make([]T, max(n, slabChunk)))
	}
	s := sl.chunks[sl.cur][sl.off : sl.off : sl.off+n]
	sl.off += n
	sl.used += n
	return s
}

func (sl *slab[T]) rewind() {
	sl.cur, sl.off, sl.used = 0, 0, 0
}
