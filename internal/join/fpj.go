package join

import (
	"repro/internal/document"
	"repro/internal/fptree"
)

// FPJ is the paper's FP-tree join engine: documents are stored in an
// FP-tree under the global attribute ordering and probed with
// FPTreeJoin (Sec. V).
type FPJ struct {
	tree *fptree.Tree

	// buf backs Probe/ProbeInsert results (the Engine.Probe contract
	// allows an engine-owned buffer). Tree.JoinPartners itself returns
	// caller-owned slices, so the reuse lives here, on the hot path
	// that consumes results immediately.
	buf []uint64
}

// maxRetainedResultBuf bounds the result buffer kept across window
// tumbles (entries, i.e. 8-byte ids).
const maxRetainedResultBuf = 4096

// NewFPJ creates an FPJ whose attribute ordering grows by first
// appearance — suitable for streaming probe-then-insert use where no
// upfront batch statistics exist.
func NewFPJ() *FPJ {
	return &FPJ{tree: fptree.New(fptree.EmptyOrder())}
}

// NewFPJWithOrder creates an FPJ with a precomputed global attribute
// ordering, the paper's deployment mode: the ordering is computed right
// after the partitions are created and shipped to the Joiners.
func NewFPJWithOrder(order *fptree.Order) *FPJ {
	return &FPJ{tree: fptree.New(order)}
}

// NewFPJFromDocs derives the ordering from a sample batch.
func NewFPJFromDocs(sample []document.Document) *FPJ {
	return NewFPJWithOrder(fptree.NewOrderFromDocs(sample))
}

// Name implements Engine.
func (e *FPJ) Name() string { return "FPJ" }

// Insert implements Engine.
func (e *FPJ) Insert(d document.Document) { e.tree.Insert(d) }

// Probe implements Engine. The result reuses the engine's buffer.
func (e *FPJ) Probe(d document.Document) []uint64 {
	e.buf = e.tree.JoinPartnersAppend(e.buf[:0], d)
	return e.buf
}

// ProbeInsert implements Engine. The result reuses the engine's buffer.
func (e *FPJ) ProbeInsert(d document.Document) []uint64 {
	e.buf = e.tree.JoinPartnersAppend(e.buf[:0], d)
	e.tree.Insert(d)
	return e.buf
}

// Size implements Engine.
func (e *FPJ) Size() int { return e.tree.DocCount() }

// Reset implements Engine: the whole tree is evicted when the tumbling
// window closes; the attribute ordering is retained.
func (e *FPJ) Reset() {
	e.tree.Reset()
	if cap(e.buf) > maxRetainedResultBuf {
		e.buf = nil
	}
}

// Tree exposes the underlying FP-tree for diagnostics and tests.
func (e *FPJ) Tree() *fptree.Tree { return e.tree }

// MemBytes implements MemoryAccounter via the tree's O(1) arena
// estimate.
func (e *FPJ) MemBytes() int64 { return e.tree.MemBytes() }
