package fptree

import "repro/internal/symbol"

// Scratch buffers are reused across probes but released once they grow
// past these bounds, so a long-lived joiner that once saw a huge window
// (or a wide symbol space) does not pin that memory across tumbles.
const (
	// maxRetainedProbeScratch bounds the stamped probe scratch, which
	// is indexed by attribute symbol ID and so grows to the largest
	// attribute ID ever probed.
	maxRetainedProbeScratch = 4096
	// maxRetainedStack bounds the traversal frame stack.
	maxRetainedStack = 4096
	// maxRetainedScratch bounds the tree's JoinPartners copy scratch.
	maxRetainedScratch = 4096
)

// frame is one pending subtree of the iterative traversal: the node to
// visit and the number of attribute-value pairs its branch shares with
// the probing document.
type frame struct {
	node   int32
	shared int32
}

// prober is the tree's probe context: the stamped probe scratch
// (val[a] is the probing document's value ID for attribute a iff
// mark[a] holds the current stamp) plus the explicit traversal stack.
// The tree embeds one, backing JoinPartners.
type prober struct {
	t *Tree

	val   []symbol.ID
	mark  []uint32
	stamp uint32

	stack []frame
}

// joinPartners runs FPTreeJoin (Algorithm 2) over the arena: the
// ubiquitous prefix is descended via exact-label lookups, then the
// remaining subtree is walked iteratively (Algorithm 3), pruning
// conflicting children and collecting document ids once the branch
// shares at least one pair with the probe. Visit order is the same
// pre-order the recursive pointer-tree traversal produced, so results
// are byte-identical.
func (p *prober) joinPartners(dst []uint64, excludeID uint64, syms []symbol.Pair) []uint64 {
	t := p.t
	p.stampProbe(syms)
	num := t.NumUbiquitous()
	cur := int32(0)
	shared := int32(0)
	for j := 0; j < num; j++ {
		a := t.order.idAt(j)
		if int(a) >= len(p.mark) || p.mark[a] != p.stamp {
			// The probing document lacks this (tree-)ubiquitous
			// attribute: no conflict is possible on it, but all
			// children must be explored; fall back to the general
			// traversal from the current node.
			break
		}
		child := t.child(cur, symbol.MakePair(a, p.val[a]))
		if child < 0 {
			// Every stored document carries this attribute with some
			// other value: all of them conflict with d.
			return dst
		}
		cur = child
		shared++
		dst = appendExcluding(dst, t.docs[cur], excludeID)
	}

	// Iterative depth-first walk. Children are pushed in reverse so
	// they pop in tree order; a popped frame appends its node's docs
	// and then pushes its own (pruned) children on top, which is
	// exactly the recursive pre-order.
	stack := p.pushKids(p.stack[:0], cur, shared)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.shared > 0 {
			dst = appendExcluding(dst, t.docs[f.node], excludeID)
		}
		stack = p.pushKids(stack, f.node, f.shared)
	}
	p.stack = stack
	return dst
}

// pushKids pushes n's surviving children onto the stack in reverse
// order. A child whose attribute the probe carries survives only when
// the values agree (every differently-valued sibling conflicts, paper
// Algorithm 3) and deepens the shared count; a child whose attribute
// the probe lacks cannot conflict and keeps it. Edges carry their
// label symbol inline, so the pruning scan touches one contiguous span
// and never dereferences a pruned child.
func (p *prober) pushKids(stack []frame, n int32, shared int32) []frame {
	ks := p.t.kids[n]
	for i := len(ks) - 1; i >= 0; i-- {
		s := ks[i].sym
		if a := int(s.Attr()); a < len(p.mark) && p.mark[a] == p.stamp {
			if s.Val() == p.val[a] {
				stack = append(stack, frame{ks[i].id, shared + 1})
			}
			continue
		}
		stack = append(stack, frame{ks[i].id, shared})
	}
	return stack
}

// stampProbe loads the probing document into the stamped scratch:
// val[a] holds the probe's value ID for attribute a iff mark[a] equals
// the (freshly bumped) stamp. No clearing is needed between probes; on
// stamp wrap-around the marks are zeroed once.
func (p *prober) stampProbe(syms []symbol.Pair) {
	p.stamp++
	if p.stamp == 0 {
		for i := range p.mark {
			p.mark[i] = 0
		}
		p.stamp = 1
	}
	for _, s := range syms {
		a := int(s.Attr())
		if a >= len(p.mark) {
			p.mark = growUint32s(p.mark, a+1)
			p.val = growIDs(p.val, a+1)
		}
		p.mark[a] = p.stamp
		p.val[a] = s.Val()
	}
}

func growUint32s(s []uint32, n int) []uint32 {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

func growIDs(s []symbol.ID, n int) []symbol.ID {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

// releaseOversized frees scratch that grew past the retention bounds
// (called from Tree.Reset so window tumbles shed peak-sized scratch).
func (p *prober) releaseOversized() {
	if cap(p.val) > maxRetainedProbeScratch {
		p.val, p.mark, p.stamp = nil, nil, 0
	}
	if cap(p.stack) > maxRetainedStack {
		p.stack = nil
	}
}

// dropScratch discards all scratch unconditionally (epoch changes
// invalidate the attribute-ID indexing outright).
func (p *prober) dropScratch() {
	p.val, p.mark, p.stamp = nil, nil, 0
	p.stack = nil
}

// scratchCap reports the probe scratch capacity (tests).
func (p *prober) scratchCap() int { return cap(p.val) }
