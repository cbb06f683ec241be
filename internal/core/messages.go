package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/symbol"
)

// Stream names of the topology. Documents and window markers originate
// at the reader; control messages implement the two-round partition
// protocol and the dynamics of Sec. VI-A, lock-stepped to the windows:
// every assigner sends one verdict per window, and the merger answers
// with one control message per window.
const (
	// streamDocs carries documents (reader -> creators, reader ->
	// assigners; both shuffle-grouped).
	streamDocs = "docs"
	// streamWindowEnd carries window punctuation (reader -> creators
	// and assigners, all-grouped).
	streamWindowEnd = "wend"
	// streamCreatorWindow carries each creator's end-of-window report
	// (creator -> merger, global).
	streamCreatorWindow = "creatorWindow"
	// streamExpansion carries the merger's expansion decision back to
	// the creators (merger -> creators, all).
	streamExpansion = "expansion"
	// streamLocalGroups carries local association groups (creator ->
	// merger, global).
	streamLocalGroups = "localAGs"
	// streamVerdict carries every assigner's end-of-window verdict: the
	// window's routing counts and uncovered-pair occurrences (assigner
	// -> merger, global).
	streamVerdict = "verdict"
	// streamControl carries the merger's one decision per window
	// (merger -> assigners, all).
	streamControl = "control"
	// streamNext carries the part of that decision the creators read:
	// whether the next window computes (merger -> creators, all).
	streamNext = "next"
	// streamToJoin carries routed documents (assigner -> joiners,
	// direct).
	streamToJoin = "tojoin"
	// streamJoinerWindow carries window punctuation to the joiners
	// (assigner -> joiners, all).
	streamJoinerWindow = "jwend"
	// streamJoinerStats carries per-window join counters (joiner ->
	// collector, global).
	streamJoinerStats = "jstats"
	// streamMergerEvents carries one accounting event per control
	// message, with the window's summed routing statistics (merger ->
	// collector, global).
	streamMergerEvents = "mevents"
	// Join results travel on no stream: the joiner hands them to
	// Config.OnResult (joiner.go, deliver).
)

// creatorWindowMsg is one creator's end-of-window report. When the
// creator is in a computation round it attaches its expansion proposal
// (possibly nil) derived from its local sample.
type creatorWindowMsg struct {
	Window    int
	Task      int
	Computing bool
	Proposal  *expansion.Expansion
	// Checkpoint propagates the window's checkpoint barrier to the
	// merger, which has no direct window punctuation of its own: the
	// merger snapshots window Window once its round resolves.
	Checkpoint bool
}

// expansionMsg is the merger's consensus expansion decision for a
// computation window.
type expansionMsg struct {
	Window int
	Spec   *expansion.Expansion
}

// localGroupsMsg carries one creator's local association groups for a
// computation window.
type localGroupsMsg struct {
	Window int
	Task   int
	Groups []partition.AssocGroup
}

// verdictMsg is one assigner's account of window Window. It carries
// counts, not decisions: the merger sums every assigner's verdict and
// tests θ and δ over the whole stream.
type verdictMsg struct {
	Window int
	Task   int
	// Stats holds this task's routing counts: documents, deliveries,
	// per-joiner loads and broadcasts.
	Stats metrics.WindowStats
	// GenLow and GenHigh are the lowest and highest table generation —
	// the version of the last fully computed table, 0 before the first —
	// the task routed the window's documents under; meaningful when
	// Stats.Documents > 0.
	GenLow, GenHigh int
	// Uncovered lists every pair no partition held, once, with its
	// occurrences in this task's share of the window and the lowest-ID
	// document carrying it.
	Uncovered []pairCount
	Docs      []document.Document
}

// pairCount is one uncovered pair's entry in a verdict: N occurrences,
// the first in document Docs[Doc].
type pairCount struct {
	Pair   symbol.Pair
	N, Doc int
}

// count records document d, whose uncovered pairs are pairs; index
// maps a pair to its entry in Uncovered. d is stored once, and only
// while it is some pair's lowest-ID document.
func (v *verdictMsg) count(index map[symbol.Pair]int, pairs []symbol.Pair, d document.Document) {
	at := -1
	for _, sp := range pairs {
		i, seen := index[sp]
		if !seen {
			i = len(v.Uncovered)
			index[sp] = i
			v.Uncovered = append(v.Uncovered, pairCount{Pair: sp})
		}
		pc := &v.Uncovered[i]
		if !seen || d.ID < v.Docs[pc.Doc].ID {
			if at < 0 {
				at = len(v.Docs)
				v.Docs = append(v.Docs, d)
			}
			pc.Doc = at
		}
		pc.N++
	}
}

// verdictGob is a verdict's wire form. Symbols are process-local, so
// pairs travel as strings: Pairs[i] is Uncovered[i].Pair, and document
// i is IDs[i] with the pairs Docs[i].
type verdictGob struct {
	Window, Task    int
	Stats           metrics.WindowStats
	GenLow, GenHigh int
	Pairs           []document.Pair
	Counts          []pairCount // Pair left zero
	IDs             []uint64
	Docs            [][]document.Pair
}

// GobEncode implements gob.GobEncoder for cluster transport.
func (v verdictMsg) GobEncode() ([]byte, error) {
	g := verdictGob{Window: v.Window, Task: v.Task, Stats: v.Stats, GenLow: v.GenLow, GenHigh: v.GenHigh}
	for _, pc := range v.Uncovered {
		attr, val := symbol.PairStrings(pc.Pair)
		g.Pairs = append(g.Pairs, document.Pair{Attr: attr, Val: val})
		g.Counts = append(g.Counts, pairCount{N: pc.N, Doc: pc.Doc})
	}
	for _, d := range v.Docs {
		g.IDs = append(g.IDs, d.ID)
		g.Docs = append(g.Docs, d.Pairs())
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&g)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (v *verdictMsg) GobDecode(data []byte) error {
	var g verdictGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return err
	}
	if len(g.Pairs) != len(g.Counts) || len(g.IDs) != len(g.Docs) {
		return fmt.Errorf("core: verdict: %d pairs, %d counts, %d documents, %d pair lists", len(g.Pairs), len(g.Counts), len(g.IDs), len(g.Docs))
	}
	*v = verdictMsg{Window: g.Window, Task: g.Task, Stats: g.Stats, GenLow: g.GenLow, GenHigh: g.GenHigh}
	for i, pairs := range g.Docs {
		v.Docs = append(v.Docs, document.FromSorted(g.IDs[i], pairs))
	}
	for i, pc := range g.Counts {
		if pc.Doc < 0 || pc.Doc >= len(v.Docs) {
			return fmt.Errorf("core: verdict: pair %v refers to document %d of %d", g.Pairs[i], pc.Doc, len(v.Docs))
		}
		pc.Pair = symbol.InternPair(g.Pairs[i].Attr, g.Pairs[i].Val)
		v.Uncovered = append(v.Uncovered, pc)
	}
	return nil
}

// controlMsg is the merger's decision for window Window, sent once
// every assigner's verdict and every creator's report for the window
// (and, on a computation window, every creator's local groups) are in.
// Every assigner adopts it at punctuation Window, before it routes any
// document of Window+1; every creator needs its ComputeNext, sent as a
// nextMsg, to close Window+1.
type controlMsg struct {
	Window int
	// Version numbers the table; it advances only when Table is set.
	Version int
	// Generation is the version of the last fully computed table; the
	// additive δ tables extend it.
	Generation int
	// Table is the partition table the assigners route Window+1 under;
	// nil when it did not change.
	Table     *partition.Table
	Expansion *expansion.Expansion
	// Recomputed marks a θ recomputation (a computation window other
	// than the first).
	Recomputed bool
	// ComputeNext makes Window+1 a computation window: some verdict
	// for Window asked for θ.
	ComputeNext bool
}

// nextMsg is control(Window) as the creators need it, without the
// table: whether Window+1 is a computation window.
type nextMsg struct {
	Window      int
	ComputeNext bool
}

// joinerStatsMsg is one joiner's contribution to a window's join
// counters.
type joinerStatsMsg struct {
	Window int
	Task   int
	Docs   int
	Pairs  int
}

// mergerEventMsg reports one control message for accounting, with the
// window's routing statistics: the collector counts a window complete
// once its event and every joiner's partial arrived.
type mergerEventMsg struct {
	Window int
	// Stats is the sum of the window's verdicts, with the θ outcome
	// (Repartitioned) and the number of δ update requests.
	Stats metrics.WindowStats
	// GenLow and GenHigh span the table generations the window was
	// routed under; meaningful when Stats.Documents > 0.
	GenLow, GenHigh int
	NewTable        bool
	Recomputed      bool
	// Checkpoint propagates the window's checkpoint barrier to the
	// collector, which snapshots once the window is complete.
	Checkpoint bool
}
