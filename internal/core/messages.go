package core

import (
	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/partition"
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
	// θ trigger and the window's δ update requests (assigner -> merger,
	// global).
	streamVerdict = "verdict"
	// streamControl carries the merger's one decision per window
	// (merger -> assigners and creators, all).
	streamControl = "control"
	// streamToJoin carries routed documents (assigner -> joiners,
	// direct).
	streamToJoin = "tojoin"
	// streamJoinerWindow carries window punctuation to the joiners
	// (assigner -> joiners, all).
	streamJoinerWindow = "jwend"
	// streamAssignerStats carries per-window routing statistics
	// (assigner -> collector, global).
	streamAssignerStats = "astats"
	// streamJoinerStats carries per-window join counters (joiner ->
	// collector, global).
	streamJoinerStats = "jstats"
	// streamMergerEvents carries one accounting event per control
	// message (merger -> collector, global).
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

// verdictMsg is one assigner's end-of-window verdict for window
// Window: whether its routing quality degraded beyond θ, and the
// documents that made an uncovered pair reach δ, in routing order.
type verdictMsg struct {
	Window      int
	Task        int
	Repartition bool
	Updates     []document.Document
}

// controlMsg is the merger's decision for window Window, sent once
// every assigner's verdict and every creator's report for the window
// (and, on a computation window, every creator's local groups) are in.
// Every assigner adopts it at punctuation Window, before it routes any
// document of Window+1; every creator needs it to close Window+1.
type controlMsg struct {
	Window int
	// Version numbers the table; it advances only when Table is set.
	Version int
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

// assignerStatsMsg is one assigner's contribution to a window's
// routing statistics.
type assignerStatsMsg struct {
	Window        int
	Task          int
	Documents     int
	Deliveries    int
	PerJoiner     []int
	Broadcasts    int
	Updates       int
	Repartitioned bool
	// GenLow and GenHigh are the lowest and highest table generation —
	// the version of the last fully computed table, 0 before the first —
	// the task routed the window's documents under; meaningful when
	// Documents > 0. The collector derives Report.MixedTableWindows.
	GenLow, GenHigh int
	// Checkpoint propagates the window's checkpoint barrier to the
	// collector, which snapshots a window once every assigner and
	// joiner partial for it has arrived.
	Checkpoint bool
}

// joinerStatsMsg is one joiner's contribution to a window's join
// counters.
type joinerStatsMsg struct {
	Window     int
	Task       int
	Docs       int
	Pairs      int
	Checkpoint bool
}

// mergerEventMsg reports one control message for accounting: the
// collector counts a window complete only once its event arrived.
type mergerEventMsg struct {
	Window     int
	NewTable   bool
	Recomputed bool
}
