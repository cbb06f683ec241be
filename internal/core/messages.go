package core

import (
	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/partition"
)

// Stream names of the topology. Documents and window markers originate
// at the reader; control messages implement the two-round partition
// protocol and the dynamics of Sec. VI-A.
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
	// streamTable carries partition-table broadcasts (merger ->
	// assigners, all).
	streamTable = "table"
	// streamUpdate carries δ-gated partition update requests
	// (assigner -> merger, global).
	streamUpdate = "update"
	// streamRepartition carries every assigner's end-of-window verdict
	// on whether θ calls for a repartition (assigner -> creators, all;
	// assigner -> merger, global).
	streamRepartition = "repartition"
	// streamResched carries the merger's notice that a recomputation
	// is scheduled (merger -> assigners, all), so every assigner
	// engages its deployment barrier for the right window.
	streamResched = "resched"
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
	// streamMergerEvents carries repartition/table-version events
	// (merger -> collector, global).
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

// tableMsg broadcasts a partition table version to the assigners.
type tableMsg struct {
	Version int
	// Window is the window whose sample produced the table; δ updates
	// carry -1.
	Window    int
	Table     *partition.Table
	Expansion *expansion.Expansion
	// Recomputed marks full recomputations (θ); δ updates keep it
	// false.
	Recomputed bool
}

// updateMsg asks the merger to fold one document's pairs into the
// current partitions (δ reached).
type updateMsg struct {
	Doc document.Document
}

// decisionMsg is one assigner's end-of-window verdict: whether the
// routing quality of window Window degraded beyond θ. Every assigner
// emits one per window; the creators must collect all of them for
// window w-1 before closing window w, because whether window w is a
// computation window depends on them. (Without this synchronisation the
// creators — which process the stream far faster than the assigners —
// would close their windows long before any repartition request could
// arrive.)
type decisionMsg struct {
	Window      int
	Task        int
	Repartition bool
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

// mergerEventMsg reports a table broadcast for accounting.
type mergerEventMsg struct {
	Version    int
	Recomputed bool
	Initial    bool
}
