// Package core wires the paper's complete scale-out stream-join system
// (Fig. 2): a JSON reader spout feeds PartitionCreator bolts (shuffle
// grouping) and Assigner bolts (shuffle grouping); PartitionCreators
// send their local association groups to the single Merger (global
// grouping), which consolidates them into m partitions and broadcasts
// the partition table to the Assigners (all grouping); Assigners route
// documents directly to the Joiner tasks (direct grouping) that
// evaluate the FP-tree join per tumbling window.
//
// The package also provides Pipeline, a single-process façade over the
// same algorithms for library users who do not need the topology.
package core

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// ExpansionMode controls the attribute-value expansion of Sec. VI-B.
type ExpansionMode int

const (
	// ExpansionAuto applies expansion when the analysis finds a
	// disabling attribute (ubiquitous, fewer than m unique values).
	ExpansionAuto ExpansionMode = iota
	// ExpansionOff never expands.
	ExpansionOff
	// ExpansionForced relaxes the ubiquity requirement to the most
	// frequent low-variety attribute; the paper forces expansion for
	// the DS competitor on the real-world data.
	ExpansionForced
)

// String names the mode.
func (m ExpansionMode) String() string {
	switch m {
	case ExpansionAuto:
		return "auto"
	case ExpansionOff:
		return "off"
	case ExpansionForced:
		return "forced"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Routing selects how the Assigners map documents to Joiners.
type Routing int

const (
	// PartitionRouting is the paper's scheme: documents go to the
	// partitions sharing one of their pairs; documents with uncovered
	// pairs are broadcast.
	PartitionRouting Routing = iota
	// HashPairsRouting is the related-work baseline the paper argues
	// against (Sec. II, "hash partitioning on several keys"): each of
	// a document's pairs is hashed to a machine and the document is
	// sent to every such machine. Join-complete without any partition
	// table, at the price of replication ≈ the number of distinct
	// pair hashes and no adaptivity to skew.
	HashPairsRouting
)

// String names the routing policy.
func (r Routing) String() string {
	switch r {
	case PartitionRouting:
		return "partition"
	case HashPairsRouting:
		return "hash-pairs"
	default:
		return fmt.Sprintf("routing(%d)", int(r))
	}
}

// Config parameterises a system run with the paper's knobs
// (Sec. VII-D).
type Config struct {
	// M is the number of partitions == Joiner tasks (paper: 5..20,
	// default 8).
	M int
	// Creators is the PartitionCreator parallelism (n in Fig. 2).
	Creators int
	// Assigners is the Assigner parallelism (paper default: 6).
	Assigners int
	// WindowSize is the number of documents per tumbling window (the
	// paper's w, a time window, maps to a count window here).
	WindowSize int
	// Windows is the number of windows to stream.
	Windows int
	// Delta is the δ threshold: an unseen attribute-value pair must
	// occur δ times before it may update the partitions (paper: 3).
	Delta int
	// Theta is the θ repartitioning threshold (paper: 0.2 / 0.6).
	Theta float64
	// Partitioner selects AG, SC or DS. Defaults to AG.
	Partitioner partition.Partitioner
	// Expansion selects the attribute-value expansion mode.
	Expansion ExpansionMode
	// Engine names the local join algorithm: FPJ (default), NLJ, HBJ.
	Engine string
	// Routing selects the Assigner policy; defaults to the paper's
	// partition-based routing.
	Routing Routing
	// MaxPending bounds every task mailbox to this many queued tuples
	// (0 = unbounded). A full mailbox blocks its producers, so a spout
	// outpacing the Joiners backpressures to the source instead of
	// growing queues until the process OOMs. Components on the
	// Assigner/Merger/Creator control cycle always stay unbounded —
	// see topology.Builder.MaxPending.
	MaxPending int
	// MemoryBudget bounds each Joiner's accounted window-state bytes
	// (FP-tree arena + window doc store + buffered future-window
	// documents); 0 (the default) leaves memory ungoverned. Over the
	// budget a Joiner spills its buffered future-window documents to
	// the SpillDir store and reloads them at the tumble that makes
	// their window current — correctness-neutral, since buffered
	// documents are not yet part of any join state. The current
	// window's probe structures are never spilled (every arriving
	// document probes them); when those alone exceed the budget the
	// pressure gauge rises and relief comes from MaxPending
	// backpressure parking the spout, the cluster's rung-4 shed path.
	MemoryBudget int64
	// SpillDir roots the filesystem store receiving spilled Joiner
	// buffers (one file per task and window, CRC-enveloped). Empty
	// with a MemoryBudget set means nothing can spill: the governor
	// only meters and the ladder starts at backpressure.
	SpillDir string
	// Source produces the document stream.
	Source datagen.Generator
	// OnResult, when set, receives every join result. It is called
	// from Joiner task goroutines and must be safe for concurrent use.
	// Identify a result by (Left, Right): Merged.ID numbers the merged
	// documents one Joiner task built and repeats across tasks. When
	// nil the run has no result consumer and the Joiners count pairs
	// without building merged documents.
	OnResult func(join.Result)
	// Telemetry, when set, instruments the whole run — topology
	// executors, join engines, partitioning — into the given registry,
	// and the final Report carries its snapshot. Nil (the default) keeps
	// every instrument a no-op.
	Telemetry *telemetry.Registry

	// recovery is the checkpoint/restore plumbing threaded in by the
	// Runner (WithRecovery); nil keeps checkpointing off.
	recovery *recoveryPlumb
	// onResultWindowed, when set, supersedes OnResult and additionally
	// receives the window each result belongs to — the Runner's result
	// stager needs the window to keep delivery exactly-once across a
	// recovery restart.
	onResultWindowed func(window int, res join.Result)
	// onWindowComplete, when set, fires from the collector task as each
	// window's last partial arrives, carrying the window index and its
	// θ-repartition verdict — the hook WithRescalePolicy folds into the
	// elastic machinery. It must not block the collector (a rescale
	// needs the collector still executing to reach quiescence), so any
	// heavy reaction goes to its own goroutine.
	onWindowComplete func(window int, repartitioned bool)
}

// withDefaults fills unset fields with the paper's defaults.
func (c Config) withDefaults() (Config, error) {
	if c.M <= 0 {
		c.M = 8
	}
	if c.Creators <= 0 {
		c.Creators = 2
	}
	if c.Assigners <= 0 {
		c.Assigners = 6
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 1000
	}
	if c.Windows <= 0 {
		c.Windows = 6
	}
	if c.Delta <= 0 {
		c.Delta = 3
	}
	if c.Theta <= 0 {
		c.Theta = 0.2
	}
	if c.Partitioner == nil {
		c.Partitioner = partition.AssociationGroups{}
	}
	if c.Engine == "" {
		c.Engine = "FPJ"
	}
	if _, err := join.New(c.Engine); err != nil {
		return c, err
	}
	if c.Source == nil {
		return c, fmt.Errorf("core: Config.Source is required")
	}
	return c, nil
}

// Report aggregates the outcome of a run: the paper's routing metrics
// per window, join output counts and topology counters.
type Report struct {
	// Run holds the per-window routing statistics (replication, Gini
	// load balance, maximal processing load, repartition flags).
	Run metrics.RunStats
	// JoinPairs is the total number of joined document pairs produced.
	JoinPairs int
	// DocsJoined is the total number of documents processed by
	// Joiners (equals deliveries).
	DocsJoined int
	// Repartitions counts partition recomputations after the initial
	// creation.
	Repartitions int
	// Restarts counts recovery restarts: how many times a worker died
	// and the run was re-placed and restored from the last checkpoint
	// cut (0 on a run without failover).
	Restarts int
	// TableVersions counts the control messages that carried a new
	// partition table, δ-gated updates included.
	TableVersions int
	// MixedTableWindows lists, ascending, the windows whose documents
	// were routed under more than one table generation — by two
	// assigners or by one. A pair whose documents were routed under
	// different generations may meet on no joiner, so Runner.Run fails
	// when the list is not empty; lock-step control keeps it empty.
	MixedTableWindows []int
	// Topology carries the substrate counters.
	Topology topology.Stats
	// Telemetry is the final snapshot of Config.Telemetry (zero when
	// telemetry was off): the same series a live /metrics scrape shows.
	Telemetry telemetry.Snapshot
}

// String renders the headline numbers.
func (r *Report) String() string {
	return fmt.Sprintf("%s pairs=%d repartitions=%d tables=%d mixed_generation_windows=%d",
		r.Run.Summary(), r.JoinPairs, r.Repartitions, r.TableVersions, len(r.MixedTableWindows))
}
