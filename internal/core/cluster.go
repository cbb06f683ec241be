package core

import (
	"encoding/gob"

	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/partition"
	"repro/internal/topology"
)

// RegisterGobTypes makes every tuple payload of the core topology
// transferable over the cluster transport. Callers running the system
// in cluster mode invoke it once per process before Run.
func RegisterGobTypes() {
	gob.Register(document.Document{})
	gob.Register(&partition.Table{})
	gob.Register(partition.AssocGroup{})
	gob.Register(&expansion.Expansion{})
	gob.Register(creatorWindowMsg{})
	gob.Register(expansionMsg{})
	gob.Register(localGroupsMsg{})
	gob.Register(verdictMsg{})
	gob.Register(controlMsg{})
	gob.Register(nextMsg{})
	gob.Register(joinerStatsMsg{})
	gob.Register(mergerEventMsg{})
}

// NewTopology builds the system's component graph for an external
// runtime (the multi-process worker mode of cmd/sfj-topology). The
// returned Report is populated by the collector bolt if and only if the
// collector task runs in this process.
func NewTopology(cfg Config) (*topology.Builder, *Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	report := &Report{}
	return buildTopology(cfg, report), report, nil
}

// buildTopology assembles the Fig. 2 component graph; report is
// populated by the collector bolt during the run.
func buildTopology(cfg Config, report *Report) *topology.Builder {
	b := topology.NewBuilder()
	b.MaxPending(cfg.MaxPending)
	b.Telemetry(cfg.Telemetry)
	b.SetSpout("reader", func(int) topology.Spout {
		return newReaderSpout(cfg)
	}, 1)

	b.SetBolt("creator", func(task int) topology.Bolt {
		return newCreatorBolt(cfg, task)
	}, cfg.Creators).
		ShuffleGrouping("reader", streamDocs).
		AllGrouping("reader", streamWindowEnd).
		AllGrouping("merger", streamNext).
		AllGrouping("merger", streamExpansion)

	b.SetBolt("merger", func(int) topology.Bolt {
		return newMergerBolt(cfg)
	}, 1).
		GlobalGrouping("creator", streamCreatorWindow).
		GlobalGrouping("creator", streamLocalGroups).
		GlobalGrouping("assigner", streamVerdict)

	b.SetBolt("assigner", func(task int) topology.Bolt {
		return newAssignerBolt(cfg, task)
	}, cfg.Assigners).
		ShuffleGrouping("reader", streamDocs).
		AllGrouping("reader", streamWindowEnd).
		AllGrouping("merger", streamControl)

	b.SetBolt("joiner", func(task int) topology.Bolt {
		return newJoinerBolt(cfg, task)
	}, cfg.M).
		DirectGrouping("assigner", streamToJoin).
		AllGrouping("assigner", streamJoinerWindow)

	b.SetBolt("collector", func(int) topology.Bolt {
		return newCollectorBolt(cfg, report)
	}, 1).
		GlobalGrouping("joiner", streamJoinerStats).
		GlobalGrouping("merger", streamMergerEvents)

	return b
}
