package core

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// collectorBolt is a single-instance statistics sink (not part of the
// paper's Fig. 2; the paper gathers the same measurements through
// Storm's metrics): it merges the assigners' per-window routing
// partials into global window statistics, accumulates join counters and
// merger events, and assembles the final Report during Cleanup.
//
// All counters accumulate per window inside windowAgg rather than
// directly on the Report: a window is complete once every assigner
// partial, every joiner partial and the merger's event for its control
// message arrived, completed windows form a prefix of the stream (the
// per-link tuple order guarantees window w's partials all precede
// window w+1's from the same task), and that prefix is exactly what a
// checkpoint snapshot captures.
type collectorBolt struct {
	cfg    Config
	report *Report

	windows map[int]*windowAgg

	// Run-wide accumulators of the completed windows' merger events;
	// copied into the Report during Cleanup.
	tableVersions int
	repartitions  int

	cp *checkpointer

	// Live instruments (nil-safe no-ops when cfg.Telemetry is off):
	// global totals plus the cluster-wide replication/Gini of the last
	// completed window, computed as soon as every partial for that
	// window has arrived.
	tel struct {
		joinPairs     *telemetry.Counter
		docsJoined    *telemetry.Counter
		tableVersions *telemetry.Counter
		repartitions  *telemetry.Counter
		windowsDone   *telemetry.Counter
		mixedWindows  *telemetry.Counter
		replication   *telemetry.Gauge
		gini          *telemetry.Gauge
	}
}

type windowAgg struct {
	stats         *metrics.WindowStats
	repartitioned bool
	partials      int  // assigner partials received
	jdone         int  // joiner partials received
	decided       bool // the merger's event for control(w) arrived
	newTable      bool // control(w) carried a table ...
	recomputed    bool // ... from a θ recomputation
	pairs         int  // join pairs reported for this window
	docs          int  // documents the joiners incorporated
	ckpt          bool
	done          bool
	// genLow/genHigh span the table generations the assigners routed
	// the window under (valid once routed is set); mixed when they
	// differ.
	routed          bool
	genLow, genHigh int
}

func (a *windowAgg) mixed() bool { return a.routed && a.genLow != a.genHigh }

func newCollectorBolt(cfg Config, report *Report) *collectorBolt {
	b := &collectorBolt{
		cfg:     cfg,
		report:  report,
		windows: make(map[int]*windowAgg),
		cp:      newCheckpointer(cfg, "collector", 0),
	}
	if reg := cfg.Telemetry; reg != nil {
		b.tel.joinPairs = reg.Counter("collector_join_pairs_total")
		b.tel.docsJoined = reg.Counter("collector_docs_joined_total")
		b.tel.tableVersions = reg.Counter("collector_table_versions_total")
		b.tel.repartitions = reg.Counter("collector_repartitions_total")
		b.tel.windowsDone = reg.Counter("collector_windows_completed_total")
		b.tel.mixedWindows = reg.Counter("partition_mixed_generation_windows_total")
		b.tel.replication = reg.Gauge("partition_global_replication")
		b.tel.gini = reg.Gauge("partition_global_gini")
	}
	return b
}

// Prepare implements topology.Bolt.
func (b *collectorBolt) Prepare(*topology.TaskContext) {
	b.cp.restore(b)
}

// Execute implements topology.Bolt.
func (b *collectorBolt) Execute(t topology.Tuple, _ topology.Collector) {
	switch t.Stream {
	case streamAssignerStats:
		msg := t.Values["msg"].(assignerStatsMsg)
		agg := b.window(msg.Window)
		agg.stats.Documents += msg.Documents
		agg.stats.Deliveries += msg.Deliveries
		for j, n := range msg.PerJoiner {
			if j < len(agg.stats.PerJoiner) {
				agg.stats.PerJoiner[j] += n
			}
		}
		agg.stats.Broadcasts += msg.Broadcasts
		agg.stats.Updates += msg.Updates
		if msg.Repartitioned {
			agg.repartitioned = true
		}
		if msg.Checkpoint {
			agg.ckpt = true
		}
		if msg.Documents > 0 {
			if !agg.routed || msg.GenLow < agg.genLow {
				agg.genLow = msg.GenLow
			}
			if !agg.routed || msg.GenHigh > agg.genHigh {
				agg.genHigh = msg.GenHigh
			}
			agg.routed = true
		}
		agg.partials++
		b.maybeComplete(msg.Window, agg)
	case streamJoinerStats:
		msg := t.Values["msg"].(joinerStatsMsg)
		agg := b.window(msg.Window)
		agg.pairs += msg.Pairs
		agg.docs += msg.Docs
		if msg.Checkpoint {
			agg.ckpt = true
		}
		agg.jdone++
		b.tel.joinPairs.Add(int64(msg.Pairs))
		b.tel.docsJoined.Add(int64(msg.Docs))
		b.maybeComplete(msg.Window, agg)
	case streamMergerEvents:
		msg := t.Values["msg"].(mergerEventMsg)
		agg := b.window(msg.Window)
		agg.decided = true
		agg.newTable = msg.NewTable
		agg.recomputed = msg.Recomputed
		b.maybeComplete(msg.Window, agg)
	}
}

// maybeComplete fires once per window, when the last of its partials
// arrives: it publishes the live routing-quality gauges and — when the
// window carried a checkpoint barrier — snapshots the collector. The
// completed windows form a prefix of the stream, so the snapshot at
// window w holds the full, final statistics of windows 0..w.
func (b *collectorBolt) maybeComplete(w int, agg *windowAgg) {
	if agg.done || !agg.decided || agg.partials < b.cfg.Assigners || agg.jdone < b.cfg.M {
		return
	}
	agg.done = true
	b.tel.windowsDone.Inc()
	if agg.newTable {
		b.tableVersions++
		b.tel.tableVersions.Inc()
	}
	if agg.recomputed {
		b.repartitions++
		b.tel.repartitions.Inc()
	}
	if agg.mixed() {
		b.tel.mixedWindows.Inc()
	}
	b.tel.replication.Set(agg.stats.Replication())
	b.tel.gini.Set(agg.stats.LoadBalance())
	if agg.ckpt {
		b.cp.save(w, b)
	}
	if f := b.cfg.onWindowComplete; f != nil {
		f(w, agg.repartitioned)
	}
}

func (b *collectorBolt) window(w int) *windowAgg {
	agg, ok := b.windows[w]
	if !ok {
		agg = &windowAgg{stats: metrics.NewWindowStats(b.cfg.M)}
		b.windows[w] = agg
	}
	return agg
}

// Cleanup assembles the per-window statistics in stream order and
// copies the run-wide accumulators into the Report.
func (b *collectorBolt) Cleanup() {
	ids := make([]int, 0, len(b.windows))
	for w := range b.windows {
		ids = append(ids, w)
	}
	sort.Ints(ids)
	for _, w := range ids {
		agg := b.windows[w]
		agg.stats.Repartitioned = agg.repartitioned
		b.report.Run.Add(agg.stats)
		b.report.JoinPairs += agg.pairs
		b.report.DocsJoined += agg.docs
		if agg.mixed() {
			b.report.MixedTableWindows = append(b.report.MixedTableWindows, w)
		}
	}
	b.report.TableVersions = b.tableVersions
	b.report.Repartitions = b.repartitions
	// Publish the run's headline aggregates as gauges so the final
	// snapshot (and any post-run scrape) carries them.
	b.report.Run.PublishTo(b.cfg.Telemetry)
}
