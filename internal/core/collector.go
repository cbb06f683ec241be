package core

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// collectorBolt is a single-instance statistics sink (not part of the
// paper's Fig. 2; the paper gathers the same measurements through
// Storm's metrics): it takes each window's routing statistics from the
// merger's event for the window, accumulates the joiners' join
// counters, and assembles the final Report during Cleanup.
//
// All counters accumulate per window inside windowAgg rather than
// directly on the Report: a window is complete once the merger's event
// and every joiner partial arrived, completed windows form a prefix of
// the stream (the per-link tuple order guarantees window w's partials
// all precede window w+1's from the same task), and that prefix is
// exactly what a checkpoint snapshot captures.
type collectorBolt struct {
	cfg    Config
	report *Report

	windows map[int]*windowAgg

	cp *checkpointer

	// Live instruments (nil-safe no-ops when cfg.Telemetry is off):
	// global totals plus the cluster-wide replication/Gini of the last
	// completed window.
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
	ev      mergerEventMsg // the merger's event for control(w) ...
	decided bool           // ... once it arrived
	jdone   int            // joiner partials received
	pairs   int            // join pairs reported for this window
	docs    int            // documents the joiners incorporated
	done    bool
}

// mixed reports whether the window's documents were routed under more
// than one table generation.
func (a *windowAgg) mixed() bool { return a.ev.Stats.Documents > 0 && a.ev.GenLow != a.ev.GenHigh }

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
	case streamJoinerStats:
		msg := t.Values["msg"].(joinerStatsMsg)
		agg := b.window(msg.Window)
		agg.pairs += msg.Pairs
		agg.docs += msg.Docs
		agg.jdone++
		b.tel.joinPairs.Add(int64(msg.Pairs))
		b.tel.docsJoined.Add(int64(msg.Docs))
		b.maybeComplete(msg.Window, agg)
	case streamMergerEvents:
		msg := t.Values["msg"].(mergerEventMsg)
		agg := b.window(msg.Window)
		agg.ev = msg
		agg.decided = true
		b.maybeComplete(msg.Window, agg)
	}
}

// maybeComplete fires once per window, when the last of its merger
// event and joiner partials arrives: it publishes the live routing-quality gauges and — when the
// window carried a checkpoint barrier — snapshots the collector. The
// completed windows form a prefix of the stream, so the snapshot at
// window w holds the full, final statistics of windows 0..w.
func (b *collectorBolt) maybeComplete(w int, agg *windowAgg) {
	if agg.done || !agg.decided || agg.jdone < b.cfg.M {
		return
	}
	agg.done = true
	b.tel.windowsDone.Inc()
	if agg.ev.NewTable {
		b.tel.tableVersions.Inc()
	}
	if agg.ev.Recomputed {
		b.tel.repartitions.Inc()
	}
	if agg.mixed() {
		b.tel.mixedWindows.Inc()
	}
	b.tel.replication.Set(agg.ev.Stats.Replication())
	b.tel.gini.Set(agg.ev.Stats.LoadBalance())
	if agg.ev.Checkpoint {
		b.cp.save(w, b)
	}
	if f := b.cfg.onWindowComplete; f != nil {
		f(w, agg.ev.Stats.Repartitioned)
	}
}

func (b *collectorBolt) window(w int) *windowAgg {
	agg, ok := b.windows[w]
	if !ok {
		agg = &windowAgg{ev: mergerEventMsg{Stats: *metrics.NewWindowStats(b.cfg.M)}}
		b.windows[w] = agg
	}
	return agg
}

// Cleanup assembles the per-window statistics in stream order into the
// Report.
func (b *collectorBolt) Cleanup() {
	ids := make([]int, 0, len(b.windows))
	for w := range b.windows {
		ids = append(ids, w)
	}
	sort.Ints(ids)
	for _, w := range ids {
		agg := b.windows[w]
		stats := agg.ev.Stats
		b.report.Run.Add(&stats)
		b.report.JoinPairs += agg.pairs
		b.report.DocsJoined += agg.docs
		if agg.mixed() {
			b.report.MixedTableWindows = append(b.report.MixedTableWindows, w)
		}
		if agg.ev.NewTable {
			b.report.TableVersions++
		}
		if agg.ev.Recomputed {
			b.report.Repartitions++
		}
	}
	// Publish the run's headline aggregates as gauges so the final
	// snapshot (and any post-run scrape) carries them.
	b.report.Run.PublishTo(b.cfg.Telemetry)
}
