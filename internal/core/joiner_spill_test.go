package core

import (
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// TestJoinerPendingSpillParity runs a topology whose joiners are
// memory-governed with a budget so small every buffered future-window
// document spills to disk, and checks the join output is still exactly
// the oracle's. The joiners' pending buffers (documents of window w+1
// that reach a joiner before some assigner's punctuation of window w)
// are the only spillable state on the cluster path — the current
// window's probe structures never leave memory — so parity here proves
// the spill and reload legs are correctness-neutral end to end. The
// run is on the sequential host, and no assigner 2 → joiner edge is
// picked while any other unit is ready, so assigner 2's punctuations —
// and, by per-edge FIFO, its documents behind them — arrive last and
// the pending buffers fill on every run rather than when the scheduler
// happens to let one assigner race ahead. Holding them only while
// another edge into the same joiner is ready is not enough: the edge
// then runs in the gap before the merger's control message releases
// the other assigners' next window.
func TestJoinerPendingSpillParity(t *testing.T) {
	const windowSize = 60
	docs := drawWindows(datagen.NewServerLog(7), 3, windowSize)
	reg := telemetry.NewRegistry()
	cfg := Config{
		M:            3,
		Creators:     2,
		Assigners:    3,
		WindowSize:   windowSize,
		Windows:      3,
		Delta:        2,
		Theta:        0.3,
		Partitioner:  partition.AssociationGroups{},
		Engine:       "FPJ",
		MemoryBudget: 1, // every pending buffer is over budget: spill it all
		SpillDir:     t.TempDir(),
		Telemetry:    reg,
	}
	assigner2 := topology.TaskID{Component: "assigner", Task: 2}
	got, _ := runStepped(t, cfg, docs, holding(func(u topology.Unit, ready []topology.Unit) bool {
		return u.Target.Component == "joiner" && u.Source == assigner2 && slices.ContainsFunc(ready, func(r topology.Unit) bool {
			return r.Source != assigner2 || r.Target.Component != "joiner"
		})
	}))
	want := join.Oracle(docs, windowSize)
	if wrong, extra := exactlyOnce(got, want); wrong > 0 || extra {
		t.Errorf("governed topology: %d of %d oracle pairs missing or duplicated, %d pairs produced", wrong, len(want), len(got))
	}
	snap := reg.Snapshot()
	if snap.SumCounter("state_spill_panes_total") == 0 {
		t.Error("no pending buffers spilled despite the 1-byte budget")
	}
	if snap.SumCounter("state_spill_reloads_total") == 0 {
		t.Error("no spilled pending buffers reloaded")
	}
	if snap.SumCounter("state_spill_failures_total") != 0 {
		t.Errorf("%d spill failures on a healthy filesystem",
			snap.SumCounter("state_spill_failures_total"))
	}
}
