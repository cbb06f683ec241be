package core

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/partition"
)

// TestRandomConfigsExactJoin fuzzes the whole system configuration
// space: random parallelism, window geometry, partitioner, engine,
// expansion and routing — the join result must equal the single-node
// oracle every time. This is the strongest end-to-end invariant the
// system has.
func TestRandomConfigsExactJoin(t *testing.T) {
	partitioners := []partition.Partitioner{
		partition.AssociationGroups{}, partition.SetCover{}, partition.DisjointSets{},
	}
	engines := []string{"FPJ", "NLJ", "HBJ"}
	expansions := []ExpansionMode{ExpansionAuto, ExpansionOff, ExpansionForced}
	routings := []Routing{PartitionRouting, HashPairsRouting}

	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	for round := 0; round < rounds; round++ {
		r := rand.New(rand.NewSource(int64(1000 + round)))
		windowSize := 40 + r.Intn(120)
		windows := 2 + r.Intn(3)
		var gen datagen.Generator
		if r.Intn(2) == 0 {
			gen = datagen.NewServerLog(int64(round))
		} else {
			gen = datagen.NewNoBench(int64(round))
		}
		docs := drawWindows(gen, windows, windowSize)
		cfg := Config{
			M:           2 + r.Intn(5),
			Creators:    1 + r.Intn(3),
			Assigners:   1 + r.Intn(4),
			WindowSize:  windowSize,
			Windows:     windows,
			Delta:       1 + r.Intn(4),
			Theta:       0.1 + r.Float64()*0.6,
			Partitioner: partitioners[r.Intn(len(partitioners))],
			Engine:      engines[r.Intn(len(engines))],
			Expansion:   expansions[r.Intn(len(expansions))],
			Routing:     routings[r.Intn(len(routings))],
		}
		got, report := runAndCollect(t, cfg, docs)
		want := oraclePairs(docs, windowSize)
		if len(got) != len(want) {
			t.Errorf("round %d (%s/%s/%s/%s m=%d c=%d a=%d): %d pairs, want %d",
				round, cfg.Partitioner.Name(), cfg.Engine, cfg.Expansion, cfg.Routing,
				cfg.M, cfg.Creators, cfg.Assigners, len(got), len(want))
			continue
		}
		for p := range want {
			if !got[p] {
				t.Errorf("round %d: missing pair (%d,%d)", round, p.LeftID, p.RightID)
				break
			}
		}
		if report.JoinPairs != len(want) {
			t.Errorf("round %d: report.JoinPairs = %d, want %d", round, report.JoinPairs, len(want))
		}
	}
}
