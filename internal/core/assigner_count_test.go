package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/join"
)

// TestAssignerCountInvariance: the Assigners count is a parallelism
// knob and nothing more. The merger counts θ and δ over the whole
// stream, so repartitions, table versions and every window's routing
// statistics — replication, per-joiner loads, broadcasts, update
// requests — are the same for 1 to 12 assigners, in process and on
// three TCP workers, and the join produces the oracle's pairs.
func TestAssignerCountInvariance(t *testing.T) {
	const windows, size = 20, 1200
	for _, in := range []struct {
		dataset string
		theta   float64
		delta   int
	}{
		{"nbData", 0.2, 3},
		{"rwData", 0.2, 3},
		{"nbData", 0.6, 3},
		// δ off: no table absorbs a new pair, so θ recomputes.
		{"nbData", 0.2, 1 << 30},
	} {
		t.Run(fmt.Sprintf("%s/theta=%g/delta=%d", in.dataset, in.theta, in.delta), func(t *testing.T) {
			deadline(t, clusterDeadline)
			gen, _ := datagen.ByName(in.dataset, 7)
			docs := drawWindows(gen, windows, size)
			want := len(join.Oracle(docs, size))
			run := func(name string, assigners int, opts ...Option) *Report {
				t.Helper()
				cfg := Config{M: 8, Assigners: assigners, WindowSize: size, Windows: windows, Theta: in.theta, Delta: in.delta, Source: &replaySource{docs: docs}}
				report, err := NewRunner(cfg, opts...).Run()
				if err != nil {
					t.Fatal(err)
				}
				if report.JoinPairs != want {
					t.Errorf("%s: %d pairs, oracle %d", name, report.JoinPairs, want)
				}
				return report
			}
			ref := run("1 assigner in process", 1)
			check := func(name string, assigners int, opts ...Option) {
				t.Helper()
				got := run(name, assigners, opts...)
				if got.Repartitions != ref.Repartitions || got.TableVersions != ref.TableVersions {
					t.Errorf("%s: repartitions %d, tables %d; 1 assigner in process: %d, %d",
						name, got.Repartitions, got.TableVersions, ref.Repartitions, ref.TableVersions)
				}
				if len(got.Run.Windows) != len(ref.Run.Windows) {
					t.Errorf("%s: %d windows, 1 assigner in process: %d", name, len(got.Run.Windows), len(ref.Run.Windows))
					return
				}
				for w := range ref.Run.Windows {
					if !reflect.DeepEqual(got.Run.Windows[w], ref.Run.Windows[w]) {
						t.Errorf("%s: window %d is %v; 1 assigner in process: %v", name, w, got.Run.Windows[w], ref.Run.Windows[w])
						break
					}
				}
			}
			for _, n := range []int{2, 3, 6, 12} {
				check(fmt.Sprintf("%d assigners in process", n), n)
			}
			for _, n := range []int{1, 6} {
				check(fmt.Sprintf("%d assigners on 3 workers", n), n, WithWorkers(3))
			}
			t.Logf("%d pairs, %d repartitions, %d tables, replication %.3f", want, ref.Repartitions, ref.TableVersions, ref.Run.AvgReplication())
		})
	}
}
