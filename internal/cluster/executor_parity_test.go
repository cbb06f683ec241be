package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// execBolt adapts a function to topology.Bolt.
type execBolt func(topology.Tuple, topology.Collector)

func (execBolt) Prepare(*topology.TaskContext) {}
func (execBolt) Cleanup()                      {}
func (f execBolt) Execute(t topology.Tuple, c topology.Collector) {
	f(t, c)
}

// parityBuilder declares one edge of every grouping, a bounded mailbox
// and one poisoned tuple:
//
//	src ─shuffle→ relay ─fields(k)→ keyed ─global→ tail (MaxPending 2)
//	src ─all→ fan                    keyed ─direct "d"→ pick
func parityBuilder(n int) *topology.Builder {
	sink := func(int) topology.Bolt { return execBolt(func(topology.Tuple, topology.Collector) {}) }
	b := topology.NewBuilder()
	b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: n} }, 1)
	b.SetBolt("relay", func(int) topology.Bolt {
		return execBolt(func(t topology.Tuple, c topology.Collector) {
			v := t.Values["v"].(int)
			if v == 13 {
				panic("poisoned tuple")
			}
			c.Emit(topology.Values{"v": v, "k": v % 5})
		})
	}, 2).ShuffleGrouping("src")
	b.SetBolt("fan", sink, 3).AllGrouping("src")
	b.SetBolt("keyed", func(int) topology.Bolt {
		return execBolt(func(t topology.Tuple, c topology.Collector) {
			c.Emit(t.Values)
			c.EmitDirect("d", t.Values["v"].(int)%2, t.Values)
		})
	}, 3).FieldsGrouping("relay", "k")
	b.SetBolt("tail", sink, 2).GlobalGrouping("keyed").MaxPending(2)
	b.SetBolt("pick", sink, 2).DirectGrouping("keyed", "d")
	return b
}

// TestExecutorParity runs one topology in-process, on a two-worker
// loopback cluster and on the sequential host under the seed-0 and a
// priority schedule: all of them host their tasks through the same
// executor, so the per-component counts, the failures and the copy
// ledger must agree, and every sent copy must be executed on each.
func TestExecutorParity(t *testing.T) {
	const n = 200
	topo, err := parityBuilder(n).Build()
	if err != nil {
		t.Fatal(err)
	}
	local := topo.Run()
	remote, err := Run(func() *topology.Builder { return parityBuilder(n) }, 2)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]topology.Stats{"in-process": local, "cluster": remote}
	for _, seed := range []int64{0, 7} {
		if runs[fmt.Sprint("sequential seed ", seed)], err = topology.RunSequential(parityBuilder(n), topology.SeededSchedule(seed)); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int64{"src": 4 * n, "relay": n - 1, "fan": 0, "keyed": 2 * (n - 1), "tail": 0, "pick": 0}
	if !reflect.DeepEqual(local.Emitted, want) {
		t.Errorf("in-process Emitted = %v, want %v", local.Emitted, want)
	}
	for name, s := range runs {
		if s.SentCopies == 0 || s.SentCopies != s.ExecCopies+s.DroppedCopies || s.DroppedCopies != 0 {
			t.Errorf("%s: copies sent = %d, executed = %d, dropped = %d",
				name, s.SentCopies, s.ExecCopies, s.DroppedCopies)
		}
		if len(s.Failures) != 1 {
			t.Errorf("%s: failures = %v, want the one poisoned tuple", name, s.Failures)
		}
		if !reflect.DeepEqual(s.Emitted, local.Emitted) || !reflect.DeepEqual(s.Executed, local.Executed) || s.SentCopies != local.SentCopies {
			t.Errorf("%s: Emitted %v, Executed %v, SentCopies %d; in-process %v, %v, %d",
				name, s.Emitted, s.Executed, s.SentCopies, local.Emitted, local.Executed, local.SentCopies)
		}
	}
}
