package topology

import (
	"fmt"
	"math/rand"
	"slices"
)

// TaskID names one task of a component.
type TaskID struct {
	Component string
	Task      int
}

// Unit is a runnable unit of a sequential run: an edge, which steps
// Target with Head, the oldest copy Source sent it; or the spout task
// Source, which runs one NextTuple (Target and Head are zero).
type Unit struct {
	Target, Source TaskID
	Head           Tuple
	seq            int // index in the fixed order: declaration, task, source
}

// Schedule returns the index in ready (runnable units, fixed order) to run.
type Schedule func(ready []Unit) int

// SeededSchedule returns round-robin over the fixed order for seed 0,
// and otherwise a priority schedule after Burckhardt et al.'s PCT that
// starves an edge while another stays ready: a unit draws a priority
// from the seed's PRNG when first seen, the highest-priority ready unit
// runs, and all are redrawn every k steps, k drawn once from [50, 550).
func SeededSchedule(seed int64) Schedule {
	if seed == 0 {
		last := -1
		return func(ready []Unit) int {
			i := max(slices.IndexFunc(ready, func(u Unit) bool { return u.seq > last }), 0)
			last = ready[i].seq
			return i
		}
	}
	rng, prio, steps := rand.New(rand.NewSource(seed)), map[int]float64{}, 0
	k := 50 + rng.Intn(500)
	return func(ready []Unit) int {
		if steps++; steps%k == 0 {
			clear(prio)
		}
		best := 0
		for i, u := range ready {
			if _, ok := prio[u.seq]; !ok {
				prio[u.seq] = rng.Float64()
			}
			if prio[u.seq] > prio[ready[best].seq] {
				best = i
			}
		}
		return best
	}
}

// seqUnit is an edge's target task and queue, or a spout task.
type seqUnit struct {
	Unit
	task  *Task
	queue []Tuple
}

// RunSequential runs every task of b on the calling goroutine, keeping
// only per-task sequential execution and per-edge FIFO, so sched can
// pick any interleaving the other hosts could produce. A copy joins the
// queue of its edge (source task → target task). b and sched determine
// the run; no clock is read. It fails unless the ledger balances.
func RunSequential(b *Builder, sched Schedule) (Stats, error) {
	x, err := newExecutor(b)
	if err != nil {
		return Stats{}, err
	}
	var units []*seqUnit
	var tasks []*Task
	add := func(u *seqUnit) *seqUnit { u.seq = len(units); units = append(units, u); return u }
	edges := map[[2]TaskID]*seqUnit{}
	for _, c := range x.order {
		for i := range c.spec.Parallelism {
			id := TaskID{c.spec.ID, i}
			if c.spout != nil {
				add(&seqUnit{Unit: Unit{Source: id}, task: x.openSpout(c, i)})
				continue
			}
			t := &Task{Bolt: c.bolt(i), comp: c, index: i}
			tasks = append(tasks, t)
			for _, src := range x.order {
				if !slices.ContainsFunc(c.spec.Subs, func(s SubscriptionSpec) bool { return s.Source == src.spec.ID }) {
					continue
				}
				for j := range src.spec.Parallelism {
					from := TaskID{src.spec.ID, j}
					edges[[2]TaskID{from, id}] = add(&seqUnit{Unit: Unit{Target: id, Source: from}, task: t})
				}
			}
		}
	}
	x.deliver = func(target string, task int, t Tuple) bool {
		u := edges[[2]TaskID{{t.Source, t.SourceTask}, {target, task}}]
		u.queue = append(u.queue, t)
		return true
	}
	for _, t := range tasks {
		x.startBolt(t, nil)
	}
	var ready []Unit
	for {
		ready = ready[:0]
		for _, u := range units {
			if len(u.queue) > 0 {
				u.Head = u.queue[0]
			} else if u.task.spout == nil {
				continue
			}
			ready = append(ready, u.Unit)
		}
		if len(ready) == 0 {
			break
		}
		i := sched(ready)
		switch u := units[ready[i].seq]; {
		case u.task.spout == nil:
			u.queue = u.queue[1:]
			x.stepBolt(u.task, ready[i].Head)
		case !x.nextSpout(u.task):
			u.task.spout.Close()
			u.task.spout = nil
		}
	}
	for _, t := range tasks {
		x.stopBolt(t, nil)
	}
	s := x.Stats()
	if s.SentCopies != s.ExecCopies+s.DroppedCopies {
		return s, fmt.Errorf("topology: ledger unbalanced: %d sent, %d executed, %d dropped", s.SentCopies, s.ExecCopies, s.DroppedCopies)
	}
	return s, nil
}
