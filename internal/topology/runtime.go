package topology

import (
	"sync"
	"time"
)

// Topology is a runnable instance built from a Builder: every task
// hosted in this process, each bolt fed by its own mailbox.
type Topology struct {
	x     *Executor
	tasks []*Task
}

// Build validates and assembles the topology.
func (b *Builder) Build() (*Topology, error) {
	x, err := newExecutor(b)
	if err != nil {
		return nil, err
	}
	x.gate = x.pace
	x.Instrument(b.telemetry)
	topo := &Topology{x: x}
	boxes := make(map[string][]*Mailbox)
	for _, c := range x.order {
		if c.bolt == nil {
			continue
		}
		for i := 0; i < c.spec.Parallelism; i++ {
			t := x.NewTask(c.spec.ID, i)
			topo.tasks = append(topo.tasks, t)
			boxes[c.spec.ID] = append(boxes[c.spec.ID], t.Box)
		}
	}
	// In-process, an edge puts into its target's mailboxes directly.
	for _, c := range x.order {
		for _, edges := range c.edges {
			for _, e := range edges {
				e.boxes = boxes[e.target]
			}
		}
	}
	return topo, nil
}

// Run executes the topology to completion: spouts run until exhausted,
// then the runtime waits for quiescence (no queued or executing tuples)
// and shuts all tasks down. It returns the run statistics.
func (t *Topology) Run() Stats {
	x := t.x
	var spoutWG, boltWG sync.WaitGroup

	// Start bolts first so mailboxes drain from the beginning.
	for _, task := range t.tasks {
		boltWG.Add(1)
		go func(task *Task) {
			defer boltWG.Done()
			x.RunBolt(task, nil, nil)
		}(task)
	}
	for _, c := range x.order {
		if c.spout == nil {
			continue
		}
		for i := 0; i < c.spec.Parallelism; i++ {
			spoutWG.Add(1)
			go func(id string, task int) {
				defer spoutWG.Done()
				x.RunSpout(id, task)
			}(c.spec.ID, i)
		}
	}

	spoutWG.Wait()
	// Quiescence: wait until no tuple is queued or executing. A copy is
	// counted sent before its put and executed after its execution, so
	// pending == 0 once spouts stopped means the DAG (and any feedback
	// cycle) has fully drained. Bounded mailboxes keep this correct: a
	// producer blocked in Put has already counted the copy it is
	// delivering (and, for bolts, has not yet counted the tuple it is
	// executing), so pending stays positive until the consumer drains
	// the box and the producer finishes.
	for x.pending() != 0 {
		time.Sleep(200 * time.Microsecond)
	}
	for _, task := range t.tasks {
		task.Box.Close()
	}
	boltWG.Wait()
	return x.Stats()
}

// spoutHighWater is the number of queued or executing tuples above
// which spouts stop emitting. Mailboxes are unbounded unless
// Builder.MaxPending is set, and components on a feedback cycle are
// unbounded even then, so without it a source that outruns the
// pipeline parks its whole input in the first mailboxes and the queue
// becomes the peak heap. Large enough that no task runs dry while a
// spout sleeps.
const spoutHighWater = 4096

// pace is the in-process spout gate: it holds a spout back while more
// than spoutHighWater tuples are in flight. The tuples in flight do not
// depend on the spout, so the count falls without it; the wait is the
// parked poll Run's quiescence wait uses.
func (x *Executor) pace(Spout) bool {
	for x.pending() > spoutHighWater {
		time.Sleep(200 * time.Microsecond)
	}
	return true
}
