package topology

import (
	"fmt"

	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// mailbox is a FIFO queue with blocking receive and, when capacity is
// positive, blocking send: a producer delivering into a full mailbox
// waits until the consumer drains it, which propagates backpressure
// upstream hop by hop until the spout itself slows down. Capacity 0
// keeps the historical unbounded behaviour. Components on a feedback
// cycle (the paper's Assigner<->Merger loop) are always built
// unbounded — see Builder.MaxPending.
type mailbox struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	buf      []Tuple
	capacity int // 0 = unbounded
	peak     int // high-water mark of len(buf), for tests/metrics
	closed   bool

	// Optional live instruments (nil-safe no-ops when telemetry is
	// off): queue depth, and time producers spent blocked on a full
	// mailbox.
	depth       *telemetry.Gauge
	blockedNS   *telemetry.Counter
	blockedPuts *telemetry.Counter
}

func newMailbox(capacity int) *mailbox {
	m := &mailbox{capacity: capacity}
	m.notEmpty = sync.NewCond(&m.mu)
	m.notFull = sync.NewCond(&m.mu)
	return m
}

// put appends t, blocking while the mailbox is at capacity. It reports
// whether the tuple was accepted; false means the mailbox closed.
func (m *mailbox) put(t Tuple) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.capacity > 0 && len(m.buf) >= m.capacity && !m.closed {
		// Only a put that actually blocks pays for the clock reads.
		var start time.Time
		if m.blockedNS != nil {
			start = time.Now()
			m.blockedPuts.Inc()
		}
		for m.capacity > 0 && len(m.buf) >= m.capacity && !m.closed {
			m.notFull.Wait()
		}
		if m.blockedNS != nil {
			m.blockedNS.Add(int64(time.Since(start)))
		}
	}
	if m.closed {
		return false
	}
	m.buf = append(m.buf, t)
	if len(m.buf) > m.peak {
		m.peak = len(m.buf)
	}
	m.depth.SetInt(len(m.buf))
	m.notEmpty.Signal()
	return true
}

func (m *mailbox) get() (Tuple, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.buf) == 0 && !m.closed {
		m.notEmpty.Wait()
	}
	if len(m.buf) == 0 {
		return Tuple{}, false
	}
	t := m.buf[0]
	m.buf = m.buf[1:]
	m.depth.SetInt(len(m.buf))
	m.notFull.Signal()
	return t, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.notEmpty.Broadcast()
	m.notFull.Broadcast()
	m.mu.Unlock()
}

// peakLen reports the mailbox's high-water mark.
func (m *mailbox) peakLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// edge is a resolved subscription: the target tasks' mailboxes plus the
// grouping.
type edge struct {
	target   string
	grouping GroupingKind
	fields   []string
	boxes    []*mailbox
	rr       atomic.Uint64 // round-robin cursor for shuffle
}

type component struct {
	id          string
	parallelism int
	decl        *componentDecl
	boxes       []*mailbox
	// edges by stream id.
	edges map[string][]*edge

	// Live instruments, resolved once at Build (nil when telemetry is
	// off): executed/emitted tuple counters and execute latency.
	telExec *telemetry.Counter
	telEmit *telemetry.Counter
	telLat  *telemetry.Histogram
}

// Stats aggregates per-component counters after a run.
type Stats struct {
	// Emitted counts delivered tuple copies per emitting component: an
	// emission on a stream with no subscribers, or a copy dropped at a
	// closed mailbox, does not count, so Emitted matches what the
	// downstream components actually received.
	Emitted  map[string]int64
	Executed map[string]int64
	// SentCopies and ExecCopies aggregate the cluster transport's
	// per-copy accounting (copies routed into the data plane, and
	// copies executed or compensated after a drop). They are equal at a
	// clean termination and zero for in-process runs.
	SentCopies int64
	ExecCopies int64
	// Failures records panics recovered in task goroutines
	// ("component[task]: message"). A failed tuple is dropped and the
	// task keeps running; a failed spout stops emitting.
	Failures []string
}

// runtime executes a built topology.
type runtime struct {
	components map[string]*component
	order      []string

	pending  atomic.Int64 // tuples queued or executing
	emitted  map[string]*atomic.Int64
	executed map[string]*atomic.Int64

	failMu   sync.Mutex
	failures []string
}

// recordFailure appends a recovered panic to the run's failure list.
func (rt *runtime) recordFailure(component string, task int, v any) {
	rt.failMu.Lock()
	rt.failures = append(rt.failures, fmt.Sprintf("%s[%d]: %v", component, task, v))
	rt.failMu.Unlock()
}

// Topology is a runnable instance built from a Builder.
type Topology struct {
	rt *runtime
}

// Build validates and assembles the topology.
func (b *Builder) Build() (*Topology, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	rt := &runtime{
		components: make(map[string]*component),
		order:      b.order,
		emitted:    make(map[string]*atomic.Int64),
		executed:   make(map[string]*atomic.Int64),
	}
	capacities := b.resolvedCapacities()
	for _, id := range b.order {
		decl := b.components[id]
		comp := &component{
			id:          id,
			parallelism: decl.parallelism,
			decl:        decl,
			edges:       make(map[string][]*edge),
		}
		if reg := b.telemetry; reg != nil {
			comp.telExec = reg.Counter(telemetry.Name("topology_tuples_executed_total", "component", id))
			comp.telEmit = reg.Counter(telemetry.Name("topology_tuples_emitted_total", "component", id))
			comp.telLat = reg.Histogram(telemetry.Name("topology_execute_seconds", "component", id))
		}
		for i := 0; i < decl.parallelism; i++ {
			box := newMailbox(capacities[id])
			if reg := b.telemetry; reg != nil {
				box.depth = reg.Gauge(telemetry.Name("topology_mailbox_depth", "component", id, "task", fmt.Sprint(i)))
				box.blockedNS = reg.Counter(telemetry.Name("topology_backpressure_blocked_ns_total", "component", id))
				box.blockedPuts = reg.Counter(telemetry.Name("topology_backpressure_blocked_puts_total", "component", id))
			}
			comp.boxes = append(comp.boxes, box)
		}
		rt.components[id] = comp
		rt.emitted[id] = &atomic.Int64{}
		rt.executed[id] = &atomic.Int64{}
	}
	// Resolve subscriptions into outbound edges on the sources.
	for _, id := range b.order {
		decl := b.components[id]
		for _, s := range decl.subs {
			src := rt.components[s.source]
			tgt := rt.components[id]
			src.edges[s.stream] = append(src.edges[s.stream], &edge{
				target:   id,
				grouping: s.grouping,
				fields:   s.fields,
				boxes:    tgt.boxes,
			})
		}
	}
	return &Topology{rt: rt}, nil
}

// collector routes emissions of one task.
type collector struct {
	rt   *runtime
	comp *component
	task int
}

func (c *collector) Emit(v Values) { c.EmitTo(DefaultStream, v) }

func (c *collector) EmitTo(stream string, v Values) {
	t := Tuple{Stream: stream, Source: c.comp.id, SourceTask: c.task, Values: v}
	var delivered int64
	for _, e := range c.comp.edges[stream] {
		for _, i := range TargetTasks(e.grouping, e.fields, v, len(e.boxes), &e.rr) {
			if c.deliver(e.boxes[i], t) {
				delivered++
			}
		}
	}
	c.rt.emitted[c.comp.id].Add(delivered)
	c.comp.telEmit.Add(delivered)
}

func (c *collector) EmitDirect(stream string, task int, v Values) {
	t := Tuple{Stream: stream, Source: c.comp.id, SourceTask: c.task, Values: v}
	var delivered int64
	for _, e := range c.comp.edges[stream] {
		if e.grouping != Direct {
			continue
		}
		if task < 0 || task >= len(e.boxes) {
			panic(fmt.Sprintf("topology: EmitDirect task %d out of range for %s (%d tasks)", task, e.target, len(e.boxes)))
		}
		if c.deliver(e.boxes[task], t) {
			delivered++
		}
	}
	c.rt.emitted[c.comp.id].Add(delivered)
	c.comp.telEmit.Add(delivered)
}

// deliver routes one tuple copy into a mailbox (blocking while the
// target is at capacity) and reports whether the copy was accepted.
func (c *collector) deliver(box *mailbox, t Tuple) bool {
	c.rt.pending.Add(1)
	if !box.put(t) {
		c.rt.pending.Add(-1)
		return false
	}
	return true
}

// Run executes the topology to completion: spouts run until exhausted,
// then the runtime waits for quiescence (no queued or executing tuples)
// and shuts all tasks down. It returns the run statistics.
func (t *Topology) Run() Stats {
	rt := t.rt
	var spoutWG, boltWG sync.WaitGroup

	// Start bolts first so mailboxes drain from the beginning.
	for _, id := range rt.order {
		comp := rt.components[id]
		if comp.decl.bolt == nil {
			continue
		}
		for i := 0; i < comp.parallelism; i++ {
			boltWG.Add(1)
			go func(comp *component, task int) {
				defer boltWG.Done()
				bolt := comp.decl.bolt(task)
				ctx := &TaskContext{Component: comp.id, Task: task, NumTasks: comp.parallelism, topo: rt}
				bolt.Prepare(ctx)
				col := &collector{rt: rt, comp: comp, task: task}
				if rec, ok := bolt.(Recoverer); ok {
					rec.Recover(col)
				}
				lat := comp.telLat // nil without a registry: no clock reads
				for {
					tuple, ok := comp.boxes[task].get()
					if !ok {
						break
					}
					var start time.Time
					if lat != nil {
						start = time.Now()
					}
					execute(rt, comp, task, bolt, tuple, col)
					if lat != nil {
						lat.Observe(time.Since(start))
					}
					comp.telExec.Inc()
					rt.executed[comp.id].Add(1)
					rt.pending.Add(-1)
				}
				bolt.Cleanup()
			}(comp, i)
		}
	}

	for _, id := range rt.order {
		comp := rt.components[id]
		if comp.decl.spout == nil {
			continue
		}
		for i := 0; i < comp.parallelism; i++ {
			spoutWG.Add(1)
			go func(comp *component, task int) {
				defer spoutWG.Done()
				spout := comp.decl.spout(task)
				ctx := &TaskContext{Component: comp.id, Task: task, NumTasks: comp.parallelism, topo: rt}
				spout.Open(ctx)
				col := &collector{rt: rt, comp: comp, task: task}
				for nextTuple(rt, comp, task, spout, col) {
					rt.pace()
				}
				spout.Close()
			}(comp, i)
		}
	}

	stopTickers := rt.startTickers()
	spoutWG.Wait()
	stopTickers()
	// Quiescence: wait until no tuple is queued or executing. The
	// pending counter is incremented at delivery and decremented after
	// execution, so pending == 0 once spouts stopped means the DAG (and
	// any feedback cycle) has fully drained. Bounded mailboxes keep
	// this correct: a producer blocked in put has already counted the
	// copy it is delivering (and, for bolts, still holds the count of
	// the tuple it is executing), so pending stays positive until the
	// consumer drains the box and the producer finishes.
	for rt.pending.Load() != 0 {
		time.Sleep(200 * time.Microsecond)
	}
	for _, id := range rt.order {
		for _, box := range rt.components[id].boxes {
			box.close()
		}
	}
	boltWG.Wait()

	stats := Stats{Emitted: make(map[string]int64), Executed: make(map[string]int64)}
	for id := range rt.components {
		stats.Emitted[id] = rt.emitted[id].Load()
		stats.Executed[id] = rt.executed[id].Load()
	}
	stats.Failures = rt.failures
	return stats
}

// spoutHighWater is the number of queued or executing tuples above
// which spouts stop emitting. Mailboxes are unbounded unless
// Builder.MaxPending is set, and components on a feedback cycle are
// unbounded even then, so without it a source that outruns the
// pipeline parks its whole input in the first mailboxes and the queue
// becomes the peak heap. Large enough that no task runs dry while a
// spout sleeps.
const spoutHighWater = 4096

// pace holds a spout back while more than spoutHighWater tuples are in
// flight. The tuples in flight do not depend on the spout, so the count
// falls without it; the wait is the parked poll Run's quiescence wait
// uses.
func (rt *runtime) pace() {
	for rt.pending.Load() > spoutHighWater {
		time.Sleep(200 * time.Microsecond)
	}
}

// execute runs one bolt invocation, recovering panics so a poisoned
// tuple cannot take the topology down.
func execute(rt *runtime, comp *component, task int, bolt Bolt, tuple Tuple, col Collector) {
	defer func() {
		if r := recover(); r != nil {
			rt.recordFailure(comp.id, task, r)
		}
	}()
	bolt.Execute(tuple, col)
}

// nextTuple runs one spout invocation; a panicking spout stops
// emitting but the rest of the topology drains normally.
func nextTuple(rt *runtime, comp *component, task int, spout Spout, col Collector) (more bool) {
	defer func() {
		if r := recover(); r != nil {
			rt.recordFailure(comp.id, task, r)
			more = false
		}
	}()
	return spout.NextTuple(col)
}
