package topology

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/state"
	"repro/internal/telemetry"
)

// The executor hosts tasks: it is the one place where a bolt is
// started, stepped and stopped, a spout pumps NextTuple, an emission is
// resolved against the subscriptions, and a copy is counted from send
// to execution. The in-process Topology runs every task on a goroutine
// and puts copies straight into the target mailboxes; a cluster worker
// hands every copy to its transport through the deliver seam, which
// puts it into a local mailbox or sends it to a peer; RunSequential
// steps every task on the calling goroutine under a schedule.

// Mailbox is a task's FIFO queue with blocking receive and, when
// capacity is positive, blocking send: a producer delivering into a
// full mailbox waits until the consumer drains it, which propagates
// backpressure upstream hop by hop until the spout itself slows down.
// On a cluster worker the producer can be the read loop of a peer
// connection, so a full mailbox stops reading the socket and TCP flow
// control pushes back on the remote sender. Capacity 0 keeps the
// unbounded behaviour. Components on a feedback cycle (the paper's
// Assigner<->Merger loop) are always built unbounded — see
// Builder.MaxPending.
type Mailbox struct {
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

func newMailbox(capacity int) *Mailbox {
	m := &Mailbox{capacity: capacity}
	m.notEmpty = sync.NewCond(&m.mu)
	m.notFull = sync.NewCond(&m.mu)
	return m
}

// Put appends t, blocking while the mailbox is at capacity. It reports
// whether the tuple was accepted; false means the mailbox closed.
func (m *Mailbox) Put(t Tuple) bool {
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

// get blocks for the next tuple; false means the mailbox closed and is
// drained.
func (m *Mailbox) get() (Tuple, bool) {
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

// Close refuses further puts and lets the consumer drain what is
// queued, after which its loop exits.
func (m *Mailbox) Close() {
	m.mu.Lock()
	m.closed = true
	m.notEmpty.Broadcast()
	m.notFull.Broadcast()
	m.mu.Unlock()
}

// Peak reports the mailbox's high-water mark.
func (m *Mailbox) Peak() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// DropReason names why a sent copy was never executed. The set is
// closed: every copy the executor counts as sent ends up executed or
// dropped for one of these reasons.
type DropReason int

const (
	// DropUnhosted: the copy reached a worker that does not host its
	// target task and could not be forwarded.
	DropUnhosted DropReason = iota
	// DropPeerClosed: the link to the target's worker is shut down.
	DropPeerClosed
	// DropMailboxClosed: the target task's mailbox already closed.
	DropMailboxClosed
	numDropReasons
)

var dropReasonNames = [numDropReasons]string{"unhosted", "peer_closed", "mailbox_closed"}

// String is the reason's telemetry label value.
func (r DropReason) String() string { return dropReasonNames[r] }

// Stats aggregates per-component counters after a run.
type Stats struct {
	// Emitted counts delivered tuple copies per emitting component: an
	// emission on a stream with no subscribers, or a dropped copy, does
	// not count, so Emitted matches what the downstream components
	// actually received.
	Emitted  map[string]int64
	Executed map[string]int64
	// SentCopies, ExecCopies and DroppedCopies are the conservation
	// ledger: every copy routed towards a task is sent once and then
	// either executed or dropped, so a clean termination has
	// SentCopies == ExecCopies + DroppedCopies.
	SentCopies    int64
	ExecCopies    int64
	DroppedCopies int64
	// Failures records panics recovered in tasks
	// ("component[task]: message"; a cluster worker appends "@wN" to
	// the task). A failed tuple is dropped and the task keeps running;
	// a failed spout stops emitting.
	Failures []string
}

// edge is a resolved subscription on its source component.
type edge struct {
	target   string
	nTasks   int
	grouping GroupingKind
	fields   []string
	// boxes are the target's mailboxes in-process; nil on a cluster
	// worker, whose copies go through the deliver seam.
	boxes []*Mailbox
	rr    atomic.Uint64 // round-robin cursor for shuffle
}

type component struct {
	spec  ComponentSpec
	spout SpoutFactory
	bolt  BoltFactory
	// edges by stream id.
	edges map[string][]*edge

	emitted atomic.Int64
	// taskExec counts executions per task slot hosted here; a
	// component's Executed is their sum.
	taskExec []atomic.Int64

	// Live instruments (nil when telemetry is off).
	telExec *telemetry.Counter
	telEmit *telemetry.Counter
	telLat  *telemetry.Histogram
}

// Executor runs the tasks of one Builder's components.
type Executor struct {
	comps       map[string]*component
	order       []*component
	parallelism map[string]int

	// worker is "" in-process and a cluster worker's id otherwise; it
	// tags failures and selects the host's series names.
	worker string
	// deliver takes every copy on a cluster worker and on the
	// sequential host; nil in-process.
	deliver func(target string, task int, t Tuple) bool
	// gate runs before every NextTuple; false stops the spout.
	gate func(Spout) bool

	// The conservation ledger (see Ledger).
	sent     atomic.Int64
	executed atomic.Int64
	dropped  [numDropReasons]atomic.Int64

	reg         *telemetry.Registry
	telSent     *telemetry.Counter
	telExecuted *telemetry.Counter
	telDropped  [numDropReasons]*telemetry.Counter

	failMu   sync.Mutex
	failures []string
}

// NewExecutor resolves b's components and subscriptions for hosting on
// cluster worker id worker. deliver routes every copy an emission
// produces (placement lookup, then a local mailbox put or a peer send)
// and reports whether it was accepted; gate runs before each NextTuple
// and stops the spout when it returns false.
func NewExecutor(b *Builder, worker int, deliver func(target string, task int, t Tuple) bool, gate func(Spout) bool) (*Executor, error) {
	x, err := newExecutor(b)
	if err != nil {
		return nil, err
	}
	x.worker = strconv.Itoa(worker)
	x.deliver, x.gate = deliver, gate
	return x, nil
}

func newExecutor(b *Builder) (*Executor, error) {
	spec, err := b.Spec()
	if err != nil {
		return nil, err
	}
	x := &Executor{
		comps:       make(map[string]*component, len(spec)),
		parallelism: make(map[string]int, len(spec)),
	}
	for _, s := range spec {
		c := &component{
			spec:     s,
			spout:    b.components[s.ID].spout,
			bolt:     b.components[s.ID].bolt,
			edges:    make(map[string][]*edge),
			taskExec: make([]atomic.Int64, s.Parallelism),
		}
		x.comps[s.ID] = c
		x.order = append(x.order, c)
		x.parallelism[s.ID] = s.Parallelism
	}
	for _, s := range spec {
		for _, sub := range s.Subs {
			src := x.comps[sub.Source]
			src.edges[sub.Stream] = append(src.edges[sub.Stream], &edge{
				target:   s.ID,
				nTasks:   s.Parallelism,
				grouping: sub.Grouping,
				fields:   sub.Fields,
			})
		}
	}
	return x, nil
}

// Instrument attaches live metrics in reg (nil keeps every instrument a
// no-op): per-component executed/emitted counters and execute latency,
// and on a cluster worker the copy ledger. Call it before any task is
// created or run; mailboxes created afterwards get depth and blocked-
// time instruments.
func (x *Executor) Instrument(reg *telemetry.Registry) {
	x.reg = reg
	if reg == nil {
		return
	}
	for _, c := range x.order {
		c.telExec = reg.Counter(x.series("topology_tuples_executed_total", "component", c.spec.ID))
		c.telEmit = reg.Counter(x.series("topology_tuples_emitted_total", "component", c.spec.ID))
		// No worker label: the workers' histograms merge into the one
		// series a single-process run reports.
		c.telLat = reg.Histogram(telemetry.Name("topology_execute_seconds", "component", c.spec.ID))
	}
	if x.worker == "" {
		return
	}
	x.telSent = reg.Counter(x.series("cluster_copies_sent_total"))
	x.telExecuted = reg.Counter(x.series("cluster_copies_executed_total"))
	for r := range x.telDropped {
		x.telDropped[r] = reg.Counter(x.series("cluster_copies_dropped_total", "reason", DropReason(r).String()))
	}
}

// series names an instrument: the in-process runtime's plain name, or
// a cluster worker's name with a trailing worker label, so scrapes from
// different workers stay distinguishable after aggregation.
func (x *Executor) series(base string, labels ...string) string {
	if x.worker != "" {
		labels = append(labels, "worker", x.worker)
	}
	return telemetry.Name(base, labels...)
}

// Task is one hosted task: a bolt and its mailbox, or a spout.
type Task struct {
	Bolt  Bolt
	Box   *Mailbox
	spout Spout
	comp  *component
	index int
	col   *collector
}

// NewTask builds bolt task index of comp with a fresh, instrumented
// mailbox; nil when comp is not a bolt or index is out of range.
func (x *Executor) NewTask(comp string, index int) *Task {
	c, ok := x.comps[comp]
	if !ok || c.bolt == nil || index < 0 || index >= c.spec.Parallelism {
		return nil
	}
	box := newMailbox(c.spec.MaxPending)
	if reg := x.reg; reg != nil {
		task := strconv.Itoa(index)
		if x.worker == "" {
			box.depth = reg.Gauge(telemetry.Name("topology_mailbox_depth", "component", comp, "task", task))
			box.blockedNS = reg.Counter(telemetry.Name("topology_backpressure_blocked_ns_total", "component", comp))
			box.blockedPuts = reg.Counter(telemetry.Name("topology_backpressure_blocked_puts_total", "component", comp))
		} else {
			box.depth = reg.Gauge(telemetry.Name("cluster_mailbox_depth", "worker", x.worker, "component", comp, "task", task))
			box.blockedNS = reg.Counter(telemetry.Name("cluster_backpressure_blocked_ns_total", "worker", x.worker, "component", comp))
			box.blockedPuts = reg.Counter(telemetry.Name("cluster_backpressure_blocked_puts_total", "worker", x.worker, "component", comp))
		}
	}
	return &Task{Bolt: c.bolt(index), Box: box, comp: c, index: index}
}

func (x *Executor) context(c *component, task int) *TaskContext {
	return &TaskContext{Component: c.spec.ID, Task: task, NumTasks: c.spec.Parallelism, Parallelism: x.parallelism}
}

// RunBolt runs t until its mailbox closes and drains.
func (x *Executor) RunBolt(t *Task, restore []byte, moved func() bool) {
	x.startBolt(t, restore)
	for tuple, ok := t.Box.get(); ok; tuple, ok = t.Box.get() {
		x.stepBolt(t, tuple)
	}
	x.stopBolt(t, moved)
}

// startBolt runs Prepare, then restores a migrated snapshot (restore
// non-nil, empty for a stateless bolt: nothing crashed, so Recover's
// re-emission would duplicate downstream state) or calls Recover.
func (x *Executor) startBolt(t *Task, restore []byte) {
	c := t.comp
	t.Bolt.Prepare(x.context(c, t.index))
	t.col = &collector{x: x, c: c, task: t.index}
	if restore != nil {
		if s, ok := t.Bolt.(state.Snapshotter); ok && len(restore) > 0 {
			if err := state.Decode(c.spec.ID, restore, s); err != nil {
				x.Fail(c.spec.ID, t.index, err)
			}
		}
	} else if rec, ok := t.Bolt.(Recoverer); ok {
		rec.Recover(t.col)
	}
}

// stepBolt executes one tuple, recovering a panic so a poisoned tuple
// cannot take the host down, and observes and counts it.
func (x *Executor) stepBolt(t *Task, tuple Tuple) {
	c := t.comp
	lat := c.telLat // nil without a registry: no clock reads
	var start time.Time
	if lat != nil {
		start = time.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			x.Fail(c.spec.ID, t.index, r)
		}
		if lat != nil {
			lat.Observe(time.Since(start))
		}
		c.taskExec[t.index].Add(1)
		c.telExec.Inc()
		x.executed.Add(1)
		x.telExecuted.Inc()
	}()
	t.Bolt.Execute(tuple, t.col)
}

// stopBolt runs Cleanup unless moved reports the task is relocating.
func (x *Executor) stopBolt(t *Task, moved func() bool) {
	if moved == nil || !moved() {
		t.Bolt.Cleanup()
	}
}

// RunSpout pumps spout task index of comp while the host's gate admits
// it and the spout has more; a panicking spout stops emitting.
func (x *Executor) RunSpout(comp string, index int) {
	s := x.openSpout(x.comps[comp], index)
	for x.gate(s.spout) && x.nextSpout(s) {
	}
	s.spout.Close()
}

// openSpout builds spout task index of c and opens it.
func (x *Executor) openSpout(c *component, index int) *Task {
	s := &Task{spout: c.spout(index), comp: c, index: index, col: &collector{x: x, c: c, task: index}}
	s.spout.Open(x.context(c, index))
	return s
}

// nextSpout runs one NextTuple, recovering a panic as the spout's end.
func (x *Executor) nextSpout(s *Task) (more bool) {
	defer func() {
		if r := recover(); r != nil {
			x.Fail(s.comp.spec.ID, s.index, r)
		}
	}()
	return s.spout.NextTuple(s.col)
}

// Fail records a failure of one task: a recovered panic, or an error
// the host met on the task's behalf.
func (x *Executor) Fail(comp string, task int, v any) {
	at := ""
	if x.worker != "" {
		at = "@w" + x.worker
	}
	x.failMu.Lock()
	x.failures = append(x.failures, fmt.Sprintf("%s[%d]%s: %v", comp, task, at, v))
	x.failMu.Unlock()
}

// Drop settles one sent copy that will never execute.
func (x *Executor) Drop(r DropReason) {
	x.dropped[r].Add(1)
	x.telDropped[r].Inc()
}

// Ledger reports the copies sent, executed and dropped so far. They
// balance (sent == executed + dropped) exactly when nothing is queued,
// executing or in flight. Settled copies are read first: a copy sent
// after that read only raises sent, so the ledger cannot balance while
// anything is still in flight.
func (x *Executor) Ledger() (sent, executed, dropped int64) {
	executed = x.executed.Load()
	for r := range x.dropped {
		dropped += x.dropped[r].Load()
	}
	return x.sent.Load(), executed, dropped
}

// pending is the number of copies queued or executing.
func (x *Executor) pending() int64 {
	sent, executed, dropped := x.Ledger()
	return sent - executed - dropped
}

// TaskExecuted reports how many tuples task slot index of comp has
// executed on this host.
func (x *Executor) TaskExecuted(comp string, index int) int64 {
	if c, ok := x.comps[comp]; ok && index >= 0 && index < len(c.taskExec) {
		return c.taskExec[index].Load()
	}
	return 0
}

// Stats snapshots the per-component counters, the ledger and the
// failures.
func (x *Executor) Stats() Stats {
	s := Stats{Emitted: make(map[string]int64), Executed: make(map[string]int64)}
	for _, c := range x.order {
		s.Emitted[c.spec.ID] = c.emitted.Load()
		for i := range c.taskExec {
			s.Executed[c.spec.ID] += c.taskExec[i].Load()
		}
	}
	s.SentCopies, s.ExecCopies, s.DroppedCopies = x.Ledger()
	x.failMu.Lock()
	s.Failures = append([]string(nil), x.failures...)
	x.failMu.Unlock()
	return s
}

// collector routes the emissions of one task.
type collector struct {
	x    *Executor
	c    *component
	task int
}

// Discard is a Collector that belongs to no topology: what is emitted
// into it goes nowhere. It serves tasks driven by hand.
var Discard Collector = &collector{x: &Executor{}, c: &component{}}

func (c *collector) Emit(v Values) { c.EmitTo(DefaultStream, v) }

func (c *collector) EmitTo(stream string, v Values) {
	t := Tuple{Stream: stream, Source: c.c.spec.ID, SourceTask: c.task, Values: v}
	var delivered int64
	for _, e := range c.c.edges[stream] {
		for _, i := range TargetTasks(e.grouping, e.fields, v, e.nTasks, &e.rr) {
			if c.x.send(e, i, t) {
				delivered++
			}
		}
	}
	c.c.emitted.Add(delivered)
	c.c.telEmit.Add(delivered)
}

func (c *collector) EmitDirect(stream string, task int, v Values) {
	t := Tuple{Stream: stream, Source: c.c.spec.ID, SourceTask: c.task, Values: v}
	var delivered int64
	for _, e := range c.c.edges[stream] {
		if e.grouping != Direct {
			continue
		}
		if task < 0 || task >= e.nTasks {
			panic(fmt.Sprintf("topology: EmitDirect task %d out of range for %s (%d tasks)", task, e.target, e.nTasks))
		}
		if c.x.send(e, task, t) {
			delivered++
		}
	}
	c.c.emitted.Add(delivered)
	c.c.telEmit.Add(delivered)
}

// send counts one copy and delivers it: through the host's seam on a
// cluster worker, straight into the target mailbox in-process. It
// reports whether the copy was accepted.
func (x *Executor) send(e *edge, task int, t Tuple) bool {
	x.sent.Add(1)
	x.telSent.Inc()
	if x.deliver != nil {
		return x.deliver(e.target, task, t)
	}
	if e.boxes[task].Put(t) {
		return true
	}
	x.Drop(DropMailboxClosed)
	return false
}
