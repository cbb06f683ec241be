// Package topology is a from-scratch stream-processing substrate
// modelled on Apache Storm's programming primitives, which the paper's
// system is built on: topologies of spouts and bolts connected by
// stream subscriptions with shuffle, fields, all and direct groupings
// (paper Sec. III-B). Tasks run on a goroutine each, or all on one
// under a seeded schedule (RunSequential, for tests); either way every
// task runs sequentially and every edge delivers in FIFO order.
//
// Mailboxes are unbounded by default and can be capped like Storm's
// transfer buffers (Builder.MaxPending, BoltDecl.MaxPending): a
// producer emitting into a full mailbox blocks until the consumer
// drains. The paper's topology contains feedback edges (Assigner ->
// Merger for partition updates, Merger -> Assigner for new partition
// tables), and a bounded mailbox on a cycle can deadlock, so the
// builder keeps every component reachable from its own subscribers
// unbounded whatever the cap says. Shutdown uses quiescence detection:
// once all spouts are exhausted and no tuple is queued or executing,
// the topology stops.
package topology

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultStream is the stream id used when none is specified.
const DefaultStream = "default"

// Values is the named-value payload of a tuple, Storm's "list of named
// values".
type Values map[string]any

// Tuple is the unit of data flowing between components.
type Tuple struct {
	// Stream is the named stream the tuple was emitted on.
	Stream string
	// Source is the emitting component id.
	Source string
	// SourceTask is the emitting task index within the component.
	SourceTask int
	// Values carries the payload.
	Values Values
}

// String renders the tuple for debugging.
func (t Tuple) String() string {
	keys := make([]string, 0, len(t.Values))
	for k := range t.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s[%d]{", t.Source, t.Stream, t.SourceTask)
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%v", k, t.Values[k])
	}
	b.WriteByte('}')
	return b.String()
}

// GroupingKind enumerates Storm's stream groupings used by the paper.
type GroupingKind int

const (
	// Shuffle distributes tuples evenly across the subscriber's tasks
	// (round-robin per producer).
	Shuffle GroupingKind = iota
	// Fields routes tuples with equal values of the grouping fields to
	// the same task.
	Fields
	// All replicates every tuple to every task of the subscriber.
	All
	// Direct lets the producer choose the receiving task explicitly
	// via Collector.EmitDirect.
	Direct
	// Global routes every tuple to task 0 of the subscriber (used for
	// the single-instance Merger).
	Global
)

// String names the grouping.
func (g GroupingKind) String() string {
	switch g {
	case Shuffle:
		return "shuffle"
	case Fields:
		return "fields"
	case All:
		return "all"
	case Direct:
		return "direct"
	case Global:
		return "global"
	default:
		return fmt.Sprintf("grouping(%d)", int(g))
	}
}

// TaskContext identifies a running task and its surroundings.
type TaskContext struct {
	// Component is the component id from the builder.
	Component string
	// Task is this task's index in [0, NumTasks).
	Task int
	// NumTasks is the component's parallelism.
	NumTasks int
	// Parallelism maps component ids to task counts.
	Parallelism map[string]int
}

// NumTasksOf reports the parallelism of another component (0 if
// unknown); the Assigner uses it to direct-route to Joiner tasks.
func (c *TaskContext) NumTasksOf(component string) int {
	return c.Parallelism[component]
}

// Spout is a stream source. NextTuple emits zero or more tuples and
// returns false when the source is exhausted; it is called repeatedly
// from the task's own goroutine.
type Spout interface {
	Open(ctx *TaskContext)
	NextTuple(c Collector) bool
	Close()
}

// Bolt processes tuples and optionally emits new ones.
type Bolt interface {
	Prepare(ctx *TaskContext)
	Execute(t Tuple, c Collector)
	Cleanup()
}

// Collector emits tuples into the topology, routing them to all
// subscribers of the (component, stream) pair according to their
// groupings.
type Collector interface {
	// Emit sends values on the default stream.
	Emit(v Values)
	// EmitTo sends values on a named stream.
	EmitTo(stream string, v Values)
	// EmitDirect sends values on a named stream to one specific task
	// of each direct-grouped subscriber.
	EmitDirect(stream string, task int, v Values)
}
