package topology

import (
	"fmt"

	"repro/internal/telemetry"
)

// SpoutFactory builds one spout instance per task.
type SpoutFactory func(task int) Spout

// BoltFactory builds one bolt instance per task.
type BoltFactory func(task int) Bolt

// subscription is one inbound edge of a bolt.
type subscription struct {
	source   string
	stream   string
	grouping GroupingKind
	fields   []string // for Fields grouping
}

type componentDecl struct {
	id          string
	parallelism int
	spout       SpoutFactory
	bolt        BoltFactory
	subs        []subscription
	// maxPending, when set, overrides the builder default mailbox
	// capacity for this component (0 = unbounded).
	maxPending *int
}

// Builder assembles a topology declaratively, mirroring Storm's
// TopologyBuilder.
type Builder struct {
	order      []string
	components map[string]*componentDecl
	err        error

	// maxPending is the default mailbox capacity (0 = unbounded).
	maxPending int

	// telemetry, when set, instruments the built runtime (see
	// Builder.Telemetry).
	telemetry *telemetry.Registry
}

// NewBuilder creates an empty topology builder.
func NewBuilder() *Builder {
	return &Builder{components: make(map[string]*componentDecl)}
}

func (b *Builder) add(id string, parallelism int) *componentDecl {
	if b.err != nil {
		return &componentDecl{}
	}
	if parallelism < 1 {
		b.err = fmt.Errorf("topology: component %q parallelism %d < 1", id, parallelism)
		return &componentDecl{}
	}
	if _, dup := b.components[id]; dup {
		b.err = fmt.Errorf("topology: duplicate component id %q", id)
		return &componentDecl{}
	}
	c := &componentDecl{id: id, parallelism: parallelism}
	b.components[id] = c
	b.order = append(b.order, id)
	return c
}

// SetSpout declares a spout component with the given parallelism.
func (b *Builder) SetSpout(id string, f SpoutFactory, parallelism int) {
	c := b.add(id, parallelism)
	c.spout = f
}

// BoltDecl allows chaining grouping declarations onto a bolt.
type BoltDecl struct {
	b *Builder
	c *componentDecl
}

// SetBolt declares a bolt component with the given parallelism.
func (b *Builder) SetBolt(id string, f BoltFactory, parallelism int) *BoltDecl {
	c := b.add(id, parallelism)
	c.bolt = f
	return &BoltDecl{b: b, c: c}
}

func (d *BoltDecl) sub(source, stream string, g GroupingKind, fields ...string) *BoltDecl {
	d.c.subs = append(d.c.subs, subscription{source: source, stream: stream, grouping: g, fields: fields})
	return d
}

// ShuffleGrouping subscribes to source's stream with shuffle grouping.
func (d *BoltDecl) ShuffleGrouping(source string, stream ...string) *BoltDecl {
	return d.sub(source, streamOf(stream), Shuffle)
}

// FieldsGrouping subscribes with fields grouping on the given fields of
// the source's default stream.
func (d *BoltDecl) FieldsGrouping(source string, fields ...string) *BoltDecl {
	return d.sub(source, DefaultStream, Fields, fields...)
}

// FieldsGroupingOn subscribes with fields grouping on a named stream.
func (d *BoltDecl) FieldsGroupingOn(source, stream string, fields ...string) *BoltDecl {
	return d.sub(source, stream, Fields, fields...)
}

// AllGrouping subscribes with all grouping (every task receives every
// tuple).
func (d *BoltDecl) AllGrouping(source string, stream ...string) *BoltDecl {
	return d.sub(source, streamOf(stream), All)
}

// DirectGrouping subscribes with direct grouping: the producer selects
// the receiving task via EmitDirect.
func (d *BoltDecl) DirectGrouping(source string, stream ...string) *BoltDecl {
	return d.sub(source, streamOf(stream), Direct)
}

// GlobalGrouping routes the whole stream to task 0.
func (d *BoltDecl) GlobalGrouping(source string, stream ...string) *BoltDecl {
	return d.sub(source, streamOf(stream), Global)
}

// MaxPending bounds every task mailbox to n queued tuples; a producer
// delivering into a full mailbox blocks until the consumer drains it,
// so overload backpressures upstream to the spouts instead of growing
// queues without limit. n = 0 (the default) keeps mailboxes unbounded.
//
// Deadlock carve-out: components that lie on a directed cycle of the
// subscription graph (e.g. the paper's Assigner<->Merger control loop)
// always keep unbounded mailboxes regardless of this setting — a
// bounded cycle could block on itself. Their traffic is low-rate
// control-plane state, so boundedness matters only on the acyclic
// data path.
func (b *Builder) MaxPending(n int) *Builder {
	if n < 0 {
		b.err = fmt.Errorf("topology: MaxPending %d < 0", n)
		return b
	}
	b.maxPending = n
	return b
}

// MaxPending overrides the builder-wide mailbox capacity for this bolt
// (0 = unbounded). Components on a feedback cycle stay unbounded even
// with an explicit override.
func (d *BoltDecl) MaxPending(n int) *BoltDecl {
	if n < 0 {
		d.b.err = fmt.Errorf("topology: component %q MaxPending %d < 0", d.c.id, n)
		return d
	}
	n2 := n
	d.c.maxPending = &n2
	return d
}

// Telemetry instruments the built runtime with live metrics in reg:
// per-component executed/emitted tuple counters and execute-latency
// histograms, per-task mailbox depth gauges, and blocked-on-
// backpressure time per component. A nil registry (the default) keeps
// every instrument a no-op.
func (b *Builder) Telemetry(reg *telemetry.Registry) *Builder {
	b.telemetry = reg
	return b
}

func streamOf(stream []string) string {
	if len(stream) == 0 {
		return DefaultStream
	}
	return stream[0]
}

// cycleComponents returns the components that lie on a directed cycle
// of the subscription graph (tuple flow: source -> subscriber). These
// are the control-plane feedback loops that must keep unbounded
// mailboxes; bounding a cycle could deadlock it against itself.
func (b *Builder) cycleComponents() map[string]bool {
	succ := make(map[string][]string, len(b.order))
	for _, id := range b.order {
		for _, s := range b.components[id].subs {
			succ[s.source] = append(succ[s.source], id)
		}
	}
	onCycle := make(map[string]bool)
	for _, id := range b.order {
		// id is on a cycle iff it is reachable from its own successors.
		stack := append([]string(nil), succ[id]...)
		seen := make(map[string]bool)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == id {
				onCycle[id] = true
				break
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, succ[n]...)
		}
	}
	return onCycle
}

// resolvedCapacities maps every component to its effective mailbox
// capacity: 0 (unbounded) on a feedback cycle, else the component
// override, else the builder default.
func (b *Builder) resolvedCapacities() map[string]int {
	onCycle := b.cycleComponents()
	out := make(map[string]int, len(b.order))
	for _, id := range b.order {
		c := b.components[id]
		switch {
		case onCycle[id]:
			out[id] = 0
		case c.maxPending != nil:
			out[id] = *c.maxPending
		default:
			out[id] = b.maxPending
		}
	}
	return out
}

// validate checks structural integrity before building the runtime.
func (b *Builder) validate() error {
	if b.err != nil {
		return b.err
	}
	for _, id := range b.order {
		c := b.components[id]
		if c.spout == nil && c.bolt == nil {
			return fmt.Errorf("topology: component %q has no implementation", id)
		}
		for _, s := range c.subs {
			src, ok := b.components[s.source]
			if !ok {
				return fmt.Errorf("topology: %q subscribes to unknown component %q", id, s.source)
			}
			if src == c {
				return fmt.Errorf("topology: %q subscribes to itself", id)
			}
			if s.grouping == Fields && len(s.fields) == 0 {
				return fmt.Errorf("topology: %q fields grouping on %q without fields", id, s.source)
			}
		}
	}
	return nil
}
