package topology

// The Spec types expose a topology's declarative structure: the
// executor resolves its edges from it, and the TCP cluster runtime
// (internal/cluster) derives its task placement from it.

// SubscriptionSpec describes one inbound edge of a component.
type SubscriptionSpec struct {
	Source   string
	Stream   string
	Grouping GroupingKind
	Fields   []string
}

// ComponentSpec describes one declared component.
type ComponentSpec struct {
	ID          string
	Parallelism int
	IsSpout     bool
	Subs        []SubscriptionSpec
	// MaxPending is the resolved mailbox capacity for the component's
	// tasks (0 = unbounded). Components on a feedback cycle are always
	// 0 — see Builder.MaxPending.
	MaxPending int
}

// Spec returns the declared components in declaration order, after
// validation.
func (b *Builder) Spec() ([]ComponentSpec, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	out := make([]ComponentSpec, 0, len(b.order))
	capacities := b.resolvedCapacities()
	for _, id := range b.order {
		c := b.components[id]
		spec := ComponentSpec{
			ID:          id,
			Parallelism: c.parallelism,
			IsSpout:     c.spout != nil,
			MaxPending:  capacities[id],
		}
		for _, s := range c.subs {
			spec.Subs = append(spec.Subs, SubscriptionSpec{
				Source:   s.source,
				Stream:   s.stream,
				Grouping: s.grouping,
				Fields:   append([]string(nil), s.fields...),
			})
		}
		out = append(out, spec)
	}
	return out, nil
}
