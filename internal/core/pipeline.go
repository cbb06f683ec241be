package core

import (
	"fmt"

	"repro/internal/document"
	"repro/internal/expansion"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/telemetry"
)

// Pipeline is the single-process façade over the paper's algorithms:
// feed JSON documents in, receive natural-join results out, windows
// tumbling on demand. It is the entry point for library users who want
// the schema-free join without the scale-out topology.
//
// Pipeline is not safe for concurrent use.
type Pipeline struct {
	windowed *join.Windowed
	nextID   uint64
}

// NewPipeline creates a pipeline with the given join engine ("FPJ",
// "NLJ", "HBJ"); the empty string selects FPJ.
func NewPipeline(engine string) (*Pipeline, error) {
	if engine == "" {
		engine = "FPJ"
	}
	eng, err := join.New(engine)
	if err != nil {
		return nil, err
	}
	return &Pipeline{windowed: join.NewWindowed(eng), nextID: 1}, nil
}

// Instrument attaches live telemetry to the pipeline's joiner under the
// single-task join_* series (the same vocabulary the scale-out joiners
// publish per task). A nil registry detaches all instruments.
func (p *Pipeline) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		p.windowed.SetInstruments(join.Instruments{})
		return
	}
	p.windowed.SetInstruments(join.Instruments{
		ProbeSeconds: reg.Histogram("join_probe_seconds"),
		Results:      reg.Counter("join_results_total"),
		Duplicates:   reg.Counter("join_duplicates_total"),
		WindowDocs:   reg.Gauge("join_window_docs"),
		TreeNodes:    reg.Gauge("join_fptree_nodes"),
	})
}

// Process matches a document against the current window and stores it,
// returning all join results it produced.
func (p *Pipeline) Process(d document.Document) []join.Result {
	return p.windowed.Process(d)
}

// ProcessJSON parses one JSON object, assigns it the next document id
// and processes it.
func (p *Pipeline) ProcessJSON(data []byte) ([]join.Result, error) {
	d, err := document.Parse(p.nextID, data)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p.nextID++
	return p.Process(d), nil
}

// Tumble closes the current window, evicting all stored documents, and
// reports how many documents and join pairs the window held.
func (p *Pipeline) Tumble() (docs, pairs int) { return p.windowed.Tumble() }

// Size reports the number of documents in the current window.
func (p *Pipeline) Size() int { return p.windowed.Size() }

// PlanPartitions exposes the partitioning stage as a library call: it
// computes the m partitions for a sample batch with the chosen
// algorithm and expansion mode and returns the routing table plus the
// expansion in effect (nil when none applies).
func PlanPartitions(docs []document.Document, m int, p partition.Partitioner, mode ExpansionMode) (*partition.Table, *expansion.Expansion) {
	if p == nil {
		p = partition.AssociationGroups{}
	}
	var spec *expansion.Expansion
	switch mode {
	case ExpansionOff:
	case ExpansionForced:
		spec = expansion.AnalyzeForced(docs, m)
	default:
		spec = expansion.Analyze(docs, m)
	}
	table := p.Partition(spec.ApplyBatch(docs), m)
	return table, spec
}

// RouteDocument returns the machines a document is forwarded to under
// a planned table and expansion: matching partitions, or all machines
// (broadcast=true) when the document is not fully covered or cannot
// form the synthetic attribute. A broadcast's target list is shared and
// must not be written.
func RouteDocument(table *partition.Table, spec *expansion.Expansion, d document.Document) (targets []int, broadcast bool) {
	syms := d.InternedPairs()
	drop, synthetic, ok := spec.Synthetic(syms)
	if !ok {
		return table.All(), true
	}
	return table.RouteExpanded(syms, drop, synthetic)
}
