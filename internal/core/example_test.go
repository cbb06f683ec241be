package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/join"
	"repro/internal/partition"
)

// ExamplePipeline joins the paper's Fig. 1 documents with the FP-tree
// engine through the single-process façade.
func ExamplePipeline() {
	p, err := core.NewPipeline("FPJ")
	if err != nil {
		log.Fatal(err)
	}
	p.ProcessJSON([]byte(`{"User":"A","Severity":"Warning"}`))
	results, _ := p.ProcessJSON([]byte(`{"User":"A","Severity":"Warning","MsgId":2}`))
	for _, r := range results {
		msgID, _ := r.Merged.Lookup("MsgId")
		fmt.Printf("d%d joins d%d, MsgId=%s\n", r.Left, r.Right, msgID)
	}
	docs, pairs := p.Tumble()
	fmt.Printf("%d documents, %d pairs\n", docs, pairs)
	// Output:
	// d1 joins d2, MsgId=2
	// 2 documents, 1 pairs
}

// ExampleRunner_Run streams two windows of synthetic server logs
// through the full scale-out topology.
func ExampleRunner_Run() {
	report, err := core.NewRunner(core.Config{
		M:           4,
		WindowSize:  200,
		Windows:     2,
		Partitioner: partition.AssociationGroups{},
		Source:      datagen.NewServerLog(1),
		OnResult:    func(join.Result) {}, // receives every joined pair
	}).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("windows=%d joins>0=%v\n", len(report.Run.Windows), report.JoinPairs > 0)
	// Output:
	// windows=2 joins>0=true
}
