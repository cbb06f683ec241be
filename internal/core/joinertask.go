package core

import (
	"repro/internal/document"
	"repro/internal/join"
	"repro/internal/topology"
)

// JoinerTask is one Joiner task driven by hand, outside a topology:
// documents arrive with the target lists an Assigner attached, and
// CloseWindow plays the Assigner's punctuation. The root
// BenchmarkJoinerResultPath measures the Joiner's result path with it
// (probe → ownership on ids → materialise → OnResult), free of routing,
// mailboxes and the wire.
type JoinerTask struct {
	bolt *joinerBolt
}

// NewJoinerTask builds Joiner task number task of an FPJ run whose
// results go to onResult (nil = no consumer, so nothing is
// materialised).
func NewJoinerTask(task int, onResult func(join.Result)) *JoinerTask {
	b := newJoinerBolt(Config{Engine: "FPJ", OnResult: onResult}, task)
	b.Prepare(&topology.TaskContext{Parallelism: map[string]int{"assigner": 1}})
	return &JoinerTask{bolt: b}
}

// Deliver hands the task one document of the current window together
// with the ascending list of Joiner tasks it was routed to.
func (j *JoinerTask) Deliver(d document.Document, targets []int) {
	j.bolt.process(pendingDoc{doc: d, targets: targets})
}

// CloseWindow tumbles the current window and reports how many pairs
// this task owned in it.
func (j *JoinerTask) CloseWindow() (pairs int) {
	pairs = j.bolt.pairs
	j.bolt.Execute(topology.Tuple{
		Stream: streamJoinerWindow,
		Values: topology.Values{"window": j.bolt.current},
	}, topology.Discard) // the per-window statistics go nowhere
	return pairs
}
