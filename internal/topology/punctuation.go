package topology

// Checkpoint-barrier punctuation. The runtime's window punctuation
// (e.g. the core pipeline's end-of-window tuples) already flows along
// every data edge; a checkpoint barrier is a new punctuation kind that
// rides the same tuples instead of introducing a second control
// stream: the producer annotates an existing punctuation tuple with a
// barrier id, and every stateful consumer that completes the
// punctuated unit snapshots its state for that id before moving on.
// Because the annotation travels with (and orders against) the window
// boundary itself, the snapshots of all tasks align on a consistent
// cut without any global pause.

// FieldCheckpoint is the reserved tuple field carrying the checkpoint
// barrier id on a punctuation tuple.
const FieldCheckpoint = "checkpoint!"

// WithCheckpoint annotates a punctuation tuple's values with a
// checkpoint barrier id and returns the same map.
func WithCheckpoint(values map[string]any, id int) map[string]any {
	values[FieldCheckpoint] = id
	return values
}

// CheckpointID extracts the checkpoint barrier id from a punctuation
// tuple; ok is false when the tuple carries no barrier.
func CheckpointID(t Tuple) (id int, ok bool) {
	v, present := t.Values[FieldCheckpoint]
	if !present {
		return 0, false
	}
	id, ok = v.(int)
	return id, ok
}

// Recoverer is implemented by bolts that restore from a checkpoint. A
// restored bolt cannot emit during Prepare (no collector exists yet),
// so every host calls Recover exactly once after Prepare and before
// the first Execute, handing the bolt its collector to re-emit
// whatever downstream state the checkpoint cut dropped (e.g. a
// routing-table broadcast or a window decision).
type Recoverer interface {
	Recover(c Collector)
}
