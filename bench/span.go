package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call (or one batch of calls) into a layer's public
// function. Start and End are nanoseconds since the tracer was made.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is how many layer calls the span covers; spans wrap a
	// window's worth of calls because one clock read per call would
	// cost as much as the cheaper layers do.
	Count int `json:"count"`
}

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	mu    sync.Mutex
	run   string
	epoch time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, recording how many calls it covered.
func (t *tracer) end(id, count int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
}

// layerTotal is the aggregate of every span with one name.
type layerTotal struct {
	SelfNS int64
	Count  int
}

// perCall is the self time per covered call, 0 for an unused layer.
func (l layerTotal) perCall() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.SelfNS) / float64(l.Count)
}

// selfTimes computes each span's self time — its duration minus the
// part of that interval its direct children cover, overlapping
// children counted once — and sums it by span name.
func selfTimes(spans []span) map[string]layerTotal {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]layerTotal)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			from, to := max(k.Start, cursor), min(k.End, s.End)
			if to > from {
				covered += to - from
				cursor = to
			}
		}
		lt := out[s.Name]
		lt.SelfNS += (s.End - s.Start) - covered
		lt.Count += s.Count
		out[s.Name] = lt
	}
	return out
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Env   environment `json:"env"`
	Spans []span      `json:"spans"`
}

func (t *tracer) write(path string, env environment) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(traceFile{Env: env, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
