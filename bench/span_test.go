package main

import "testing"

func TestSelfTimeIsDurationMinusChildCoveredTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100, Count: 1},
		// Two overlapping children cover [10,50) once, not twice.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30, Count: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50, Count: 1},
		// A child that outlives its parent covers only up to the end.
		{ID: 4, Parent: 1, Name: "a", Start: 70, End: 120, Count: 6},
		// A grandchild takes from its own parent, not from the root.
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35, Count: 1},
	}
	got := selfTimes(spans)
	want := map[string]layerTotal{
		"root": {SelfNS: 100 - (40 + 30), Count: 1},
		"a":    {SelfNS: 20 + 50, Count: 10},
		"b":    {SelfNS: 30 - 10, Count: 1},
		"c":    {SelfNS: 10, Count: 1},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
	if per := got["a"].perCall(); per != 7 {
		t.Errorf("a per call = %v, want 7", per)
	}
	if per := (layerTotal{}).perCall(); per != 0 {
		t.Errorf("unused layer per call = %v, want 0", per)
	}
}

func TestTracerRecordsParentRunAndCount(t *testing.T) {
	tr := newTracer("w/seed1")
	root := tr.start("root", 0)
	kid := tr.start("kid", root)
	tr.end(kid, 3)
	tr.end(root, 1)
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.spans))
	}
	k := tr.spans[kid-1]
	if k.Parent != root || k.Run != "w/seed1" || k.Count != 3 || k.End < k.Start {
		t.Errorf("kid span = %+v", k)
	}
	if r := tr.spans[root-1]; r.Start > k.Start || r.End < k.End {
		t.Errorf("root %+v does not enclose kid %+v", r, k)
	}
}
