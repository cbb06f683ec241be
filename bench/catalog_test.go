package main

import (
	"strings"
	"testing"
)

func TestCatalogNamesAreValid(t *testing.T) {
	if err := validateCatalog(workloads, endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	ok := []metricDef{{Name: "a.b_c-1", Unit: "docs/s", Better: "higher"}}
	if err := validateCatalog(nil, ok); err != nil {
		t.Errorf("valid metric rejected: %v", err)
	}
	bad := map[string][]metricDef{
		"space in name":   {{Name: "a b", Unit: "ms", Better: "lower"}},
		"slash in name":   {{Name: "a/b", Unit: "ms", Better: "lower"}},
		"empty name":      {{Name: "", Unit: "ms", Better: "lower"}},
		"leading dot":     {{Name: ".a", Unit: "ms", Better: "lower"}},
		"65 characters":   {{Name: strings.Repeat("a", 65), Unit: "ms", Better: "lower"}},
		"unit with space": {{Name: "a", Unit: "m s", Better: "lower"}},
		"17-char unit":    {{Name: "a", Unit: strings.Repeat("u", 17), Better: "lower"}},
		"no direction":    {{Name: "a", Unit: "ms", Better: "faster"}},
		"duplicate":       {{Name: "a", Unit: "ms", Better: "lower"}, {Name: "a", Unit: "s", Better: "lower"}},
	}
	for what, defs := range bad {
		if err := validateCatalog(nil, defs); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	if err := validateCatalog([]workload{{Name: "w"}}, []metricDef{{Name: "w", Unit: "ms", Better: "lower"}}); err == nil {
		t.Error("a metric named like a workload: accepted")
	}
	if err := validateCatalog([]workload{{Name: "bad name"}}); err == nil {
		t.Error("workload name with a space: accepted")
	}
}

// BENCHMARK.json is what the acceptance driver reads and the benchmark
// is what prints; they must name the same things.
func TestBenchmarkFileMatchesTheCatalog(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bf.Command, " "); got != "bash bench/run.sh" {
		t.Errorf("command = %q", got)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s: %s", i, bf.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark", len(bf.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end-to-end %d: %+v, want %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
		largest = max(largest, got.Bound)
	}
	if m := bf.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" || m.Bound != largest {
		t.Errorf("setup_s must be present, in s, lower-is-better, with the largest bound: %+v", m)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the benchmark", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := bf.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: %+v, want %+v", i, got, m)
		}
		if m.Moves == "" {
			t.Errorf("%s: no prediction of which end-to-end metric it moves", m.Name)
		}
	}
}
