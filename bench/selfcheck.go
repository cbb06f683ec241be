package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// checkRow is one (workload, metric) of an A/A comparison.
type checkRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	// WorseBy is how much set B's median is worse than set A's, as a
	// share of A's; SpreadA/B the inter-quartile distance of each set
	// as a share of its median.
	WorseBy float64 `json:"worse_by"`
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
	OK      bool    `json:"ok"`
}

// selfCheck is the A/A test of the benchmark itself: the whole set of
// workloads twice on one build, the second set in reverse order, each
// workload runs times per set with seeds seed, seed+1, ... It fails if
// any operation failed, if a metric's two medians differ by more than
// its bound, or if a metric other than setup_s spreads wider than its
// bound within a set. The spreads it prints are what the bounds in
// BENCHMARK.json were set from.
func selfCheck(seed int64, seconds, runs int, serveBin string) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("bench: -selfcheck reads the bounds from BENCHMARK.json in the repository root: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	// values[set][workload][metric] holds one value per run.
	var values [2]map[string]map[string][]float64
	failed := 0
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		order := append([]workload(nil), workloads...)
		if set == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			values[set][w.Name] = make(map[string][]float64)
			for i := 0; i < runs; i++ {
				rep, err := runWorkload(w, seed+int64(i), seconds, false, serveBin)
				if err != nil {
					return err
				}
				printReport(rep)
				failed += rep.Failed
				for name, v := range rep.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], v.Value)
				}
			}
		}
	}

	var rows []checkRow
	bad := 0
	fmt.Printf("\n== A/A self-check: %d runs per workload and set, %d s each\n", runs, seconds)
	fmt.Printf("%-16s %-24s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			row := checkRow{
				Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: bounds[m.Name],
				MedianA: median(a), MedianB: median(b), SpreadA: spread(a), SpreadB: spread(b),
			}
			row.WorseBy = worseBy(row.MedianA, row.MedianB, m.higherBetter())
			row.OK = row.WorseBy <= row.Bound
			// Quartiles of fewer than four runs say little; the spread
			// is printed but only held against the bound from four up.
			if runs >= 4 && m.Name != "setup_s" && (row.SpreadA > row.Bound || row.SpreadB > row.Bound) {
				row.OK = false
			}
			verdict := ""
			if !row.OK {
				verdict = "  <-- outside bound"
				bad++
			}
			fmt.Printf("%-16s %-24s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n", w.Name, m.Name,
				row.MedianA, row.MedianB, 100*row.WorseBy, 100*row.SpreadA, 100*row.SpreadB, 100*row.Bound, verdict)
			rows = append(rows, row)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Env     environment `json:"env"`
		Runs    int         `json:"runs"`
		Seconds int         `json:"seconds"`
		Failed  int         `json:"failed"`
		Rows    []checkRow  `json:"rows"`
	}{readEnvironment(seed), runs, seconds, failed, rows}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "selfcheck.json"), data, 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("bench: self-check: %d operations failed", failed)
	}
	if bad > 0 {
		return fmt.Errorf("bench: self-check: %d metrics outside their bound", bad)
	}
	fmt.Println("self-check passed")
	return nil
}
