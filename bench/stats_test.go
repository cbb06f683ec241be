package main

import (
	"math"
	"testing"
)

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		level float64
		ok    bool
	}{
		{19, 0, false},
		{20, 0.50, true},
		{99, 0.50, true},
		{100, 0.90, true},
		{999, 0.90, true}, // 9.99 samples beyond p99
		{1000, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
	}
	for _, c := range cases {
		level, ok := highestPercentile(c.n)
		if ok != c.ok || level != c.level {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, level, ok, c.level, c.ok)
		}
	}
}

func TestPercentileIsNearestRankAndFailuresSortLast(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 0.50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(xs, 0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	xs[0], xs[1] = math.Inf(1), math.Inf(1) // two failed requests
	if got := percentile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
	}
	if got := percentile(xs, 0.90); math.IsInf(got, 1) {
		t.Errorf("p90 with 2%% failures = %v, want finite", got)
	}
}

// The expected values are those of Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{45, 10, 30, 20}, 12.5, 41.25},
		{[]float64{3, 1}, 0.5, 3.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 (5.5 between quartiles over a median of 5.5)", got)
	}
}

func TestWorseByFollowsTheMetricsDirection(t *testing.T) {
	if got := worseBy(100, 110, false); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100 -> 110: %v, want +0.10", got)
	}
	if got := worseBy(100, 110, true); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("higher-is-better 100 -> 110: %v, want -0.10", got)
	}
}

func TestFailedRequestsCountAgainstTheReportedTail(t *testing.T) {
	r := &round{SetupS: 1, MeasuredS: 1, Docs: 100, AllDocs: 100, CPUMS: 1, PeakRSSMB: 1}
	for i := 0; i < 100; i++ {
		r.LatencyMS = append(r.LatencyMS, 1)
	}
	r.LatencyMS[7], r.LatencyMS[8] = math.Inf(1), math.Inf(1)
	m := endToEndMetrics([]*round{r})
	if got := m["ingest_latency_p50_ms"].Value; got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := m["ingest_latency_p99_ms"].Value; got < 1e30 {
		t.Errorf("p99 = %v, want a latency no limit can meet", got)
	}
}

func TestLatencyIsTheBetterQuartileOverRounds(t *testing.T) {
	// Five rounds of 2000 requests at 1, 2, 3, 4 and 5 ms; a stall makes
	// 40 consecutive requests of the slowest two take 30 ms.
	var rounds []*round
	for i := 1; i <= 5; i++ {
		r := &round{}
		for j := 0; j < 2000; j++ {
			r.LatencyMS = append(r.LatencyMS, float64(i))
		}
		rounds = append(rounds, r)
	}
	for _, r := range rounds[3:] {
		for j := 300; j < 340; j++ {
			r.LatencyMS[j] = 30
		}
	}
	// Per-round p99: 1, 2, 3, 30, 30; Python's first quartile is 1.5.
	if v := latencyPercentile(rounds, 0.99); v.Value != 1.5 || v.N != 2000 {
		t.Errorf("p99 = %+v, want 1.5 from samples of 2000", v)
	}
	// Two rounds: the quartile rule would extrapolate to 0; the better
	// round is the floor.
	if v := latencyPercentile([]*round{rounds[0], rounds[4]}, 0.99); v.Value != 1 {
		t.Errorf("p99 of two rounds = %+v, want the better round's 1", v)
	}
	// Rounds too thin for the level fall back to the pooled sample.
	var thin []*round
	for _, r := range rounds {
		thin = append(thin, &round{LatencyMS: r.LatencyMS[:400]})
	}
	if v := latencyPercentile(thin, 0.99); v.N != 2000 || v.Value != 30 {
		t.Errorf("thin rounds: %+v, want the pooled p99 of 2000 samples, 30", v)
	}
}
