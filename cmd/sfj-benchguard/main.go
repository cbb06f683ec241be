// Command sfj-benchguard gates performance regressions: it compares the
// ns/op of selected hot-path benchmarks between a recorded baseline and
// a current run, and exits non-zero when any guarded benchmark slowed
// down by more than the tolerance. Benchmarks named in -allocs are
// additionally held to their baseline allocs/op exactly: an allocation
// count does not depend on the machine, so any increase is a
// regression (run those under GOGC=off — every GC cycle flushes the
// runtime's own per-P caches, which costs a few allocations). Both
// files are `go test -json` streams (the format of the repo's
// BENCH_issue26_after.json baseline); plain `go test -bench` text
// output is accepted too.
//
//	go test -run '^$' -bench Fig11aFPJServerLog -json . > current.json
//	sfj-benchguard -baseline BENCH_issue26_after.json -current current.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// event is the subset of the test2json stream the guard reads.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchLine matches one benchmark result line; the -N suffix is the
// GOMAXPROCS tag and is stripped so runs on different machines compare.
// allocs/op is present when the run had -benchmem or b.ReportAllocs.
var benchLine = regexp.MustCompile(`(?m)^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s(\d+) allocs/op)?`)

// sample is one benchmark's result: the minimum across -count
// repetitions (the least-noisy sample) of each unit; allocs is -1 when
// no repetition reported allocations.
type sample struct {
	ns     float64
	allocs int64
}

// parse extracts ns/op and allocs/op per benchmark from a results file.
func parse(path string) (map[string]sample, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Reassemble the output stream: test2json splits lines across
	// events, so concatenate every Output payload; non-JSON lines are
	// taken verbatim (plain -bench output).
	var text strings.Builder
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "{") {
			var ev event
			if err := json.Unmarshal([]byte(line), &ev); err == nil {
				if ev.Action == "output" {
					text.WriteString(ev.Output)
				}
				continue
			}
		}
		text.WriteString(line)
		text.WriteByte('\n')
	}
	out := make(map[string]sample)
	for _, m := range benchLine.FindAllStringSubmatch(text.String(), -1) {
		name := m[1]
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		cur := sample{ns: ns, allocs: -1}
		if m[3] != "" {
			cur.allocs, _ = strconv.ParseInt(m[3], 10, 64)
		}
		if prev, ok := out[name]; ok {
			cur.ns = min(cur.ns, prev.ns)
			if cur.allocs < 0 || (prev.allocs >= 0 && prev.allocs < cur.allocs) {
				cur.allocs = prev.allocs
			}
		}
		out[name] = cur
	}
	return out, nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_issue26_after.json", "baseline `file` (go test -json stream)")
		currentPath  = flag.String("current", "", "current `file` (go test -json stream)")
		// The guarded wire benches are the zero-alloc encode paths, which
		// hold a tight ns/op band; WireDecode allocates per tuple and its
		// GC-driven variance exceeds the tolerance on shared machines, so
		// it is benched and tracked in the trajectory files but not gated.
		benches = flag.String("bench", "Fig11aFPJServerLog,Fig11bFPJNoBench,FPTreeInsert,JoinableClassify,JoinerResultPath,ServeResultPath,DocumentParse/nbData,DocumentParse/rwData,ExpansionApply/nbData,PartitionCreate/nbData,PartitionCreate/rwData,AssignerRoute/nbData,WireEncode/format=binary,FrameBatch/format=binary/batch=16",
			"comma-separated guarded benchmark names (without the Benchmark prefix)")
		allocBenches = flag.String("allocs", "JoinerResultPath,ServeResultPath,DocumentParse/nbData,DocumentParse/rwData,ExpansionApply/nbData,PartitionCreate/nbData,PartitionCreate/rwData,AssignerRoute/nbData,FPTreeInsert",
			"comma-separated benchmark names whose allocs/op must not exceed the baseline at all")
		tolerance = flag.Float64("tolerance", 0.05, "maximum allowed relative ns/op increase")
	)
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "sfj-benchguard: -current is required")
		os.Exit(2)
	}
	baseline, err := parse(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfj-benchguard: baseline: %v\n", err)
		os.Exit(2)
	}
	current, err := parse(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfj-benchguard: current: %v\n", err)
		os.Exit(2)
	}

	failed := false
	fmt.Printf("%-36s %14s %14s %8s\n", "benchmark", "baseline", "current", "delta")
	// compare prints one gated unit of one benchmark and reports
	// whether it regressed beyond tol.
	compare := func(label, unit string, base, cur, tol float64) {
		delta := 0.0
		if base > 0 {
			delta = cur/base - 1
		}
		verdict := ""
		if cur > base*(1+tol) {
			verdict = "  REGRESSION"
			failed = true
		}
		fmt.Printf("%-36s %14.0f %14.0f %7.1f%%  %s%s\n", label, base, cur, 100*delta, unit, verdict)
	}
	for _, short := range strings.Split(*benches, ",") {
		short = strings.TrimSpace(short)
		base, okB := baseline["Benchmark"+short]
		cur, okC := current["Benchmark"+short]
		switch {
		case !okB:
			fmt.Printf("%-36s %14s\n", short, "missing")
			failed = true
		case !okC:
			fmt.Printf("%-36s %14.0f %14s\n", short, base.ns, "missing")
			failed = true
		default:
			compare(short, "ns/op", base.ns, cur.ns, *tolerance)
		}
	}
	for _, short := range strings.Split(*allocBenches, ",") {
		if short = strings.TrimSpace(short); short == "" {
			continue
		}
		base, okB := baseline["Benchmark"+short]
		cur, okC := current["Benchmark"+short]
		if !okB || !okC || base.allocs < 0 || cur.allocs < 0 {
			// Absent from a file, or run without allocation reporting.
			fmt.Printf("%-36s %14s  allocs/op\n", short, "missing")
			failed = true
			continue
		}
		compare(short, "allocs/op", float64(base.allocs), float64(cur.allocs), 0)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "sfj-benchguard: hot-path regression beyond %.0f%% ns/op or any allocs/op (or missing benchmark)\n", 100**tolerance)
		os.Exit(1)
	}
	fmt.Printf("ok: all guarded benchmarks within %.0f%% of baseline\n", 100**tolerance)
}
