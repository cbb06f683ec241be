GO ?= go

.PHONY: all build vet test race chaos bench bench-all bench-guard serve-smoke figures examples clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the schedule-driven fault-injection parity suites under
# the race detector: seeded sever/delay/refuse schedules against the
# reliable transport (cluster level) and the full Fig. 2 pipeline with
# heartbeat failure detection and checkpoint recovery (core level).
# The seeds are fixed inside the tests, so a failure names the exact
# reproducible fault sequence. The cluster suites run every seed over
# the binary data plane, checking its replay, dedup and
# dictionary-reset-on-redial behaviour against an oracle. The rescale
# matrix exercises elastic scale-out: grow + shrink mid-run with every
# data link severed during the shrink migration, asserting exact
# oracle parity, exactly-once results, and zero source replays.
# The spill suites drive the memory governor's disk leg through
# state.FaultStore chaos — ENOSPC, torn/short writes, read corruption —
# asserting spilled window state degrades (resident retry, forced
# tumble, 429 shed) instead of crashing or corrupting results.
chaos:
	$(GO) test -race -count 1 ./internal/cluster/ -run 'TestScheduledChaosParity|TestResendAfterSever|TestHungWorkerLeaseExpiry|TestRandomScheduleDeterministic' -v
	$(GO) test -race -count 1 ./internal/core/ -run 'TestClusterScheduledChaosParity|TestClusterHungWorkerRecovery|TestClusterSecondFailureMidRecovery' -v
	$(GO) test -race -count 1 ./internal/cluster/ -run 'TestElasticRescaleGrowShrink|TestRescaleShrinkRejectsPinned|TestStateFrameBinaryRoundTrip' -v
	$(GO) test -race -count 1 ./internal/core/ -run 'TestElasticRescaleChaosParity|TestRescalePolicyAutoGrow' -v
	$(GO) test -race -count 1 ./internal/join/ -run 'TestSlidingSpill|TestSlidingReloadCorruptionDegrades|TestSlidingPersistentENOSPCForceTumbles|TestMultiSpillParityAndDrain|TestGovernorSpillCompression' -v
	$(GO) test -race -count 1 ./internal/core/ -run 'TestJoinerPendingSpillParity|TestQuerySetSpillAndDrain|TestQuerySetShedsOverBudget' -v
	$(GO) test -race -count 1 ./internal/server/ -run 'TestServerSpillParity|TestServerSpillFaultsDegrade|TestServerShedsWith429' -v

# bench runs the root benchmark suite once as JSON — the format the
# guard baseline (BENCH_issue26_after.json) is kept in — followed by the
# wire codec benches (bytes/tuple and ns/op).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -count 1 -json .
	$(GO) test -run '^$$' -bench 'BenchmarkWireEncode|BenchmarkWireDecode|BenchmarkFrameBatch' -benchmem -benchtime 200000x -count 3 -json ./internal/cluster/

bench-all:
	$(GO) test -bench=. -benchmem -benchtime 1x ./...

# bench-guard reruns the guarded hot-path benchmarks (the join engines
# the telemetry layer instruments, the telemetry on/off comparison, the
# scale-out Joiner's result path, sfj-serve's result path) and fails if
# any guarded ns/op regressed more than 5% against the recorded
# baseline, or if a benchmark in the guard's -allocs set
# (JoinerResultPath, ServeResultPath, DocumentParse/{nbData,rwData},
# ExpansionApply/nbData, PartitionCreate/{nbData,rwData},
# AssignerRoute/nbData, FPTreeInsert) allocates one object more per op
# than recorded. The macro benches run few iterations because one op
# ingests thousands of documents; the micro benches sample heavily. The
# benches of the -allocs set run under GOGC=off: their allocs/op is
# exact only without GC cycles (each one flushes the runtime's per-P
# sudog/defer caches, which then re-allocate), so their ns/op is the
# mutator's time; all but JoinerResultPath also run at -cpu 1, because a
# sync.Pool Get on another P than the last Put is a miss that
# allocates. The baseline was recorded the same way.
bench-guard:
	$(GO) test -run '^$$' -bench '^(BenchmarkFig11aFPJServerLog|BenchmarkFig11bFPJNoBench|BenchmarkTelemetryOverhead)$$' -benchtime 2x -count 2 -json . > bench_guard_current.json
	$(GO) test -run '^$$' -bench '^BenchmarkJoinableClassify$$' -benchtime 2000x -count 2 -json . >> bench_guard_current.json
	GOGC=off $(GO) test -run '^$$' -bench '^BenchmarkJoinerResultPath$$' -benchtime 5x -count 3 -json . >> bench_guard_current.json
	GOGC=off $(GO) test -run '^$$' -bench '^BenchmarkServeResultPath$$' -benchtime 5x -count 3 -cpu 1 -json . >> bench_guard_current.json
	GOGC=off $(GO) test -run '^$$' -bench '^(BenchmarkDocumentParse|BenchmarkExpansionApply|BenchmarkAssignerRoute|BenchmarkFPTreeInsert)$$' -benchtime 200000x -count 3 -cpu 1 -json . >> bench_guard_current.json
	GOGC=off $(GO) test -run '^$$' -bench '^BenchmarkPartitionCreate$$' -benchtime 50x -count 3 -cpu 1 -json . >> bench_guard_current.json
	$(GO) test -run '^$$' -bench '^(BenchmarkWireEncode|BenchmarkWireDecode|BenchmarkFrameBatch)$$' -benchtime 200000x -count 3 -json ./internal/cluster/ >> bench_guard_current.json
	$(GO) run ./cmd/sfj-benchguard -baseline BENCH_issue26_after.json -current bench_guard_current.json

# serve-smoke runs the multi-tenant query service end to end: build
# sfj-serve, register two standing queries, stream a batch, assert both
# result streams deliver, and check SIGTERM drains gracefully.
serve-smoke:
	sh scripts/serve_smoke.sh

# go test accepts a single -fuzz pattern per invocation, so each fuzz
# target gets its own line.
fuzz:
	$(GO) test ./internal/document/ -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/document/ -fuzz FuzzAppendMergedJSON -fuzztime 30s
	$(GO) test ./internal/fptree/ -fuzz FuzzSnapshotRestore -fuzztime 30s
	$(GO) test ./internal/fptree/ -fuzz FuzzFlatTreeParity -fuzztime 30s
	$(GO) test ./internal/cluster/ -fuzz FuzzFrameRoundTrip -fuzztime 30s

figures:
	$(GO) run ./cmd/sfj-experiments -figure all -scale full

figures-quick:
	$(GO) run ./cmd/sfj-experiments -figure all -scale quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/serverlogs
	$(GO) run ./examples/distributed
	$(GO) run ./examples/nobench
	$(GO) run ./examples/eventtime

clean:
	$(GO) clean ./...
	rm -f bench_guard_current.json
