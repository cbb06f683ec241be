// Command sfj-serve runs the schema-free stream join as a multi-tenant
// HTTP service: clients register standing queries and stream documents
// in; window state is shared across queries with matching
// configurations.
//
//	sfj-serve -addr :8080 -window 1000
//
//	curl -X POST localhost:8080/queries -d '{"id":"mine","window":1000}'
//	curl -X POST localhost:8080/documents -d '{"User":"A","Severity":"Warning"}'
//	curl -X POST localhost:8080/documents --data-binary @batch.ndjson
//	curl 'localhost:8080/queries/mine/results?wait=10'
//	curl -N localhost:8080/queries/mine/stream
//	curl localhost:8080/stats
//	curl localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address")
		engine        = flag.String("engine", "FPJ", "default query's join engine: FPJ, NLJ or HBJ")
		window        = flag.Int("window", 0, "default query auto-tumbles after N documents (0 = manual /tumble only)")
		telemOn       = flag.Bool("telemetry", true, "expose /metrics and /debug/stats")
		maxQueries    = flag.Int("max-queries", 1024, "admission cap on concurrently registered standing queries")
		resultBuffer  = flag.Int("result-buffer", 4096, "per-query result buffer capacity; the oldest results are dropped when a client falls behind")
		maxWindowDocs = flag.Int("max-window-docs", 1_000_000, "force-tumble any window reaching N documents — the guard against a manual window nobody tumbles (0 = unbounded, rejected when -window is 0)")
		spillDir      = flag.String("spill-dir", "", "with -memory-budget: directory receiving spilled window states; empty starts the over-budget ladder at forced tumbling")
	)
	var memoryBudget cliflags.ByteSize
	flag.Var(&memoryBudget, "memory-budget", "bound on resident window-state bytes, K/M/G suffixes accepted (e.g. 256M); over it the service spills window states to -spill-dir, compresses spill files, force-tumbles the oldest window of the largest state, and finally answers 429 on /documents (0 = ungoverned)")
	flag.Parse()

	if *window == 0 && *maxWindowDocs == 0 {
		fmt.Fprintln(os.Stderr, "-window 0 with -max-window-docs 0 grows window state without bound; set one of them")
		os.Exit(2)
	}
	if *spillDir != "" && memoryBudget == 0 {
		fmt.Fprintln(os.Stderr, "-spill-dir without -memory-budget has no effect; set a budget")
		os.Exit(2)
	}
	opts := []server.Option{
		server.WithEngine(*engine),
		server.WithWindow(*window),
		server.WithMaxQueries(*maxQueries),
		server.WithResultBuffer(*resultBuffer),
		server.WithMaxWindowDocs(*maxWindowDocs),
		server.WithMemoryBudget(memoryBudget.Int64()),
		server.WithSpillDir(*spillDir),
	}
	if *telemOn {
		opts = append(opts, server.WithTelemetry(telemetry.NewRegistry()))
	}
	s, err := server.New(opts...)
	if err != nil {
		log.Fatal(err)
	}
	// Bound every phase of a connection's life: a client that stalls
	// mid-request (or never sends one) must not pin a handler goroutine
	// and a connection slot forever. Write timeout must outlast the
	// longest allowed long-poll wait (60s) plus response time.
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Printf("sfj-serve listening on %s (engine=%s window=%d max-queries=%d)\n", *addr, *engine, *window, *maxQueries)
	if memoryBudget > 0 {
		fmt.Printf("memory governor: budget=%s spill-dir=%q\n", memoryBudget.String(), *spillDir)
	}
	if *telemOn {
		fmt.Printf("scrape metrics: curl http://%s/metrics\n", *addr)
	}

	// Serve until SIGINT/SIGTERM, then drain: Close() releases waiting
	// long-polls and ends SSE streams so Shutdown's drain of in-flight
	// requests completes promptly instead of waiting out their polls.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("sfj-serve: shutting down")
	s.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("sfj-serve: shutdown: %v", err)
	}
}
