package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// round is one execution of a workload in a fresh process of the
// system under test.
type round struct {
	Traced bool `json:"traced"`
	// InputSeed is the generator seed of this round's input.
	InputSeed int64   `json:"input_seed"`
	SetupS    float64 `json:"setup_s"`
	MeasuredS float64 `json:"measured_s"`
	// Docs is the documents of the measured phase, AllDocs every
	// document the process received (CPU is divided by the latter).
	Docs      int     `json:"docs"`
	AllDocs   int     `json:"all_docs"`
	CPUMS     float64 `json:"cpu_ms"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// LatencyMS holds one sample per measured operation; a failed or
	// refused request is +Inf, so it misses any latency limit.
	LatencyMS []float64 `json:"-"`
	// Attempted and Failed count operations: requests plus the final
	// pair-count check on serve rounds, windows on topology rounds.
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	PairsMissing int      `json:"pairs_missing"`
	Notes        []string `json:"notes,omitempty"`
	// Layer holds the per-layer rows this round could observe.
	Layer map[string]float64 `json:"layer,omitempty"`
}

func (r *round) docsPerS() float64 { return float64(r.Docs) / r.MeasuredS }

// standingQuery is one POST /queries body.
type standingQuery struct {
	ID      string         `json:"id"`
	Window  int            `json:"window"`
	Theta   float64        `json:"theta,omitempty"`
	Filters map[string]any `json:"filters,omitempty"`
}

// standingQueries are the four queries registered beside sfj-serve's
// built-in default one: two share the default query's window group
// (one with a join-strength predicate, one with a filter) and two have
// window groups of their own, so every document is probed against
// three FP-trees and demultiplexed to five queries.
func standingQueries(dataset string, window int) []standingQuery {
	filter := map[string]any{"Severity": "Error"}
	if dataset == "nbData" {
		filter = map[string]any{"bool": true}
	}
	return []standingQuery{
		{ID: "theta", Window: window, Theta: 0.5},
		{ID: "filter", Window: window, Filters: filter},
		{ID: "half", Window: window / 2},
		{ID: "double", Window: window * 2},
	}
}

// freeAddr asks the kernel for an unused loopback port. sfj-serve
// prints the address it was given, not the one it bound, so port 0
// cannot be passed through.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// sseEvent is one result event the consumer saw.
type sseEvent struct {
	right int
	at    time.Duration
}

// consumeSSE reads the default query's event stream until it ends,
// recording which document each result belongs to and when it came.
func consumeSSE(body io.Reader, since time.Time) []sseEvent {
	var events []sseEvent
	r := bufio.NewReaderSize(body, 256<<10)
	key := []byte(`"right":`)
	for {
		line, err := r.ReadSlice('\n')
		if bytes.HasPrefix(line, []byte("data: ")) {
			if i := bytes.Index(line, key); i >= 0 {
				id := 0
				for _, c := range line[i+len(key):] {
					if c < '0' || c > '9' {
						break
					}
					id = id*10 + int(c-'0')
				}
				events = append(events, sseEvent{right: id, at: time.Since(since)})
			}
		}
		if err != nil && err != bufio.ErrBufferFull {
			return events
		}
	}
}

// serveProc is one running sfj-serve with its two client connections:
// ingest carries every request, events the SSE stream.
type serveProc struct {
	cmd     *exec.Cmd
	base    string
	spawned time.Time
	setup   time.Duration // spawn to ready for the first document
	ingest  *http.Client
	events  *http.Client
	stream  *http.Response // the default query's SSE stream
	stopped bool
}

// startServe spawns sfj-serve and brings it to the point where it can
// take the first document: healthy, the standing queries registered and
// the SSE consumer attached. That span is the serve workloads' set-up.
func startServe(w workload, serveBin string, traced bool) (*serveProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &serveProc{
		base:   "http://" + addr,
		ingest: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		events: &http.Client{Transport: &http.Transport{DisableCompression: true}},
	}
	p.cmd = exec.Command(serveBin, "-addr", addr, "-window", strconv.Itoa(w.Window), "-telemetry="+strconv.FormatBool(traced))
	p.cmd.Stderr = os.Stderr
	p.spawned = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start %s: %w", serveBin, err)
	}
	if err := p.ready(w); err != nil {
		p.stop()
		return nil, err
	}
	p.setup = time.Since(p.spawned)
	return p, nil
}

func (p *serveProc) ready(w workload) error {
	if err := waitHealthy(p.ingest, p.base); err != nil {
		return err
	}
	for _, q := range standingQueries(w.Dataset, w.Window) {
		spec, err := json.Marshal(q)
		if err != nil {
			return err
		}
		if status, _, err := post(p.ingest, p.base+"/queries", spec); err != nil || status != http.StatusCreated {
			return fmt.Errorf("bench: register query %s: status %d: %v", q.ID, status, err)
		}
	}
	stream, err := p.events.Get(p.base + "/queries/default/stream")
	if err != nil {
		return fmt.Errorf("bench: open SSE stream: %w", err)
	}
	if stream.StatusCode != http.StatusOK {
		stream.Body.Close()
		return fmt.Errorf("bench: SSE stream: status %d", stream.StatusCode)
	}
	p.stream = stream
	return nil
}

// stop ends the child with SIGTERM — sfj-serve then ends the SSE
// stream after a final drain — and reaps it. Safe to call twice.
func (p *serveProc) stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	_ = p.cmd.Wait()                          // exit status is not a result
	if p.stream != nil {
		p.stream.Body.Close()
	}
	p.ingest.CloseIdleConnections()
	p.events.CloseIdleConnections()
}

// setupProbes is how many extra times a serve round starts sfj-serve
// only to time its set-up: that takes about 10 ms, which a single
// sample per round measures poorly.
const setupProbes = 4

// runServeRound starts a fresh sfj-serve, registers the standing
// queries, attaches one SSE consumer and streams the input over one
// keep-alive connection — one, so that arrival order and with it
// window membership and the pair count are deterministic.
func runServeRound(w workload, in *input, oracle int, serveBin string, traced bool) (*round, error) {
	bodies := make([][]byte, 0, len(in.lines)/w.Batch)
	for i := 0; i < len(in.lines); i += w.Batch {
		bodies = append(bodies, bytes.Join(in.lines[i:min(i+w.Batch, len(in.lines))], []byte("\n")))
	}
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		probe, err := startServe(w, serveBin, traced)
		if err != nil {
			return nil, err
		}
		probe.stop()
		setups = append(setups, probe.setup.Seconds())
	}
	p, err := startServe(w, serveBin, traced)
	if err != nil {
		return nil, err
	}
	defer p.stop() // whatever happens below, the child is stopped and reaped
	setups = append(setups, p.setup.Seconds())
	ingest, base, spawned := p.ingest, p.base, p.spawned // the hot loop's locals

	var seen []sseEvent
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		seen = consumeSSE(p.stream.Body, spawned)
	}()
	r := &round{Traced: traced, AllDocs: len(in.lines), Docs: len(in.lines) - w.Warmup, SetupS: median(setups)}

	// postDone[i] is when the POST carrying document i+1 completed.
	postDone := make([]time.Duration, len(in.lines))
	var respBytes int
	send := func(offset int) func(int) error {
		return func(i int) error {
			status, n, err := post(ingest, base+"/documents", bodies[offset+i])
			done := time.Since(spawned)
			for d := (offset + i) * w.Batch; d < min((offset+i+1)*w.Batch, len(postDone)); d++ {
				postDone[d] = done
			}
			respBytes += n
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			return err
		}
	}
	warmOps := w.Warmup / w.Batch
	warm := runLoad(warmOps, w.Rate, send(0))
	respBytes = 0
	cpuBefore := selfCPU()
	measureStart := time.Now()
	ops := runLoad(len(bodies)-warmOps, w.Rate, send(warmOps))
	r.MeasuredS = time.Since(measureStart).Seconds()
	harnessCPU := selfCPU() - cpuBefore

	var late []float64
	for _, op := range append(warm, ops...) {
		r.Attempted++
		if op.Err != nil {
			r.Failed++
			r.Notes = append(r.Notes, "request: "+op.Err.Error())
		}
	}
	for _, op := range ops {
		lat := float64(op.latency()) / 1e6
		if op.Err != nil {
			lat = math.Inf(1)
		}
		r.LatencyMS = append(r.LatencyMS, lat)
		late = append(late, float64(op.late())/1e6)
	}

	// The run is checked against the oracle as one more operation.
	r.Attempted++
	var stats struct {
		Documents int `json:"documents"`
		JoinPairs int `json:"join_pairs"`
	}
	var def struct {
		BufferDropped float64 `json:"buffer_dropped"`
	}
	if err := getJSON(ingest, base+"/stats", &stats); err != nil {
		r.Failed++
		r.Notes = append(r.Notes, "GET /stats: "+err.Error())
	} else if stats.Documents != len(in.lines) || stats.JoinPairs != oracle {
		r.Failed++
		r.PairsMissing = oracle - stats.JoinPairs
		r.Notes = append(r.Notes, fmt.Sprintf("/stats: %d documents, %d join_pairs; sent %d, oracle %d",
			stats.Documents, stats.JoinPairs, len(in.lines), oracle))
	}
	if err := getJSON(ingest, base+"/queries/default", &def); err != nil {
		r.Notes = append(r.Notes, "GET /queries/default: "+err.Error())
	}
	if rss, err := peakRSSMB(p.cmd.Process.Pid); err == nil {
		r.PeakRSSMB = rss
	}
	p.stop()
	consumer.Wait()
	r.CPUMS = float64(p.cmd.ProcessState.UserTime()+p.cmd.ProcessState.SystemTime()) / 1e6

	var lag []float64
	for _, e := range seen {
		if e.right > w.Warmup && e.right <= len(postDone) && postDone[e.right-1] > 0 {
			lag = append(lag, float64(e.at-postDone[e.right-1])/1e6)
		}
	}
	r.Layer = map[string]float64{
		"server.response_bytes_per_doc": float64(respBytes) / float64(r.Docs),
		"server.sse_lag_p50_ms":         orZero(percentile(lag, 0.50)),
		"server.sse_lag_p99_ms":         orZero(percentile(lag, 0.99)),
		"server.buffer_dropped":         def.BufferDropped,
		"loadgen.late_p99_ms":           orZero(percentile(late, 0.99)),
		"loadgen.cpu_share":             float64(harnessCPU) / (float64(harnessCPU) + r.CPUMS*1e6),
	}
	return r, nil
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// waitHealthy polls /healthz until the service answers.
func waitHealthy(c *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: sfj-serve not healthy after 10s: %v", err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// post sends one body and drains the reply so the connection is kept.
func post(c *http.Client, url string, body []byte) (status, n int, err error) {
	resp, err := c.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	copied, err := io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, int(copied), err
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
