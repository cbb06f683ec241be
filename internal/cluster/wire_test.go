package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/document"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// bufConn adapts in-memory readers/writers to net.Conn so codec tests
// and benchmarks can drive the wire format without sockets.
type bufConn struct {
	r io.Reader
	w io.Writer
}

func (c bufConn) Read(p []byte) (int, error) {
	if c.r == nil {
		return 0, io.EOF
	}
	return c.r.Read(p)
}

func (c bufConn) Write(p []byte) (int, error) {
	if c.w == nil {
		return len(p), nil
	}
	return c.w.Write(p)
}

func (bufConn) Close() error                       { return nil }
func (bufConn) LocalAddr() net.Addr                { return nil }
func (bufConn) RemoteAddr() net.Addr               { return nil }
func (bufConn) SetDeadline(t time.Time) error      { return nil }
func (bufConn) SetReadDeadline(t time.Time) error  { return nil }
func (bufConn) SetWriteDeadline(t time.Time) error { return nil }

func dictDoc(id uint64, pairs ...string) document.Document {
	ps := make([]document.Pair, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		ps = append(ps, document.Pair{Attr: pairs[i], Val: document.EncodeString(pairs[i+1])})
	}
	return document.New(id, ps)
}

// seqTuple builds a sequenced data-plane envelope as sendToPeer would.
func seqTuple(seq uint64, vals topology.Values) *envelope {
	return &envelope{
		Kind:       frameTuple,
		TargetComp: "join",
		TargetTask: 1,
		Tuple:      topology.Tuple{Stream: "docs", Source: "reader", Values: vals},
		FromWorker: 1,
		DataSeq:    seq,
	}
}

// sameValues compares decoded tuple values against the originals,
// comparing documents structurally and everything else deeply.
func sameValues(t *testing.T, got, want topology.Values) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("value count = %d, want %d (%v vs %v)", len(got), len(want), got, want)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("value %q missing", k)
		}
		if wd, isDoc := w.(document.Document); isDoc {
			gd, isDoc := g.(document.Document)
			if !isDoc || !gd.Equal(wd) || gd.ID != wd.ID {
				t.Fatalf("value %q: doc %v, want %v", k, g, w)
			}
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("value %q = %#v (%T), want %#v (%T)", k, g, g, w, w)
		}
	}
}

// TestBinaryWireRoundTrip batches several sequenced tuples — documents,
// every fast-path value kind, and a gob-fallback value — through one
// binary frame and checks the members come out in order with their
// implicit sequence numbers and the piggybacked ack on the first.
func TestBinaryWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sender := newBinConn(bufConn{w: &buf}, true)

	batch := []*envelope{
		seqTuple(11, topology.Values{
			"doc":    dictDoc(7, "user", "alice", "host", "web-1"),
			"window": 3,
			"name":   "payload",
			"ok":     true,
			"off":    false,
			"ratio":  2.5,
			"n64":    int64(-9),
			"u64":    uint64(1 << 40),
			"ids":    []int{4, -2, 0},
			"blob":   map[string]any{"k": 1},
			"nil":    nil,
		}),
		seqTuple(12, topology.Values{"doc": dictDoc(8, "user", "alice", "region", "eu")}),
		seqTuple(13, topology.Values{"doc": dictDoc(9)}), // empty document
	}
	batch[0].AckSeq = 41
	if err := sender.sendBatch(batch); err != nil {
		t.Fatal(err)
	}

	receiver := newBinConn(bufConn{r: bytes.NewReader(buf.Bytes())}, false)
	for i, want := range batch {
		e, err := receiver.recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if e.Kind != frameTuple || e.FromWorker != 1 {
			t.Fatalf("member %d: kind=%d from=%d", i, e.Kind, e.FromWorker)
		}
		if e.DataSeq != 11+uint64(i) {
			t.Fatalf("member %d: DataSeq = %d, want %d", i, e.DataSeq, 11+uint64(i))
		}
		wantAck := uint64(0)
		if i == 0 {
			wantAck = 41
		}
		if e.AckSeq != wantAck {
			t.Fatalf("member %d: AckSeq = %d, want %d", i, e.AckSeq, wantAck)
		}
		if e.TargetComp != want.TargetComp || e.TargetTask != want.TargetTask ||
			e.Tuple.Stream != want.Tuple.Stream || e.Tuple.Source != want.Tuple.Source {
			t.Fatalf("member %d: routing fields differ: %+v", i, e)
		}
		sameValues(t, e.Tuple.Values, want.Tuple.Values)
	}
	if _, err := receiver.recv(); err != io.EOF {
		t.Fatalf("after stream end: err = %v, want EOF", err)
	}
}

// TestBinaryWireDictDelta checks the dictionary lifecycle across
// frames: first use ships a string, reuse does not, and the ack path
// carries no dictionary at all.
func TestBinaryWireDictDelta(t *testing.T) {
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	sender := newBinConn(bufConn{w: &buf}, true)
	sender.dictMisses = reg.Counter("misses")
	sender.dictHits = reg.Counter("hits")

	if err := sender.sendBatch([]*envelope{seqTuple(1, topology.Values{"doc": dictDoc(1, "user", "alice")})}); err != nil {
		t.Fatal(err)
	}
	misses1 := sender.dictMisses.Value()
	firstLen := buf.Len()
	// Same strings again: everything resolves from the dictionary.
	if err := sender.sendBatch([]*envelope{seqTuple(2, topology.Values{"doc": dictDoc(2, "user", "alice")})}); err != nil {
		t.Fatal(err)
	}
	if sender.dictMisses.Value() != misses1 {
		t.Fatalf("repeat frame added %d dictionary entries, want 0", sender.dictMisses.Value()-misses1)
	}
	if sender.dictHits.Value() == 0 {
		t.Fatal("repeat frame resolved no strings from the dictionary")
	}
	if second := buf.Len() - firstLen; second >= firstLen {
		t.Fatalf("repeat frame (%dB) not smaller than first frame (%dB): delta not incremental", second, firstLen)
	}

	receiver := newBinConn(bufConn{r: bytes.NewReader(buf.Bytes())}, false)
	for i := 0; i < 2; i++ {
		e, err := receiver.recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		d := e.Tuple.Values["doc"].(document.Document)
		if want := dictDoc(uint64(i+1), "user", "alice"); !d.Equal(want) {
			t.Fatalf("frame %d decoded %v, want %v", i, d, want)
		}
	}
}

// TestBinaryWireEnvelopeNotMutated checks the resend contract: encoding
// must leave the buffered envelope untouched (raw strings), so a replay
// after a sever re-encodes against the fresh connection.
func TestBinaryWireEnvelopeNotMutated(t *testing.T) {
	sender := newBinConn(bufConn{}, true)
	d := dictDoc(1, "a", "x")
	e := seqTuple(5, topology.Values{"doc": d, "n": 3})
	if err := sender.sendBatch([]*envelope{e}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Tuple.Values["doc"].(document.Document); !ok {
		t.Fatalf("envelope mutated: doc became %T", e.Tuple.Values["doc"])
	}
	if e.DataSeq != 5 || e.Tuple.Values["n"] != 3 {
		t.Fatalf("envelope mutated: %+v", e)
	}
}

// TestBinaryWireDictReset simulates the sever/redial cycle: buffered
// envelopes re-encoded on a brand-new connection pair must decode
// exactly, because both dictionaries restart empty.
func TestBinaryWireDictReset(t *testing.T) {
	batch := []*envelope{
		seqTuple(1, topology.Values{"doc": dictDoc(1, "user", "alice", "host", "web-1")}),
		seqTuple(2, topology.Values{"doc": dictDoc(2, "user", "bob")}),
	}
	for attempt := 0; attempt < 2; attempt++ { // first send, then the replay
		var buf bytes.Buffer
		sender := newBinConn(bufConn{w: &buf}, true)
		if err := sender.sendBatch(batch); err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		receiver := newBinConn(bufConn{r: bytes.NewReader(buf.Bytes())}, false)
		for i := range batch {
			e, err := receiver.recv()
			if err != nil {
				t.Fatalf("attempt %d recv %d: %v", attempt, i, err)
			}
			want := batch[i].Tuple.Values["doc"].(document.Document)
			if got := e.Tuple.Values["doc"].(document.Document); !got.Equal(want) {
				t.Fatalf("attempt %d frame %d: %v, want %v", attempt, i, got, want)
			}
		}
	}
}

// TestBinaryWireBatchSeqGap checks the contiguity guard: a batch whose
// members do not carry consecutive sequence numbers must be refused,
// not silently mis-sequenced on the receiver.
func TestBinaryWireBatchSeqGap(t *testing.T) {
	sender := newBinConn(bufConn{}, true)
	err := sender.sendBatch([]*envelope{
		seqTuple(1, topology.Values{"n": 1}),
		seqTuple(3, topology.Values{"n": 2}),
	})
	if err == nil {
		t.Fatal("sequence-gapped batch must fail")
	}
}

// TestBinaryWireUnsequencedRejected checks that every data-plane frame
// must carry a sequence number: a data or state frame encoded with
// DataSeq 0 would bypass the receiver's dedup cursor, so the decoder
// refuses it, while the same frame with DataSeq 1 decodes.
func TestBinaryWireUnsequencedRejected(t *testing.T) {
	state := func(seq uint64) *envelope {
		return &envelope{Kind: frameState, FromWorker: 1, DataSeq: seq, Epoch: 2,
			TargetComp: "join", TargetTask: 1, StateData: []byte("snap"), StateLast: true}
	}
	for _, tc := range []struct {
		name  string
		frame func(seq uint64) *envelope
	}{
		{"data", func(seq uint64) *envelope { return seqTuple(seq, topology.Values{"doc": dictDoc(1, "user", "alice")}) }},
		{"state", state},
	} {
		for _, seq := range []uint64{0, 1} {
			var buf bytes.Buffer
			if err := newBinConn(bufConn{w: &buf}, true).sendBatch([]*envelope{tc.frame(seq)}); err != nil {
				t.Fatal(err)
			}
			e, err := newBinConn(bufConn{r: bytes.NewReader(buf.Bytes())}, false).recv()
			switch {
			case seq == 0 && err == nil:
				t.Errorf("%s frame with DataSeq 0 decoded: %+v", tc.name, e)
			case seq == 0 && !strings.Contains(err.Error(), "without sequence"):
				t.Errorf("%s frame with DataSeq 0: err = %v, want a missing-sequence error", tc.name, err)
			case seq > 0 && err != nil:
				t.Errorf("%s frame with DataSeq %d: %v", tc.name, seq, err)
			}
		}
	}
}

// TestBinaryWireUnknownRef checks that a frame referencing dictionary
// ids the receiver never saw (a decoder spliced into the middle of a
// stream — the bug dictionary reset on redial exists to prevent) fails
// loudly instead of fabricating strings.
func TestBinaryWireUnknownRef(t *testing.T) {
	var buf bytes.Buffer
	sender := newBinConn(bufConn{w: &buf}, true)
	frames := []*envelope{
		seqTuple(1, topology.Values{"doc": dictDoc(1, "user", "alice")}),
		seqTuple(2, topology.Values{"doc": dictDoc(2, "user", "alice")}),
	}
	if err := sender.sendBatch(frames[:1]); err != nil {
		t.Fatal(err)
	}
	cut := buf.Len()
	if err := sender.sendBatch(frames[1:]); err != nil {
		t.Fatal(err)
	}
	// Feed only the second frame (preceded by a fresh preamble) to a
	// receiver that never saw the first frame's dictionary delta.
	spliced := append(append([]byte(binWireMagic), binWireVersion), buf.Bytes()[cut:]...)
	receiver := newBinConn(bufConn{r: bytes.NewReader(spliced)}, false)
	if _, err := receiver.recv(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("spliced stream decoded; err = %v, want dictionary ref out of range", err)
	}
}

// TestBinaryWireTruncation checks every truncation point of a valid
// frame is rejected with an error — never a panic, never a phantom
// tuple.
func TestBinaryWireTruncation(t *testing.T) {
	var buf bytes.Buffer
	sender := newBinConn(bufConn{w: &buf}, true)
	err := sender.sendBatch([]*envelope{
		seqTuple(1, topology.Values{"doc": dictDoc(1, "user", "alice"), "n": 7, "s": "xyz"}),
		seqTuple(2, topology.Values{"ids": []int{1, 2, 3}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		receiver := newBinConn(bufConn{r: bytes.NewReader(full[:cut])}, false)
		e, err := receiver.recv()
		if err == nil {
			t.Fatalf("cut at %d/%d decoded a tuple: %+v", cut, len(full), e)
		}
	}
}

// TestBinaryWirePreamble checks version/magic negotiation failures are
// rejected before any frame is interpreted.
func TestBinaryWirePreamble(t *testing.T) {
	bad := [][]byte{
		[]byte("GARBAGE"),
		append([]byte("SFJX"), binWireVersion),         // wrong magic
		append([]byte(binWireMagic), binWireVersion+1), // future version
	}
	for i, b := range bad {
		receiver := newBinConn(bufConn{r: bytes.NewReader(b)}, false)
		if _, err := receiver.recv(); err == nil {
			t.Fatalf("case %d: bad preamble accepted", i)
		}
	}
}

// TestBinaryWireAckFrame round-trips a dedicated ack frame.
func TestBinaryWireAckFrame(t *testing.T) {
	var buf bytes.Buffer
	sender := newBinConn(bufConn{w: &buf}, true)
	if err := sender.send(&envelope{Kind: frameAck, WorkerID: 3, AckSeq: 99}); err != nil {
		t.Fatal(err)
	}
	receiver := newBinConn(bufConn{r: bytes.NewReader(buf.Bytes())}, false)
	e, err := receiver.recv()
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != frameAck || e.WorkerID != 3 || e.AckSeq != 99 {
		t.Fatalf("ack decoded as %+v", e)
	}
	// Control-plane kinds must be refused: they belong on gob.
	if err := sender.send(&envelope{Kind: frameProbe}); err == nil {
		t.Fatal("control frame accepted on the binary data plane")
	}
}

// TestBinaryWireReservedFlags: the frame flags byte is reserved, so an
// encoder writes 0 and a frame with any flag bit set is a decode error,
// never a frame read as if the bit were absent.
func TestBinaryWireReservedFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := newBinConn(bufConn{w: &buf}, true).sendBatch([]*envelope{seqTuple(1, topology.Values{"s": "x"})}); err != nil {
		t.Fatal(err)
	}
	pre := len(binWireMagic) + 1
	_, n := binary.Uvarint(buf.Bytes()[pre:])
	flagsAt := pre + n + 1 // after the length and the kind byte
	if got := buf.Bytes()[flagsAt]; got != 0 {
		t.Fatalf("encoder wrote flags %#02x, want 0", got)
	}
	for _, flags := range []byte{0x01, 0x02} {
		frame := bytes.Clone(buf.Bytes())
		frame[flagsAt] = flags
		if e, err := newBinConn(bufConn{r: bytes.NewReader(frame)}, false).recv(); err == nil {
			t.Errorf("flags %#02x: decoded %+v, want an error", flags, e)
		}
	}
}

// TestBinaryWireOverSocket runs the codec over a real socket pair with
// concurrent sender/receiver — the shape the worker uses.
func TestBinaryWireOverSocket(t *testing.T) {
	a, b := net.Pipe()
	sender := newBinConn(a, true)
	receiver := newBinConn(b, false)
	defer sender.close()
	defer receiver.close()

	batches := [][]*envelope{
		{seqTuple(1, topology.Values{"doc": dictDoc(1, "user", "alice", "host", "web-1")}),
			seqTuple(2, topology.Values{"doc": dictDoc(2, "user", "alice", "region", "eu")})},
		{seqTuple(3, topology.Values{"doc": dictDoc(3), "window": 1})},
	}
	errCh := make(chan error, 1)
	go func() {
		for _, batch := range batches {
			if err := sender.sendBatch(batch); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for _, batch := range batches {
		for i, want := range batch {
			e, err := receiver.recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if e.DataSeq != want.DataSeq {
				t.Fatalf("member %d: seq %d want %d", i, e.DataSeq, want.DataSeq)
			}
			sameValues(t, e.Tuple.Values, want.Tuple.Values)
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// FuzzFrameRoundTrip fuzzes the binary codec end to end, mirroring
// FuzzInternedParity: whatever batch is encoded must decode to the same
// semantic envelopes; truncating the stream anywhere must error (never
// panic, never a phantom tuple); splicing a decoder into the middle of
// a stream must surface unknown dictionary refs; and arbitrary garbage
// after a valid preamble must be rejected without panicking.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add("user", "alice", "host", "web-1", uint8(3), uint16(10), []byte{})
	f.Add("", "", "k", "v", uint8(0), uint16(0), []byte{0x01})
	f.Add("a", strings.Repeat("x", 300), "b", "y", uint8(7), uint16(40), []byte{0x05, 1, 0, 0xff})
	f.Fuzz(func(t *testing.T, a1, v1, a2, v2 string, n uint8, cut uint16, raw []byte) {
		nTuples := int(n%4) + 1
		// Every data frame is sequenced: the first DataSeq is drawn from
		// [1, 2^24], spanning one- to four-byte varints.
		first := 1 + (uint64(n)<<16 | uint64(cut))
		batch := make([]*envelope, nTuples)
		for i := range batch {
			vals := topology.Values{
				"doc": dictDoc(uint64(i+1), a1, v1, a2, v2),
				"n":   int(n) - i,
				"s":   v1,
			}
			if i%2 == 1 {
				vals["ids"] = []int{i, -i}
				vals["f"] = float64(n) / 3
			}
			batch[i] = seqTuple(first+uint64(i), vals)
		}
		batch[0].AckSeq = uint64(n)

		var buf bytes.Buffer
		sender := newBinConn(bufConn{w: &buf}, true)
		if err := sender.sendBatch(batch); err != nil {
			t.Fatal(err)
		}
		cutAt := buf.Len()
		// Second frame reusing the first frame's dictionary.
		second := seqTuple(first+uint64(nTuples), topology.Values{"doc": dictDoc(99, a1, v1)})
		if err := sender.sendBatch([]*envelope{second}); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()

		// Parity: both frames decode to the originals.
		receiver := newBinConn(bufConn{r: bytes.NewReader(full)}, false)
		for i, want := range append(append([]*envelope{}, batch...), second) {
			e, err := receiver.recv()
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if e.DataSeq != want.DataSeq || e.TargetComp != want.TargetComp || e.TargetTask != want.TargetTask {
				t.Fatalf("member %d: %+v, want %+v", i, e, want)
			}
			wd := want.Tuple.Values["doc"].(document.Document)
			gd, ok := e.Tuple.Values["doc"].(document.Document)
			if !ok || !gd.Equal(wd) || gd.ID != wd.ID {
				t.Fatalf("member %d: doc %v, want %v", i, e.Tuple.Values["doc"], wd)
			}
			if len(e.Tuple.Values) != len(want.Tuple.Values) {
				t.Fatalf("member %d: values %v, want %v", i, e.Tuple.Values, want.Tuple.Values)
			}
		}
		if _, err := receiver.recv(); err != io.EOF {
			t.Fatalf("stream end: %v", err)
		}

		// Truncation anywhere inside the first frame must error.
		if c := int(cut) % cutAt; true {
			tr := newBinConn(bufConn{r: bytes.NewReader(full[:c])}, false)
			if e, err := tr.recv(); err == nil {
				t.Fatalf("truncation at %d decoded %+v", c, e)
			}
		}

		// Splice: decoding the second frame without the first's dictionary
		// must fail (the frame's refs point at entries never shipped).
		spliced := append(append([]byte(binWireMagic), binWireVersion), full[cutAt:]...)
		sp := newBinConn(bufConn{r: bytes.NewReader(spliced)}, false)
		if _, err := sp.recv(); err == nil {
			t.Fatal("spliced stream decoded a frame with unknown dictionary refs")
		}

		// Garbage robustness: arbitrary bytes after a valid preamble must
		// error out (eventually) without panicking or looping forever.
		g := newBinConn(bufConn{r: bytes.NewReader(append(append([]byte(binWireMagic), binWireVersion), raw...))}, false)
		for {
			if _, err := g.recv(); err != nil {
				break
			}
		}
	})
}

// TestWireTelemetryByFormat runs a two-worker topology and checks the
// wire instruments an operator reads in /debug/stats: the framed
// cluster_wire_bytes_* counters, the frame batch histogram and the raw
// socket byte counters all move.
func TestWireTelemetryByFormat(t *testing.T) {
	t.Run("wire=binary", func(t *testing.T) {
		const n = 200
		mu := &sync.Mutex{}
		sum, cnt := 0, 0
		makeBuilder := func() *topology.Builder {
			b := topology.NewBuilder()
			b.SetSpout("src", func(int) topology.Spout { return &countSpout{n: n} }, 1)
			b.SetBolt("sink", func(int) topology.Bolt {
				return &sumBolt{mu: mu, sum: &sum, cnt: &cnt}
			}, 2).ShuffleGrouping("src")
			return b
		}
		regs := make([]*telemetry.Registry, 2)
		_, _, result := startChaosCluster(t, makeBuilder, 2, instrument(regs))
		awaitResult(t, result)
		mu.Lock()
		if cnt != n {
			t.Errorf("received %d tuples, want %d", cnt, n)
		}
		mu.Unlock()

		var wireData, wireRecv, batches int64
		for id, reg := range regs {
			wireData += reg.Counter(telemetry.Name("cluster_wire_bytes_sent_total", "kind", "data", "worker", fmt.Sprint(id))).Value()
			wireRecv += reg.Counter(telemetry.Name("cluster_wire_bytes_received_total", "kind", "data", "worker", fmt.Sprint(id))).Value()
			batches += reg.Histogram(telemetry.Name("cluster_frame_batch_docs", "worker", fmt.Sprint(id))).Count()
		}
		if wireData == 0 || wireRecv == 0 {
			t.Errorf("run moved no wire byte counters: sent=%d received=%d", wireData, wireRecv)
		}
		if batches == 0 {
			t.Error("run recorded no frame batches")
		}
		if sumTel(regs, "cluster_bytes_sent_total") == 0 {
			t.Error("run moved no socket byte counters")
		}
	})
}
