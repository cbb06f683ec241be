package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/topology"
)

// countWriter counts bytes so benchmarks can report wire density.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// benchEnvelopes builds the Fig. 7-style payload the data plane carries
// in a real run: Assigner→Joiner tuples holding interned server-log
// documents plus a window number.
func benchEnvelopes(n int) []*envelope {
	gen := datagen.NewServerLog(59)
	docs := gen.Window(n)
	es := make([]*envelope, n)
	for i, d := range docs {
		es[i] = seqTuple(uint64(i+1), topology.Values{"doc": d, "window": i / 1000})
	}
	return es
}

// BenchmarkWireEncode measures single-tuple encoding on a long-lived
// connection (dictionary in steady state).
func BenchmarkWireEncode(b *testing.B) {
	b.Run("format=binary", func(b *testing.B) {
		es := benchEnvelopes(512)
		w := &countWriter{}
		c := newBinConn(bufConn{w: w}, true)
		// Warm the dictionary so the loop measures steady state.
		for _, e := range es {
			if err := c.send(e); err != nil {
				b.Fatal(err)
			}
		}
		w.n = 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.send(es[i%len(es)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(w.n)/float64(b.N), "bytes/tuple")
	})
}

// BenchmarkWireDecode measures single-tuple decoding of a steady-state
// stream.
func BenchmarkWireDecode(b *testing.B) {
	b.Run("format=binary", func(b *testing.B) {
		es := benchEnvelopes(512)
		var buf bytes.Buffer
		enc := newBinConn(bufConn{w: &buf}, true)
		for _, e := range es {
			if err := enc.send(e); err != nil {
				b.Fatal(err)
			}
		}
		stream := buf.Bytes()
		mkReceiver := func() *binConn {
			return newBinConn(bufConn{r: bytes.NewReader(stream)}, false)
		}
		dec := mkReceiver()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(es) == 0 && i > 0 {
				// Rewinding the stream (and the per-connection dictionary)
				// is harness bookkeeping, not decode cost.
				b.StopTimer()
				dec = mkReceiver()
				b.StartTimer()
			}
			if _, err := dec.recv(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFrameBatch measures the full per-tuple cost of batched
// sends — the shape the peer sender actually uses — across batch sizes.
// bytes/tuple here is the headline wire-density number: the format
// amortises the frame header and dictionary over the whole batch.
func BenchmarkFrameBatch(b *testing.B) {
	for _, batch := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("format=binary/batch=%d", batch), func(b *testing.B) {
			es := benchEnvelopes(512)
			w := &countWriter{}
			c := newBinConn(bufConn{w: w}, true)
			for _, e := range es {
				if err := c.send(e); err != nil {
					b.Fatal(err)
				}
			}
			w.n = 0
			b.ReportAllocs()
			b.ResetTimer()
			sent := 0
			for sent < b.N {
				lo := sent % (len(es) - batch + 1)
				if err := c.sendBatch(es[lo : lo+batch]); err != nil {
					b.Fatal(err)
				}
				sent += batch
			}
			b.StopTimer()
			b.ReportMetric(float64(w.n)/float64(sent), "bytes/tuple")
		})
	}
}
