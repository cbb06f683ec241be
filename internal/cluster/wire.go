package cluster

// Binary wire format: the data plane's hand-rolled replacement for gob
// envelopes (ROADMAP item 5). Each connection carries a stream of
// length-prefixed frames; a data frame coalesces many tuples and ships
// the connection's dictionary delta as a compact binary section, so
// interned documents travel as columnar varint-packed reference arrays
// instead of self-describing gob maps. The control plane (coordinator
// handshake, probes, heartbeats) stays on gob — it is low-rate and
// benefits from gob's evolvability; only worker<->worker tuple/ack
// traffic takes this path.
//
// Connection preamble (dialer -> acceptor, once, before any frame):
//
//	"SFJW" magic (4 bytes) | version (1 byte)
//
// Frame layout (both directions after the preamble):
//
//	uvarint frameLen            // length of everything that follows
//	byte    kind                // 1 = data, 2 = ack, 3 = state
//	byte    flags               // reserved: must be 0, decoding rejects any other value
//	payload [frameLen-2]byte
//
// Data payload:
//
//	varint  fromWorker
//	uvarint ackSeq              // piggybacked cumulative ack, 0 = none
//	uvarint nDict               // dictionary delta: first-use strings,
//	nDict × { uvarint len, bytes }  // in reference order
//	uvarint nTuples
//	uvarint firstSeq            // member i carries DataSeq firstSeq+i; never 0
//	nTuples × member
//
// Member:
//
//	uvarint targetComp ref | varint targetTask | uvarint stream ref
//	uvarint source ref     | varint sourceTask | uvarint nValues
//	nValues × { uvarint key ref, byte tag, value payload }
//
// Documents (tag 1) are columnar: all attr refs then all val refs, so
// runs of shared attribute ids varint-pack tightly. Value strings are
// inlined rather than dictionary-encoded — values can be unbounded-
// cardinality, and the per-connection dictionary must not grow without
// bound. Any payload type outside the fast set falls back to a
// length-prefixed gob blob (tag 10), keeping the format total over
// everything gob could carry.
//
// Ack payload: varint workerID | uvarint ackSeq.
//
// Reliable delivery: a batch is a contiguous slice of one peer's resend
// buffer, so member sequence numbers are implicit (firstSeq+i), the
// receiver dedups per member on DataSeq, and replays after a sever
// re-encode against the fresh connection's empty dictionary.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"repro/internal/document"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

const (
	binWireMagic   = "SFJW"
	binWireVersion = 1

	binKindData = 1
	binKindAck  = 2
	// binKindState carries one chunk of a migrating task's snapshot
	// envelope (elastic rescale). State frames are sequenced like data
	// frames — they occupy DataSeq slots in the per-peer stream and are
	// acked, deduplicated and replayed identically — but always travel
	// one to a frame: a multi-megabyte snapshot chunk has nothing to
	// gain from coalescing with tuples, and keeping the kinds
	// homogeneous per frame keeps the columnar tuple layout untouched.
	binKindState = 3

	// maxBinFrame bounds a frame a decoder will accept; anything larger
	// is treated as stream corruption rather than allocated.
	maxBinFrame = 64 << 20

	// frameBatch caps how many tuples one data frame coalesces.
	// Batching is greedy — whatever is pending when the sender drains
	// its queue travels together — so it adds no latency.
	frameBatch = 32
)

var errTruncatedFrame = errors.New("cluster: truncated binary frame")

// Value type tags inside a member.
const (
	tagNil      = 0
	tagDoc      = 1
	tagString   = 2
	tagInt      = 3
	tagInt64    = 4
	tagUint64   = 5
	tagFloat64  = 6
	tagTrue     = 7
	tagFalse    = 8
	tagIntSlice = 9
	tagGob      = 10
)

// binConn is a data-plane connection. It owns a per-connection wire
// dictionary on each side (empty on every (re)dial), a mutex-guarded
// write path safe for concurrent use, and a read path owned by a single
// goroutine; it writes one socket frame per batch and hands decoded
// batch members to recv one at a time.
type binConn struct {
	raw net.Conn
	br  *bufio.Reader
	mu  sync.Mutex // guards the write path and sendDict

	pre     []byte // preamble prepended to the first write (dialer side)
	wantPre bool   // preamble expected before the first frame (acceptor)

	sendDict map[string]uint32 // guarded by mu
	recvDict []string          // owned by the reading goroutine

	// pending holds decoded batch members not yet returned by recv.
	pending []*envelope

	// Write-side scratch (guarded by mu) and read-side scratch (owned by
	// the reading goroutine); reused across frames.
	members []byte
	payload []byte
	frame   []byte
	delta   []string
	rbuf    []byte

	// Optional instruments (nil-safe no-ops).
	dictHits, dictMisses      *telemetry.Counter
	wireSentData, wireSentAck *telemetry.Counter
	wireRecvData, wireRecvAck *telemetry.Counter
	batchDocs                 *telemetry.Histogram
}

// newBinConn wraps a data-plane socket in the binary codec. The dialer
// side announces itself with the magic preamble; the acceptor verifies
// it before the first frame.
func newBinConn(raw net.Conn, dialer bool) *binConn {
	c := &binConn{
		raw: raw,
		br:  bufio.NewReaderSize(raw, 32<<10),
	}
	if dialer {
		c.pre = append([]byte(binWireMagic), binWireVersion)
	} else {
		c.wantPre = true
	}
	return c
}

func (c *binConn) close() { _ = c.raw.Close() }

// send writes one envelope as its own frame. Only data-plane kinds
// travel on a binConn; the control plane stays on gob.
func (c *binConn) send(e *envelope) error {
	switch e.Kind {
	case frameTuple:
		return c.sendBatch([]*envelope{e})
	case frameAck:
		c.mu.Lock()
		defer c.mu.Unlock()
		p := c.payload[:0]
		p = binary.AppendVarint(p, int64(e.WorkerID))
		p = binary.AppendUvarint(p, e.AckSeq)
		c.payload = p
		return c.writeFrameLocked(binKindAck, p)
	case frameState:
		return c.sendState(e)
	default:
		return fmt.Errorf("cluster: frame kind %d not carried on the binary data plane", e.Kind)
	}
}

// sendBatch coalesces a contiguous run of sequenced tuple envelopes
// into one wire frame. Members must carry consecutive DataSeq values
// (the resend buffer guarantees this); their sequence travels as a
// single firstSeq. Envelopes are never mutated — the dictionary encode
// emits fresh bytes, so the resend buffer's raw strings re-encode
// cleanly against a fresh connection after a sever. An error poisons
// the connection: the caller must evict it and replay on a successor.
func (c *binConn) sendBatch(es []*envelope) error {
	if len(es) == 0 {
		return nil
	}
	if es[0].Kind == frameState {
		// State chunks never coalesce; the sender splits batches at kind
		// boundaries, so a state envelope arrives here only alone.
		if len(es) != 1 {
			return errors.New("cluster: state frames cannot batch")
		}
		return c.sendState(es[0])
	}
	for i := 1; i < len(es); i++ {
		if es[i].DataSeq != es[0].DataSeq+uint64(i) {
			return fmt.Errorf("cluster: wire batch sequence gap at member %d", i)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sendDict == nil {
		c.sendDict = make(map[string]uint32)
	}
	delta := c.delta[:0]
	m := c.members[:0]
	var err error
	for _, e := range es {
		if m, err = c.appendMember(m, e, &delta); err != nil {
			c.delta, c.members = delta[:0], m[:0]
			return err
		}
	}
	p := c.payload[:0]
	p = binary.AppendVarint(p, int64(es[0].FromWorker))
	p = binary.AppendUvarint(p, es[0].AckSeq)
	p = binary.AppendUvarint(p, uint64(len(delta)))
	for _, s := range delta {
		p = binary.AppendUvarint(p, uint64(len(s)))
		p = append(p, s...)
	}
	p = binary.AppendUvarint(p, uint64(len(es)))
	p = binary.AppendUvarint(p, es[0].DataSeq)
	p = append(p, m...)
	c.delta, c.members, c.payload = delta, m, p
	c.batchDocs.ObserveNS(int64(len(es)))
	return c.writeFrameLocked(binKindData, p)
}

// sendState writes one migration state chunk as its own frame. The
// target identifiers travel as raw length-prefixed strings rather than
// dictionary refs: state frames are rare (a handful per rescale), and
// keeping them dictionary-free means a replay after a sever needs no
// encoder state beyond the bytes in the resend buffer.
//
// State payload:
//
//	varint  fromWorker | uvarint ackSeq | uvarint dataSeq
//	uvarint epoch      | varint window  | byte last
//	uvarint len(targetComp) | bytes | varint targetTask
//	uvarint len(stateData)  | bytes
func (c *binConn) sendState(e *envelope) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.payload[:0]
	p = binary.AppendVarint(p, int64(e.FromWorker))
	p = binary.AppendUvarint(p, e.AckSeq)
	p = binary.AppendUvarint(p, e.DataSeq)
	p = binary.AppendUvarint(p, e.Epoch)
	p = binary.AppendVarint(p, int64(e.Window))
	if e.StateLast {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = binary.AppendUvarint(p, uint64(len(e.TargetComp)))
	p = append(p, e.TargetComp...)
	p = binary.AppendVarint(p, int64(e.TargetTask))
	p = binary.AppendUvarint(p, uint64(len(e.StateData)))
	p = append(p, e.StateData...)
	c.payload = p
	return c.writeFrameLocked(binKindState, p)
}

// writeFrameLocked frames and writes one payload in a single socket
// write. The caller holds c.mu. Any error poisons the connection: the
// sender evicts it and replays on a successor, so a half-written frame
// can never desynchronise the stream.
func (c *binConn) writeFrameLocked(kind byte, payload []byte) error {
	f := c.frame[:0]
	if len(c.pre) > 0 {
		f = append(f, c.pre...)
		c.pre = nil
	}
	f = binary.AppendUvarint(f, uint64(len(payload))+2)
	f = append(f, kind, 0) // flags: reserved
	f = append(f, payload...)
	c.frame = f
	if _, err := c.raw.Write(f); err != nil {
		return fmt.Errorf("cluster: wire send: %w", err)
	}
	switch kind {
	case binKindData:
		c.wireSentData.Add(int64(len(f)))
	case binKindAck:
		c.wireSentAck.Add(int64(len(f)))
	}
	return nil
}

func (c *binConn) appendMember(m []byte, e *envelope, delta *[]string) ([]byte, error) {
	m = binary.AppendUvarint(m, uint64(c.refLocked(e.TargetComp, delta)))
	m = binary.AppendVarint(m, int64(e.TargetTask))
	m = binary.AppendUvarint(m, uint64(c.refLocked(e.Tuple.Stream, delta)))
	m = binary.AppendUvarint(m, uint64(c.refLocked(e.Tuple.Source, delta)))
	m = binary.AppendVarint(m, int64(e.Tuple.SourceTask))
	m = binary.AppendUvarint(m, uint64(len(e.Tuple.Values)))
	var err error
	for k, v := range e.Tuple.Values {
		m = binary.AppendUvarint(m, uint64(c.refLocked(k, delta)))
		if m, err = c.appendValue(m, v, delta); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// refLocked resolves a string to its dictionary id, assigning the next
// dense id and recording it in the frame's delta on first use. State
// advances only with the connection, and a failed send evicts the whole
// connection, so sender and receiver can never disagree.
func (c *binConn) refLocked(s string, delta *[]string) uint32 {
	if id, ok := c.sendDict[s]; ok {
		c.dictHits.Inc()
		return id
	}
	c.dictMisses.Inc()
	id := uint32(len(c.sendDict))
	c.sendDict[s] = id
	*delta = append(*delta, s)
	return id
}

func (c *binConn) appendValue(m []byte, v any, delta *[]string) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(m, tagNil), nil
	case document.Document:
		m = append(m, tagDoc)
		pairs := v.Pairs()
		m = binary.AppendUvarint(m, v.ID)
		m = binary.AppendUvarint(m, uint64(len(pairs)))
		for _, p := range pairs {
			m = binary.AppendUvarint(m, uint64(c.refLocked(p.Attr, delta)))
		}
		for _, p := range pairs {
			m = binary.AppendUvarint(m, uint64(c.refLocked(p.Val, delta)))
		}
		return m, nil
	case string:
		m = append(m, tagString)
		m = binary.AppendUvarint(m, uint64(len(v)))
		return append(m, v...), nil
	case int:
		m = append(m, tagInt)
		return binary.AppendVarint(m, int64(v)), nil
	case int64:
		m = append(m, tagInt64)
		return binary.AppendVarint(m, v), nil
	case uint64:
		m = append(m, tagUint64)
		return binary.AppendUvarint(m, v), nil
	case float64:
		m = append(m, tagFloat64)
		return binary.LittleEndian.AppendUint64(m, math.Float64bits(v)), nil
	case bool:
		if v {
			return append(m, tagTrue), nil
		}
		return append(m, tagFalse), nil
	case []int:
		m = append(m, tagIntSlice)
		m = binary.AppendUvarint(m, uint64(len(v)))
		for _, n := range v {
			m = binary.AppendVarint(m, int64(n))
		}
		return m, nil
	default:
		// Anything else rides as a self-contained gob blob, so every
		// gob-encodable payload type still travels (the type must be
		// Register-ed).
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
			return nil, fmt.Errorf("cluster: wire value encode: %w", err)
		}
		m = append(m, tagGob)
		m = binary.AppendUvarint(m, uint64(buf.Len()))
		return append(m, buf.Bytes()...), nil
	}
}

// recv returns the next decoded envelope, reading and unpacking frames
// as needed; batch members come out one at a time in order, each with
// its implicit DataSeq, so the reliable-delivery read loop is untouched
// by batching.
func (c *binConn) recv() (*envelope, error) {
	for len(c.pending) == 0 {
		if err := c.readFrame(); err != nil {
			return nil, err
		}
	}
	e := c.pending[0]
	c.pending[0] = nil
	c.pending = c.pending[1:]
	return e, nil
}

func (c *binConn) readFrame() error {
	if c.wantPre {
		var pre [len(binWireMagic) + 1]byte
		if _, err := io.ReadFull(c.br, pre[:]); err != nil {
			return err
		}
		if string(pre[:len(binWireMagic)]) != binWireMagic {
			return fmt.Errorf("cluster: bad wire preamble %q", pre[:])
		}
		if pre[len(binWireMagic)] != binWireVersion {
			return fmt.Errorf("cluster: wire version %d not supported", pre[len(binWireMagic)])
		}
		c.wantPre = false
	}
	ln, err := binary.ReadUvarint(c.br)
	if err != nil {
		return err
	}
	if ln < 2 || ln > maxBinFrame {
		return fmt.Errorf("cluster: wire frame length %d out of range", ln)
	}
	if uint64(cap(c.rbuf)) < ln {
		c.rbuf = make([]byte, ln)
	}
	buf := c.rbuf[:ln]
	if _, err := io.ReadFull(c.br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	kind, flags := buf[0], buf[1]
	if flags != 0 {
		return fmt.Errorf("cluster: wire frame flags %#02x reserved, want 0", flags)
	}
	payload := buf[2:]
	switch kind {
	case binKindData:
		c.wireRecvData.Add(int64(ln) + int64(uvarintLen(ln)))
		return c.readData(payload)
	case binKindAck:
		c.wireRecvAck.Add(int64(ln) + int64(uvarintLen(ln)))
		return c.readAck(payload)
	case binKindState:
		c.wireRecvData.Add(int64(ln) + int64(uvarintLen(ln)))
		return c.readState(payload)
	default:
		return fmt.Errorf("cluster: unknown wire frame kind %d", kind)
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (c *binConn) readAck(payload []byte) error {
	r := wireReader{b: payload}
	from, err := r.varint()
	if err != nil {
		return err
	}
	seq, err := r.uvarint()
	if err != nil {
		return err
	}
	c.pending = append(c.pending, &envelope{Kind: frameAck, WorkerID: int(from), AckSeq: seq})
	return nil
}

func (c *binConn) readState(payload []byte) error {
	r := wireReader{b: payload}
	from, err := r.varint()
	if err != nil {
		return err
	}
	ackSeq, err := r.uvarint()
	if err != nil {
		return err
	}
	dataSeq, err := r.uvarint()
	if err != nil {
		return err
	}
	if dataSeq == 0 {
		return errors.New("cluster: wire state frame without sequence")
	}
	epoch, err := r.uvarint()
	if err != nil {
		return err
	}
	window, err := r.varint()
	if err != nil {
		return err
	}
	last, err := r.byte()
	if err != nil {
		return err
	}
	cl, err := r.uvarint()
	if err != nil {
		return err
	}
	comp, err := r.take(cl)
	if err != nil {
		return err
	}
	task, err := r.varint()
	if err != nil {
		return err
	}
	dl, err := r.uvarint()
	if err != nil {
		return err
	}
	data, err := r.take(dl)
	if err != nil {
		return err
	}
	if r.rem() != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after wire state frame", r.rem())
	}
	c.pending = append(c.pending, &envelope{
		Kind:       frameState,
		FromWorker: int(from),
		AckSeq:     ackSeq,
		DataSeq:    dataSeq,
		Epoch:      epoch,
		Window:     int(window),
		StateLast:  last != 0,
		TargetComp: string(comp),
		TargetTask: int(task),
		StateData:  append([]byte(nil), data...),
	})
	return nil
}

func (c *binConn) readData(payload []byte) error {
	r := wireReader{b: payload}
	from, err := r.varint()
	if err != nil {
		return err
	}
	ackSeq, err := r.uvarint()
	if err != nil {
		return err
	}
	ndict, err := r.uvarint()
	if err != nil {
		return err
	}
	if ndict > uint64(r.rem()) {
		return errTruncatedFrame
	}
	for i := uint64(0); i < ndict; i++ {
		sl, err := r.uvarint()
		if err != nil {
			return err
		}
		b, err := r.take(sl)
		if err != nil {
			return err
		}
		c.recvDict = append(c.recvDict, string(b))
	}
	ntuples, err := r.uvarint()
	if err != nil {
		return err
	}
	if ntuples == 0 || ntuples > uint64(r.rem()) {
		return fmt.Errorf("cluster: wire frame tuple count %d out of range", ntuples)
	}
	firstSeq, err := r.uvarint()
	if err != nil {
		return err
	}
	if firstSeq == 0 {
		return errors.New("cluster: wire frame without sequence")
	}
	for i := uint64(0); i < ntuples; i++ {
		e, err := c.readMember(&r)
		if err != nil {
			return err
		}
		e.FromWorker = int(from)
		e.DataSeq = firstSeq + i
		if i == 0 {
			e.AckSeq = ackSeq
		}
		c.pending = append(c.pending, e)
	}
	if r.rem() != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after wire frame", r.rem())
	}
	return nil
}

func (c *binConn) readMember(r *wireReader) (*envelope, error) {
	comp, err := c.readRef(r)
	if err != nil {
		return nil, err
	}
	task, err := r.varint()
	if err != nil {
		return nil, err
	}
	stream, err := c.readRef(r)
	if err != nil {
		return nil, err
	}
	source, err := c.readRef(r)
	if err != nil {
		return nil, err
	}
	srcTask, err := r.varint()
	if err != nil {
		return nil, err
	}
	nvals, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nvals > uint64(r.rem())+1 {
		return nil, errTruncatedFrame
	}
	e := &envelope{
		Kind:       frameTuple,
		TargetComp: comp,
		TargetTask: int(task),
		Tuple: topology.Tuple{
			Stream:     stream,
			Source:     source,
			SourceTask: int(srcTask),
		},
	}
	if nvals > 0 {
		e.Tuple.Values = make(topology.Values, nvals)
		for i := uint64(0); i < nvals; i++ {
			k, err := c.readRef(r)
			if err != nil {
				return nil, err
			}
			v, err := c.readValue(r)
			if err != nil {
				return nil, err
			}
			e.Tuple.Values[k] = v
		}
	}
	return e, nil
}

func (c *binConn) readRef(r *wireReader) (string, error) {
	ref, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if ref >= uint64(len(c.recvDict)) {
		return "", fmt.Errorf("cluster: wire dictionary ref %d out of range (%d known)", ref, len(c.recvDict))
	}
	return c.recvDict[ref], nil
}

func (c *binConn) readValue(r *wireReader) (any, error) {
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagDoc:
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		np, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if np > uint64(r.rem()) {
			return nil, errTruncatedFrame
		}
		pairs := make([]document.Pair, np)
		for i := range pairs {
			if pairs[i].Attr, err = c.readRef(r); err != nil {
				return nil, err
			}
		}
		for i := range pairs {
			if pairs[i].Val, err = c.readRef(r); err != nil {
				return nil, err
			}
		}
		// Send side emitted the document's sorted-unique pair list, so
		// FromSorted takes its verified fast path (and falls back to the
		// full construction on a corrupt payload).
		return document.FromSorted(id, pairs), nil
	case tagString:
		sl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.take(sl)
		if err != nil {
			return nil, err
		}
		return string(b), nil
	case tagInt:
		v, err := r.varint()
		return int(v), err
	case tagInt64:
		return r.varint()
	case tagUint64:
		return r.uvarint()
	case tagFloat64:
		b, err := r.take(8)
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
	case tagTrue:
		return true, nil
	case tagFalse:
		return false, nil
	case tagIntSlice:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(r.rem()) {
			return nil, errTruncatedFrame
		}
		out := make([]int, n)
		for i := range out {
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			out[i] = int(v)
		}
		return out, nil
	case tagGob:
		bl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.take(bl)
		if err != nil {
			return nil, err
		}
		var v any
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
			return nil, fmt.Errorf("cluster: wire value decode: %w", err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("cluster: unknown wire value tag %d", tag)
	}
}

// wireReader is a bounds-checked cursor over one frame's payload; every
// read reports truncation as an error instead of panicking, so a
// corrupt frame kills only its connection.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) rem() int { return len(r.b) - r.off }

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errTruncatedFrame
	}
	r.off += n
	return v, nil
}

func (r *wireReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, errTruncatedFrame
	}
	r.off += n
	return v, nil
}

func (r *wireReader) take(n uint64) ([]byte, error) {
	if n > uint64(r.rem()) {
		return nil, errTruncatedFrame
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *wireReader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, errTruncatedFrame
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}
