package symbol

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

func TestTableInternRoundTrip(t *testing.T) {
	tb := NewTable()
	a := tb.Intern("alpha")
	b := tb.Intern("beta")
	if a == b {
		t.Fatalf("distinct strings got equal IDs: %d", a)
	}
	if got := tb.Intern("alpha"); got != a {
		t.Errorf("re-intern changed ID: %d != %d", got, a)
	}
	if got := tb.String(a); got != "alpha" {
		t.Errorf("String(%d) = %q, want alpha", a, got)
	}
	if id, ok := tb.Lookup("beta"); !ok || id != b {
		t.Errorf("Lookup(beta) = %d,%v", id, ok)
	}
	if _, ok := tb.Lookup("missing"); ok {
		t.Error("Lookup of unseen string reported ok")
	}
	if tb.String(ID(999)) != "" {
		t.Error("unknown ID must resolve to empty string")
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d, want 2", tb.Len())
	}
}

func TestTableDenseIDs(t *testing.T) {
	tb := NewTable()
	for i := 0; i < 100; i++ {
		id := tb.Intern(fmt.Sprintf("s%03d", i))
		if int(id) != i {
			t.Fatalf("Intern #%d got ID %d; IDs must be dense in first-use order", i, id)
		}
	}
}

func TestPairPacking(t *testing.T) {
	p := MakePair(3, 0xDEADBEEF)
	if p.Attr() != 3 || p.Val() != 0xDEADBEEF {
		t.Fatalf("round trip: attr=%d val=%x", p.Attr(), p.Val())
	}
	if MakePair(1, 2) == MakePair(2, 1) {
		t.Fatal("attr/val must not be symmetric in the packing")
	}
}

func TestGlobalPairIntern(t *testing.T) {
	p1 := InternPair("attr-global-test", "sval-global-test")
	p2, ok := LookupPair("attr-global-test", "sval-global-test")
	if !ok || p1 != p2 {
		t.Fatalf("LookupPair = %v,%v want %v,true", p2, ok, p1)
	}
	a, v := PairStrings(p1)
	if a != "attr-global-test" || v != "sval-global-test" {
		t.Fatalf("PairStrings = %q,%q", a, v)
	}
	if _, ok := LookupPair("attr-global-test", "never-interned-val"); ok {
		t.Error("LookupPair with unknown value must miss")
	}
}

func TestConcurrentIntern(t *testing.T) {
	tb := NewTable()
	const workers, n = 8, 400
	var wg sync.WaitGroup
	ids := make([][]ID, workers)
	for w := 0; w < workers; w++ {
		w := w
		ids[w] = make([]ID, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				ids[w][i] = tb.Intern(fmt.Sprintf("k%d", i))
				// Interleave lock-free readers with writers.
				_ = tb.String(ids[w][i])
				_, _ = tb.Lookup("k0")
			}
		}()
	}
	wg.Wait()
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	for w := 1; w < workers; w++ {
		for i := 0; i < n; i++ {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d got ID %d for k%d, worker 0 got %d", w, ids[w][i], i, ids[0][i])
			}
		}
	}
	for i := 0; i < n; i++ {
		if got := tb.String(ids[0][i]); got != fmt.Sprintf("k%d", i) {
			t.Fatalf("String(%d) = %q", ids[0][i], got)
		}
	}
}

func TestResetBumpsEpochAndClears(t *testing.T) {
	before := Epoch()
	InternAttr("epoch-test-attr")
	Reset()
	if Epoch() != before+1 {
		t.Fatalf("Epoch = %d, want %d", Epoch(), before+1)
	}
	if _, ok := LookupAttr("epoch-test-attr"); ok {
		t.Error("Reset must clear the attribute table")
	}
	// Interning after a reset restarts from dense ID 0.
	id := InternAttr("epoch-test-attr2")
	if id != 0 {
		t.Errorf("first post-reset ID = %d, want 0", id)
	}
}

// TestInternBytes: the bytes and the string entry points are one table,
// and the returned string is the table's own, not a copy of the input.
func TestInternBytes(t *testing.T) {
	tb := NewTable()
	a := tb.Intern("alpha")
	id, s := tb.InternBytes([]byte("alpha"))
	if id != a || s != "alpha" {
		t.Fatalf("InternBytes(alpha) = %d, %q; Intern gave %d", id, s, a)
	}
	buf := []byte("beta")
	b, s1 := tb.InternBytes(buf)
	buf[0] = 'z' // the table must not alias the caller's buffer
	_, s2 := tb.InternBytes([]byte("beta"))
	if s1 != "beta" || s2 != "beta" || tb.String(b) != "beta" {
		t.Fatalf("InternBytes aliases its input: %q, %q, %q", s1, s2, tb.String(b))
	}
	if unsafe.StringData(s1) != unsafe.StringData(s2) || unsafe.StringData(s1) != unsafe.StringData(tb.String(b)) {
		t.Error("InternBytes returned a copy, not the table's string")
	}
	if got := tb.Intern("beta"); got != b {
		t.Errorf("Intern(beta) = %d after InternBytes gave %d", got, b)
	}
	if id, s := tb.InternBytes(nil); s != "" || tb.String(id) != "" || tb.Len() != 3 {
		t.Errorf("InternBytes(nil) = %d, %q (Len %d)", id, s, tb.Len())
	}
}

// TestInternHitAllocatesNothing: a lookup of a known key, as a string
// or as bytes, allocates nothing.
func TestInternHitAllocatesNothing(t *testing.T) {
	tb := NewTable()
	keys := make([][]byte, 100)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("some-attribute-or-value-%03d", i))
		tb.InternBytes(keys[i])
	}
	s := string(keys[7])
	if n := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			tb.InternBytes(k)
		}
		tb.Intern(s)
		tb.Lookup(s)
	}); n != 0 {
		t.Errorf("%v allocations per pass over known keys, want 0", n)
	}
}

// TestConcurrentInternBytes: InternBytes, Intern and Lookup from eight
// goroutines over overlapping keys give every key one ID, the IDs are
// dense, and ID -> string -> ID is the identity.
func TestConcurrentInternBytes(t *testing.T) {
	tb := NewTable()
	const workers, n = 8, 2000
	var wg sync.WaitGroup
	ids := make([][]ID, workers)
	for w := 0; w < workers; w++ {
		ids[w] = make([]ID, n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				i := (j*7 + w*131) % n // every worker in its own order
				key := fmt.Sprintf("key-%d", i)
				switch (w + j) % 3 {
				case 0:
					ids[w][i] = tb.Intern(key)
				default:
					var s string
					ids[w][i], s = tb.InternBytes([]byte(key))
					if s != key {
						t.Errorf("InternBytes(%s) returned %q", key, s)
					}
				}
				if got, ok := tb.Lookup(key); !ok || got != ids[w][i] {
					t.Errorf("Lookup(%s) = %d, %v right after interning it as %d", key, got, ok, ids[w][i])
				}
				if got := tb.String(ids[w][i]); got != key {
					t.Errorf("String(%d) = %q, want %s", ids[w][i], got, key)
				}
			}
		}(w)
	}
	wg.Wait()
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		id := ids[0][i]
		for w := 1; w < workers; w++ {
			if ids[w][i] != id {
				t.Fatalf("key-%d is %d for worker 0 and %d for worker %d", i, id, ids[w][i], w)
			}
		}
		if int(id) >= n || seen[id] {
			t.Fatalf("ID %d of key-%d is out of the dense range or taken", id, i)
		}
		seen[id] = true
	}
}

// TestTableResetKeepsSemantics: after a reset the table is empty, IDs
// restart at 0 in first-use order, and both entry points still agree.
func TestTableResetKeepsSemantics(t *testing.T) {
	tb := NewTable()
	for i := 0; i < 300; i++ {
		tb.InternBytes([]byte(fmt.Sprintf("old-%d", i)))
	}
	tb.reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after reset = %d", tb.Len())
	}
	if _, ok := tb.Lookup("old-7"); ok {
		t.Error("reset kept an entry")
	}
	if tb.String(7) != "" {
		t.Error("reset kept a string")
	}
	for i := 0; i < 300; i++ {
		id, s := tb.InternBytes([]byte(fmt.Sprintf("new-%d", i)))
		if int(id) != i || s != fmt.Sprintf("new-%d", i) {
			t.Fatalf("post-reset InternBytes #%d = %d, %q", i, id, s)
		}
		if tb.Intern(s) != id {
			t.Fatalf("post-reset Intern(%s) disagrees with InternBytes", s)
		}
	}
}

func BenchmarkInternHit(b *testing.B) {
	tb := NewTable()
	keys := make([][]byte, 4096)
	strs := make([]string, len(keys))
	for i := range keys {
		strs[i] = fmt.Sprintf("sSTR_%d-value", i)
		keys[i] = []byte(strs[i])
		tb.Intern(strs[i])
	}
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb.Intern(strs[i%len(strs)])
		}
	})
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb.InternBytes(keys[i%len(keys)])
		}
	})
	b.Run("bytes-parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				tb.InternBytes(keys[i%len(keys)])
				i++
			}
		})
	})
}
