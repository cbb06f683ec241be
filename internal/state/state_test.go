package state

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// blob is a trivial Snapshotter for exercising the envelope helpers.
type blob struct{ data []byte }

func (b *blob) Snapshot(w io.Writer) error {
	_, err := w.Write(b.data)
	return err
}
func (b *blob) Restore(r io.Reader) error {
	data, err := io.ReadAll(r)
	b.data = data
	return err
}

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, "test", payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadEnvelope(bytes.NewReader(buf.Bytes()), "test")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q != %q", got, payload)
	}
}

func TestEnvelopeRejectsWrongKind(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, "fptree", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEnvelope(bytes.NewReader(buf.Bytes()), "assigner"); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestEnvelopeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, "test", []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a payload byte: checksum must catch it.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-6] ^= 0xff
	if _, err := ReadEnvelope(bytes.NewReader(bad), "test"); err == nil {
		t.Fatal("corrupted payload accepted")
	}

	// Break the magic.
	bad = append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := ReadEnvelope(bytes.NewReader(bad), "test"); err == nil {
		t.Fatal("bad magic accepted")
	}

	// Unknown version.
	bad = append([]byte(nil), raw...)
	bad[4] = 99
	if _, err := ReadEnvelope(bytes.NewReader(bad), "test"); err == nil {
		t.Fatal("unknown version accepted")
	}

	// Truncation.
	if _, err := ReadEnvelope(bytes.NewReader(raw[:len(raw)-2]), "test"); err == nil {
		t.Fatal("truncated envelope accepted")
	}
}

func TestEncodeDecode(t *testing.T) {
	src := &blob{data: []byte("state bytes")}
	enc, err := Encode("blob", src)
	if err != nil {
		t.Fatal(err)
	}
	dst := &blob{}
	if err := Decode("blob", enc, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.data, src.data) {
		t.Fatalf("restore mismatch: %q != %q", dst.data, src.data)
	}
	if err := Decode("other", enc, dst); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func testStore(t *testing.T, s Store) {
	t.Helper()
	if _, ok := s.MaxWindow("a"); ok {
		t.Fatal("empty store reported a window")
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Save("a/0", 0, []byte("a0w0")))
	must(s.Save("a/0", 1, []byte("a0w1")))
	must(s.Save("b/1", 0, []byte("b1w0")))

	if got, err := s.Load("a/0", 1); err != nil || string(got) != "a0w1" {
		t.Fatalf("load a/0@1 = %q, %v", got, err)
	}
	if _, err := s.Load("a/0", 7); err == nil {
		t.Fatal("missing window loaded")
	}
	if w, ok := s.MaxWindow("a/0"); !ok || w != 1 {
		t.Fatalf("MaxWindow(a/0) = %d, %v", w, ok)
	}
	tasks := s.Tasks()
	if len(tasks) != 2 || tasks[0] != "a/0" || tasks[1] != "b/1" {
		t.Fatalf("Tasks() = %v", tasks)
	}

	// Overwrite is replace, not append.
	must(s.Save("a/0", 1, []byte("a0w1'")))
	if got, _ := s.Load("a/0", 1); string(got) != "a0w1'" {
		t.Fatalf("overwrite: %q", got)
	}

	if got := s.Windows("a/0"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Windows(a/0) = %v", got)
	}

	must(s.Prune("a/0", 0))
	if _, err := s.Load("a/0", 1); err == nil {
		t.Fatal("pruned window still loads")
	}
	if got, _ := s.Load("a/0", 0); string(got) != "a0w0" {
		t.Fatal("prune removed a window at or below the cut")
	}

	// Remove drops exactly one entry; removing it again (or an entry
	// that never existed) is not an error.
	must(s.Save("a/0", 5, []byte("a0w5")))
	must(s.Remove("a/0", 5))
	if _, err := s.Load("a/0", 5); err == nil {
		t.Fatal("removed window still loads")
	}
	must(s.Remove("a/0", 5))
	must(s.Remove("never-saved", 0))
	if got, _ := s.Load("a/0", 0); string(got) != "a0w0" {
		t.Fatal("remove touched a different window")
	}
}

func TestMemStore(t *testing.T) { testStore(t, NewMemStore()) }

func TestFSStore(t *testing.T) {
	s, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, s)
}

// Callers reuse snapshot buffers between checkpoints; the store must
// copy on Save, not alias, or the next snapshot silently rewrites the
// previous one in place.
func TestMemStoreSaveCopies(t *testing.T) {
	s := NewMemStore()
	buf := []byte("window-0-state")
	if err := s.Save("t", 0, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, []byte("XXXXXX"))
	got, err := s.Load("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "window-0-state" {
		t.Fatalf("stored snapshot mutated through caller's buffer: %q", got)
	}
	// And Load must hand back a copy too: scribbling on a loaded
	// snapshot must not reach the stored bytes.
	got[0] ^= 0xff
	again, _ := s.Load("t", 0)
	if string(again) != "window-0-state" {
		t.Fatalf("stored snapshot mutated through loaded slice: %q", again)
	}
}

// FSStore's directory scans must ignore foreign files — operator notes,
// stray temps from killed processes, nested directories — and a
// reopened store's first save into a task directory sweeps its orphaned
// ".ckpt-*" temps while leaving everything else.
func TestFSStoreForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		if err := s.Save("task", w, []byte{byte(w)}); err != nil {
			t.Fatal(err)
		}
	}
	taskDir := filepath.Join(dir, "task")
	foreign := []string{"README.txt", "notes.ckpt.bak", "12.snapshot", "zzzz.ckpt"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(taskDir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	orphan := filepath.Join(taskDir, ".ckpt-1234567")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	if got := s.Windows("task"); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("Windows with foreign files = %v", got)
	}
	if w, ok := s.MaxWindow("task"); !ok || w != 2 {
		t.Fatalf("MaxWindow with foreign files = %d, %v", w, ok)
	}
	if err := s.Prune("task", 0); err != nil {
		t.Fatalf("prune with foreign files: %v", err)
	}
	if got := s.Windows("task"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Windows after prune = %v", got)
	}
	if c := Cut(s, []string{"task"}); c != 0 {
		t.Fatalf("Cut with foreign files = %d", c)
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(taskDir, name)); err != nil {
			t.Fatalf("foreign file %s disturbed: %v", name, err)
		}
	}

	// Reopening alone touches nothing: the temp could be a live
	// store's write in flight. The reopened store's first save into the
	// directory sweeps the orphaned temp but nothing else.
	reopened, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Fatalf("opening a store removed a temp file it does not own: %v", err)
	}
	if err := reopened.Save("task", 7, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphaned temp survived the reopened store's save: %v", err)
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(taskDir, name)); err != nil {
			t.Fatalf("reopen disturbed foreign file %s: %v", name, err)
		}
	}
}

// TestFSStoreConcurrentOpenSharedRoot is the Joiners' spill pattern:
// every task opens its own store on the shared root and saves at once.
// Opening a store must not disturb a sibling's write in flight — a
// sweep of ".ckpt-*" files across the whole root at open time used to
// delete the temp file a sibling was about to rename, and the save
// failed with ENOENT.
func TestFSStoreConcurrentOpenSharedRoot(t *testing.T) {
	const tasks, rounds = 8, 40
	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make(chan error, tasks*rounds)
	for task := 0; task < tasks; task++ {
		wg.Add(1)
		go func(task int) {
			defer wg.Done()
			name := fmt.Sprintf("joiner-%d", task)
			for w := 0; w < rounds; w++ {
				s, err := NewFSStore(dir) // reopen every round: many opens race many saves
				if err == nil {
					err = s.Save(name, w, []byte{byte(task), byte(w)})
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(task)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < tasks; task++ {
		name := fmt.Sprintf("joiner-%d", task)
		if got := s.Windows(name); len(got) != rounds {
			t.Errorf("%s holds %d windows, want %d", name, len(got), rounds)
		}
		for w := 0; w < rounds; w++ {
			if data, err := s.Load(name, w); err != nil || !bytes.Equal(data, []byte{byte(task), byte(w)}) {
				t.Errorf("%s window %d = %v, %v", name, w, data, err)
			}
		}
	}
}

// A snapshot saved through one FSStore must read back intact through a
// fresh store over the same directory — the durability contract the
// fsync-before-rename path exists for — and its envelope CRC must
// still verify.
func TestFSStoreReopenDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := &blob{data: []byte("joiner window state, checksummed")}
	enc, err := Encode("joiner", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("joiner/0", 4, enc); err != nil {
		t.Fatal(err)
	}

	reopened, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := reopened.Load("joiner/0", 4)
	if err != nil {
		t.Fatal(err)
	}
	dst := &blob{}
	if err := Decode("joiner", data, dst); err != nil {
		t.Fatalf("envelope CRC failed after reopen: %v", err)
	}
	if !bytes.Equal(dst.data, src.data) {
		t.Fatalf("restore mismatch after reopen: %q", dst.data)
	}
	if w, ok := reopened.MaxWindow("joiner/0"); !ok || w != 4 {
		t.Fatalf("MaxWindow after reopen = %d, %v", w, ok)
	}
}

func TestCut(t *testing.T) {
	s := NewMemStore()
	if c := Cut(s, []string{"a", "b"}); c != -1 {
		t.Fatalf("empty cut = %d", c)
	}
	s.Save("a", 0, nil)
	s.Save("a", 1, nil)
	s.Save("a", 2, nil)
	s.Save("b", 0, nil)
	s.Save("b", 1, nil)
	if c := Cut(s, []string{"a", "b"}); c != 1 {
		t.Fatalf("cut = %d, want 1", c)
	}
	if c := Cut(s, []string{"a", "b", "c"}); c != -1 {
		t.Fatalf("cut with missing task = %d, want -1", c)
	}
	// A task that skipped a window (out-of-order checkpointing) caps
	// the cut at the highest window in the intersection, not at the
	// minimum of maxima.
	s.Save("b", 3, nil)
	if c := Cut(s, []string{"a", "b"}); c != 1 {
		t.Fatalf("cut with gap = %d, want 1", c)
	}
}
