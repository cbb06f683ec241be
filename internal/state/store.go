package state

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// Store is the checkpoint repository a recovering run restores from.
// Snapshots are keyed by (task, window): one entry per task per
// completed window, so a global recovery cut can pick the highest
// window every required task has reached. Implementations must be
// safe for concurrent use — tasks checkpoint independently.
type Store interface {
	// Save records task's snapshot for the given completed window,
	// replacing any previous entry for the same key.
	Save(task string, window int, data []byte) error
	// Load returns the snapshot saved for (task, window).
	Load(task string, window int) ([]byte, error)
	// MaxWindow reports the highest window task has a snapshot for;
	// ok is false when the task has none.
	MaxWindow(task string) (window int, ok bool)
	// Windows lists the windows task has snapshots for, ascending.
	Windows(task string) []int
	// Tasks lists every task with at least one snapshot, sorted.
	Tasks() []string
	// Prune drops task's snapshots for windows strictly above the
	// given window. Recovery prunes every task above the chosen cut
	// before restarting, so snapshots taken by the failed attempt can
	// never mix with the new attempt's lineage at a later cut.
	Prune(task string, above int) error
	// Remove drops the single snapshot for (task, window), if present.
	// The spill path uses it to retire a pane's spill file when the
	// pane slides out of the window; removing a missing entry is not an
	// error.
	Remove(task string, window int) error
}

// Cut computes the aligned recovery cut: the highest window every
// required task has a snapshot for — the maximum of the intersection
// of the tasks' snapshot sets, not the minimum of their maxima,
// because tasks may checkpoint windows slightly out of order (the
// merger resolves a non-computing round while an older computation
// round still awaits its groups). It returns -1 when the intersection
// is empty — recovery then has no consistent state to restore.
func Cut(s Store, required []string) int {
	if len(required) == 0 {
		return -1
	}
	common := make(map[int]int)
	for _, task := range required {
		for _, w := range s.Windows(task) {
			common[w]++
		}
	}
	cut := -1
	for w, n := range common {
		if n == len(required) && w > cut {
			cut = w
		}
	}
	return cut
}

// MemStore is an in-memory Store — the default for single-process
// clusters, where workers share the process address space.
type MemStore struct {
	mu    sync.Mutex
	tasks map[string]map[int][]byte
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{tasks: make(map[string]map[int][]byte)}
}

// Save implements Store.
func (m *MemStore) Save(task string, window int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	byWin := m.tasks[task]
	if byWin == nil {
		byWin = make(map[int][]byte)
		m.tasks[task] = byWin
	}
	byWin[window] = append([]byte(nil), data...)
	return nil
}

// Load implements Store.
func (m *MemStore) Load(task string, window int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.tasks[task][window]
	if !ok {
		return nil, fmt.Errorf("state: no snapshot for %s window %d", task, window)
	}
	return append([]byte(nil), data...), nil
}

// MaxWindow implements Store.
func (m *MemStore) MaxWindow(task string) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	max, ok := -1, false
	for w := range m.tasks[task] {
		if !ok || w > max {
			max, ok = w, true
		}
	}
	return max, ok
}

// Windows implements Store.
func (m *MemStore) Windows(task string) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.tasks[task]))
	for w := range m.tasks[task] {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// Tasks implements Store.
func (m *MemStore) Tasks() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.tasks))
	for t := range m.tasks {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Prune implements Store.
func (m *MemStore) Prune(task string, above int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for w := range m.tasks[task] {
		if w > above {
			delete(m.tasks[task], w)
		}
	}
	return nil
}

// Remove implements Store.
func (m *MemStore) Remove(task string, window int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.tasks[task], window)
	return nil
}

// FSStore is a filesystem Store: one file per (task, window) under a
// root directory, written atomically (temp file + rename) so a crash
// mid-checkpoint never leaves a torn snapshot behind. Task names may
// contain '/' (e.g. "assigner/3"); they map to a flat directory name.
//
// Several stores, in one process or in several, may share a root as
// long as each task is saved through one of them at a time — which is
// how the Joiners spill, one store per task on the common spill
// directory.
type FSStore struct {
	dir string
	mu  sync.Mutex
	// swept holds the task directories this store has cleared of
	// orphaned temp files; guarded by mu.
	swept map[string]bool
}

// NewFSStore creates (if needed) the root directory and returns the
// store.
func NewFSStore(dir string) (*FSStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state: fs store: %w", err)
	}
	return &FSStore{dir: dir, swept: make(map[string]bool)}, nil
}

// removeOrphanedTemps deletes stray ".ckpt-*" temp files — the
// in-flight writes of a process that was killed before its rename,
// which are never part of any snapshot listing and would otherwise
// accumulate forever — from one task directory, before this store's
// first save into it. It never looks into a directory the store does
// not write: there a ".ckpt-*" file may be the in-flight write of
// another store on the same root. Only exact temp-pattern names are
// touched: foreign files an operator drops into the tree are left
// alone.
func (f *FSStore) removeOrphanedTemps(taskDir string) {
	if f.swept[taskDir] {
		return
	}
	f.swept[taskDir] = true
	files, err := os.ReadDir(taskDir)
	if err != nil {
		return
	}
	for _, file := range files {
		if name := file.Name(); strings.HasPrefix(name, ".ckpt-") && !file.IsDir() {
			os.Remove(filepath.Join(taskDir, name))
		}
	}
}

func (f *FSStore) taskDir(task string) string {
	return filepath.Join(f.dir, strings.ReplaceAll(task, "/", "@"))
}

func (f *FSStore) path(task string, window int) string {
	return filepath.Join(f.taskDir(task), fmt.Sprintf("%08d.ckpt", window))
}

// Save implements Store. The write is crash-durable, not merely
// atomic: the temp file is fsynced before the rename (otherwise a
// power cut can make the rename visible while the data blocks were
// never written, leaving a zero-length "committed" snapshot), and the
// directory is fsynced after it (otherwise the rename itself may not
// survive the crash).
func (f *FSStore) Save(task string, window int, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir := f.taskDir(task)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("state: fs store save: %w", err)
	}
	f.removeOrphanedTemps(dir)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("state: fs store save: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("state: fs store save: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("state: fs store save: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("state: fs store save: %w", err)
	}
	if err := os.Rename(tmp.Name(), f.path(task, window)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("state: fs store save: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("state: fs store save: sync dir: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-performed rename survives a
// crash. Some filesystems (and some OSes) reject fsync on directories;
// such errors are ignored — the rename is still atomic, durability is
// then the platform's best effort.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// Load implements Store.
func (f *FSStore) Load(task string, window int) ([]byte, error) {
	data, err := os.ReadFile(f.path(task, window))
	if err != nil {
		return nil, fmt.Errorf("state: no snapshot for %s window %d: %w", task, window, err)
	}
	return data, nil
}

// MaxWindow implements Store.
func (f *FSStore) MaxWindow(task string) (int, bool) {
	wins := f.windows(task)
	if len(wins) == 0 {
		return -1, false
	}
	return wins[len(wins)-1], true
}

// Windows implements Store.
func (f *FSStore) Windows(task string) []int { return f.windows(task) }

func (f *FSStore) windows(task string) []int {
	ents, err := os.ReadDir(f.taskDir(task))
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".ckpt") || strings.HasPrefix(name, ".") {
			continue
		}
		w, err := strconv.Atoi(strings.TrimSuffix(name, ".ckpt"))
		if err != nil {
			continue
		}
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// Tasks implements Store.
func (f *FSStore) Tasks() []string {
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() {
			out = append(out, strings.ReplaceAll(e.Name(), "@", "/"))
		}
	}
	sort.Strings(out)
	return out
}

// Prune implements Store.
func (f *FSStore) Prune(task string, above int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, w := range f.windows(task) {
		if w > above {
			if err := os.Remove(f.path(task, w)); err != nil {
				return fmt.Errorf("state: fs store prune: %w", err)
			}
		}
	}
	return nil
}

// Remove implements Store.
func (f *FSStore) Remove(task string, window int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := os.Remove(f.path(task, window)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("state: fs store remove: %w", err)
	}
	return nil
}
