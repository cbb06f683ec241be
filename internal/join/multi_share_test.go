package join

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/document"
	"repro/internal/state"
)

// shareDelivery is one pair a query received, with the merged document's
// JSON when the run materialises results.
type shareDelivery struct {
	left, right uint64
	merged      string
}

// refClass is one window class of the reference: an isolated Windowed,
// as every window size had before sizes shared a state.
type refClass struct {
	win           *Windowed
	fill, windows int
	queries       map[string]QuerySpec
}

// refMulti runs the same operations as a Multi on one isolated Windowed
// per window class, and delivers each document's accepted partners in
// ascending id order (the tests number documents in arrival order).
type refMulti struct {
	classes map[GroupKey]*refClass
	keys    map[string]GroupKey
	got     map[string][]shareDelivery
	merged  bool
}

func newRefMulti(merged bool) *refMulti {
	return &refMulti{classes: map[GroupKey]*refClass{}, keys: map[string]GroupKey{}, got: map[string][]shareDelivery{}, merged: merged}
}

func (r *refMulti) register(id string, spec QuerySpec) {
	spec = spec.withDefaults()
	key := spec.groupKey(id)
	c := r.classes[key]
	if c == nil {
		eng, _ := New(spec.Engine)
		c = &refClass{win: NewWindowed(eng), queries: map[string]QuerySpec{}}
		r.classes[key] = c
	}
	c.queries[id] = spec
	r.keys[id] = key
}

func (r *refMulti) unregister(id string) {
	key := r.keys[id]
	delete(r.keys, id)
	delete(r.classes[key].queries, id)
	if len(r.classes[key].queries) == 0 {
		delete(r.classes, key)
	}
}

func (r *refMulti) tumble(c *refClass) {
	c.win.Tumble()
	c.fill = 0
	c.windows++
}

func (r *refMulti) ingest(d document.Document, maxWindowDocs int) {
	for key, c := range r.classes {
		partners := slices.Clone(c.win.Partners(d))
		slices.Sort(partners)
		for id, spec := range c.queries {
			for _, p := range partners {
				left, _ := c.win.Doc(p)
				_, shared := document.Classify(left, d)
				if shared < int(math.Ceil(spec.Theta*float64(min(left.Len(), d.Len())))) || !matchInputs(spec.Filters, left, d) {
					continue
				}
				got := shareDelivery{left: left.ID, right: d.ID}
				if r.merged {
					got.merged = string(document.AppendMergedJSON(nil, left, d))
				}
				r.got[id] = append(r.got[id], got)
			}
		}
		c.fill++
		if key.WindowDocs > 0 && c.fill >= key.WindowDocs || maxWindowDocs > 0 && c.win.Size() >= maxWindowDocs {
			r.tumble(c)
		}
	}
}

// shareRun is one operation sequence applied to a Multi and to its
// reference.
type shareRun struct {
	t             testing.TB
	m             *Multi
	ref           *refMulti
	got           map[string][]shareDelivery
	merged        bool
	maxWindowDocs int
	next          int    // query ids
	docID         uint64 // documents, numbered in arrival order
	rng           *rand.Rand
	sharedStates  int // most classes seen on one state
}

// shareWindows are the auto-tumbling sizes the operations draw from:
// nested (8, 16, 32), non-nested (3, 5, 7) and one beyond the share
// factor of the small ones (64); 0 is a manual window.
var shareWindows = []int{8, 16, 32, 3, 5, 7, 64, 0}

func newShareRun(t testing.TB, seed int64, merged, governed bool) *shareRun {
	r := &shareRun{
		t: t, m: NewMulti(), ref: newRefMulti(merged), got: map[string][]shareDelivery{},
		merged: merged, maxWindowDocs: 40, rng: rand.New(rand.NewSource(seed)),
	}
	if governed {
		// Write faults only: a failed spill leaves the state resident, so
		// the results stay those of the ungoverned reference. The budget
		// is small enough that states spill, reload and force-tumble.
		faults := []state.FaultEvent{{Kind: state.FaultENOSPC, After: 2}, {Kind: state.FaultTornWrite, After: 5}, {Kind: state.FaultShortWrite, After: 9, Count: 2}}
		gov, _ := govForTest(15000, state.NewFaultStore(state.NewMemStore(), faults), 1)
		r.m.SetGovernor(gov)
	}
	return r
}

func (r *shareRun) pairs(q string, left, right document.Document) {
	got := shareDelivery{left: left.ID, right: right.ID}
	if r.merged {
		got.merged = string(document.AppendMergedJSON(nil, left, right))
	}
	r.got[q] = append(r.got[q], got)
}

func (r *shareRun) results(q string, res Result) {
	got := shareDelivery{left: res.Left, right: res.Right}
	js, _ := res.Merged.MarshalJSON()
	got.merged = string(js)
	r.got[q] = append(r.got[q], got)
}

// ids lists the registered queries in a stable order.
func (r *shareRun) ids() []string {
	ids := make([]string, 0, len(r.ref.keys))
	for id := range r.ref.keys {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// settle replays every spilled state's backlog: a query registered or
// removed while its state is spilled would see the backlog's results
// delivered to the queries of replay time, not of arrival time.
func (r *shareRun) settle() {
	if r.merged {
		r.m.DrainSpilled(r.maxWindowDocs, r.results)
	} else {
		r.m.DrainSpilledPairs(r.maxWindowDocs, r.pairs)
	}
}

func (r *shareRun) register(spec QuerySpec) {
	r.settle()
	id := fmt.Sprintf("q%d", r.next)
	r.next++
	if err := r.m.Register(id, spec); err != nil {
		r.t.Fatal(err)
	}
	r.ref.register(id, spec)
}

// step applies one operation, chosen and parameterised by op.
func (r *shareRun) step(op byte) {
	ids := r.ids()
	switch {
	case op < 160 || len(ids) == 0: // most operations ingest
		r.docID++
		d := randomDocs(r.rng, 1)[0]
		d.ID = r.docID
		if r.merged {
			r.m.Ingest(d, r.maxWindowDocs, r.results)
		} else {
			r.m.IngestPairs(d, r.maxWindowDocs, r.pairs)
		}
		r.ref.ingest(d, r.maxWindowDocs)
	case op < 200:
		spec := QuerySpec{WindowDocs: shareWindows[int(op)%len(shareWindows)], Theta: float64(op%3) / 2}
		if op%5 == 0 {
			spec.Filters = []document.Pair{{Attr: "a", Val: document.EncodeInt(int64(op % 3))}}
		}
		r.register(spec)
	case op < 220:
		r.settle()
		id := ids[int(op)%len(ids)]
		if !r.m.Unregister(id) {
			r.t.Fatalf("unregister %s failed", id)
		}
		r.ref.unregister(id)
	default:
		id := ids[int(op)%len(ids)]
		var ok bool
		if r.merged {
			_, _, ok = r.m.Tumble(id, r.maxWindowDocs, r.results)
		} else {
			_, _, ok = r.m.TumblePairs(id, r.maxWindowDocs, r.pairs)
		}
		if !ok {
			r.t.Fatalf("tumble %s failed", id)
		}
		r.ref.tumble(r.ref.classes[r.ref.keys[id]])
	}
	r.mirrorGovernor()
	for _, s := range r.m.states {
		r.sharedStates = max(r.sharedStates, len(s.classes))
	}
}

// mirrorGovernor applies the memory governor's rung-3 tumbles to the
// reference: a resident class that closed more windows than its
// reference has had one forced on it.
func (r *shareRun) mirrorGovernor() {
	for key, c := range r.m.classes {
		if c.state.spilled {
			continue
		}
		rc := r.ref.classes[key]
		for rc.windows < c.windows {
			r.ref.tumble(rc)
		}
	}
}

// check drains every backlog and compares each query's delivery
// sequence and window status with the reference's.
func (r *shareRun) check() {
	r.settle()
	r.mirrorGovernor()
	for id := range r.ref.got {
		got, want := r.got[id], r.ref.got[id]
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			r.t.Fatalf("query %s (%s): %d deliveries, reference %d; first difference at %d: got %v, want %v",
				id, r.ref.keys[id], len(got), len(want), i, at(got, i), at(want, i))
		}
	}
	for id := range r.got {
		if _, ok := r.ref.got[id]; !ok {
			r.t.Fatalf("query %s received %d pairs, reference none", id, len(r.got[id]))
		}
	}
	for _, id := range r.ids() {
		st, _ := r.m.Status(id)
		rc := r.ref.classes[r.ref.keys[id]]
		if st.Windows != rc.windows || st.WindowDocs != rc.win.Size() {
			r.t.Fatalf("query %s: %d windows, fill %d; reference %d, %d", id, st.Windows, st.WindowDocs, rc.windows, rc.win.Size())
		}
	}
	// The state never holds more than twice its largest live window (a
	// manual window's largest is the max-window-docs cap).
	for _, s := range r.m.states {
		largest := 0
		for _, c := range s.classes {
			w := c.key.WindowDocs
			if w == 0 {
				w = r.maxWindowDocs
			}
			largest = max(largest, w)
		}
		if s.win.Size() > 2*largest {
			r.t.Fatalf("state %s holds %d documents, largest window %d", s.key, s.win.Size(), largest)
		}
	}
}

func at(ds []shareDelivery, i int) any {
	if i < len(ds) {
		return ds[i]
	}
	return "nothing"
}

// runShare applies ops after registering the starting query set: nested
// sizes (8, 16, 32), non-nested ones (3, 5, 7) and a manual window.
func runShare(t testing.TB, seed int64, ops []byte, merged, governed bool) *shareRun {
	r := newShareRun(t, seed, merged, governed)
	for _, w := range []int{8, 16, 32, 3, 5, 7, 0} {
		r.register(QuerySpec{WindowDocs: w})
	}
	r.register(QuerySpec{WindowDocs: 16, Theta: 0.5})
	for _, op := range ops {
		r.step(op)
	}
	r.check()
	return r
}

// TestMultiSharedStateParity holds the shared window state to one
// isolated Windowed per window class over random operation sequences:
// ingest, registration and removal mid-stream, /tumble, the
// max-window-docs guard and, governed, spill to a faulty store with
// reload and rung-3 tumbles. Every query receives the same pairs in the
// same order, with the same window counts and fills.
func TestMultiSharedStateParity(t *testing.T) {
	var spills, reloads, forced int64
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 97))
		ops := make([]byte, 500)
		rng.Read(ops)
		for _, governed := range []bool{false, true} {
			for _, merged := range []bool{false, true} {
				if governed && (seed > 4 || merged != (seed%2 == 0)) {
					continue // four governed runs: spilling is slow
				}
				r := runShare(t, seed, ops, merged, governed)
				if r.sharedStates < 2 {
					t.Fatalf("seed %d: no state was shared", seed)
				}
				if gov := r.m.Governor(); gov != nil {
					spills += gov.cfg.Ins.SpillPanes.Value()
					reloads += gov.cfg.Ins.Reloads.Value()
					forced += gov.cfg.Ins.ForcedTumbles.Value()
				}
			}
		}
	}
	if spills == 0 || reloads == 0 || forced == 0 {
		t.Fatalf("the governed runs spilled %d, reloaded %d and force-tumbled %d times; want all three", spills, reloads, forced)
	}
}

// FuzzMultiSharedState is TestMultiSharedStateParity over fuzzed
// operation sequences.
func FuzzMultiSharedState(f *testing.F) {
	f.Add(int64(1), []byte{0, 10, 170, 230, 5, 9, 210, 0, 1, 2, 250}, false, false)
	f.Add(int64(2), []byte{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, true, true)
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, merged, governed bool) {
		if len(ops) > 2000 {
			ops = ops[:2000]
		}
		runShare(t, seed, ops, merged, governed)
	})
}

// BenchmarkMultiShareRatio measures what sharing one state costs a
// small window against a large one: two queries on windows w and r·w,
// on one shared state or on two, per ingested document. Sharing pays
// while the shared ns/doc stays below the separate one; shareFactor is
// the largest ratio at which it does.
func BenchmarkMultiShareRatio(b *testing.B) {
	for _, dataset := range []string{"nbData", "rwData"} {
		gen, _ := datagen.ByName(dataset, 21)
		docs := gen.Window(8192)
		const w = 250
		for _, ratio := range []int{1, 2, 4, 8, 16} {
			for _, shared := range []bool{true, false} {
				name := fmt.Sprintf("%s/ratio=%d/separate", dataset, ratio)
				if shared {
					name = fmt.Sprintf("%s/ratio=%d/shared", dataset, ratio)
				}
				b.Run(name, func(b *testing.B) {
					m := NewMulti()
					m.shareFactor = 0
					if shared {
						m.shareFactor = ratio
					}
					m.Register("small", QuerySpec{WindowDocs: w})
					m.Register("large", QuerySpec{WindowDocs: ratio * w})
					deliver := func(string, document.Document, document.Document) {}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						d := docs[i%len(docs)]
						d.ID = uint64(i + 1)
						m.IngestPairs(d, 0, deliver)
					}
				})
			}
		}
	}
}
