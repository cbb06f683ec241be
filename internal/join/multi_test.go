package join

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/document"
)

// collectDeliver returns a deliver func appending (query, pair) keys
// into got.
func collectDeliver(got map[string][]Pair) func(string, Result) {
	return func(q string, r Result) {
		p := Pair{LeftID: r.Left, RightID: r.Right}
		if p.LeftID > p.RightID {
			p.LeftID, p.RightID = p.RightID, p.LeftID
		}
		got[q] = append(got[q], p)
	}
}

func mdoc(t testing.TB, id uint64, js string) document.Document {
	t.Helper()
	d, err := document.Parse(id, []byte(js))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMultiSharesGroupState: queries with identical window configs
// share one class; a third with a window within the share factor opens
// its own class on the same state (one FP-tree), and a fourth beyond the
// factor gets a state of its own.
func TestMultiSharesGroupState(t *testing.T) {
	m := NewMulti()
	for _, q := range []struct {
		id     string
		window int
	}{{"a", 100}, {"b", 100}, {"c", 50}, {"far", 1000}} {
		if err := m.Register(q.id, QuerySpec{WindowDocs: q.window}); err != nil {
			t.Fatal(err)
		}
	}
	total, shared := m.Groups()
	if total != 2 || shared != 1 {
		t.Fatalf("states = %d shared = %d, want 2/1", total, shared)
	}
	sa, _ := m.Status("a")
	sb, _ := m.Status("b")
	sc, _ := m.Status("c")
	sf, _ := m.Status("far")
	if sa.Group != "FPJ/w100" || sb.Group != sa.Group || sc.Group != "FPJ/w50" {
		t.Errorf("classes: a=%q b=%q c=%q", sa.Group, sb.Group, sc.Group)
	}
	if sa.SharedWith != 2 || sc.SharedWith != 2 || sf.SharedWith != 0 {
		t.Errorf("shared-with: a=%d c=%d far=%d, want 2/2/0", sa.SharedWith, sc.SharedWith, sf.SharedWith)
	}

	// Removing b leaves a and c sharing the state.
	if !m.Unregister("b") {
		t.Fatal("unregister b failed")
	}
	total, shared = m.Groups()
	if total != 2 || shared != 1 {
		t.Errorf("after unregister b: states = %d shared = %d, want 2/1", total, shared)
	}
	// Removing a leaves c alone on the state; removing far frees its own.
	m.Unregister("a")
	m.Unregister("far")
	if total, shared := m.Groups(); total != 1 || shared != 0 {
		t.Errorf("after unregister a, far: states = %d shared = %d, want 1/0", total, shared)
	}
}

// TestMultiManualWindowsArePrivate: manual-window queries never share —
// one tenant's tumble must not evict another's window.
func TestMultiManualWindowsArePrivate(t *testing.T) {
	m := NewMulti()
	m.Register("a", QuerySpec{})
	m.Register("b", QuerySpec{})
	total, shared := m.Groups()
	if total != 2 || shared != 0 {
		t.Fatalf("groups = %d shared = %d, want 2/0", total, shared)
	}
	got := map[string][]Pair{}
	m.Ingest(mdoc(t, 1, `{"x":1}`), 0, collectDeliver(got))
	if _, _, ok := m.Tumble("a", 0, nil); !ok {
		t.Fatal("tumble a failed")
	}
	// b's window survived a's tumble.
	m.Ingest(mdoc(t, 2, `{"x":1}`), 0, collectDeliver(got))
	if len(got["a"]) != 0 {
		t.Errorf("a joined across its own tumble: %v", got["a"])
	}
	if len(got["b"]) != 1 {
		t.Errorf("b lost its window to a's tumble: %v", got["b"])
	}
}

// TestMultiParityWithIsolatedRun: a query in a shared group receives
// exactly the result multiset of its isolated single-query run.
func TestMultiParityWithIsolatedRun(t *testing.T) {
	// Heterogeneous schemas so documents actually join: users, events
	// and shard records overlap on single attributes.
	docs := make([]document.Document, 0, 60)
	for i := 0; i < 60; i++ {
		var js string
		switch i % 3 {
		case 0:
			js = fmt.Sprintf(`{"user":"u%d","a":1}`, i%5)
		case 1:
			js = fmt.Sprintf(`{"user":"u%d","b":2}`, i%5)
		default:
			js = fmt.Sprintf(`{"shard":%d,"b":2}`, (i/3)%3)
		}
		docs = append(docs, mdoc(t, uint64(i+1), js))
	}

	// Shared run: two plain queries plus a filtered one, same window.
	m := NewMulti()
	m.Register("plain", QuerySpec{WindowDocs: 20})
	m.Register("twin", QuerySpec{WindowDocs: 20})
	m.Register("filtered", QuerySpec{WindowDocs: 20, Filters: []document.Pair{{Attr: "shard", Val: document.EncodeInt(0)}}})
	if total, shared := m.Groups(); total != 1 || shared != 1 {
		t.Fatalf("groups = %d shared = %d, want 1/1", total, shared)
	}
	got := map[string][]Pair{}
	for _, d := range docs {
		m.Ingest(d, 0, collectDeliver(got))
	}

	// Isolated runs, one query each.
	for _, q := range []string{"plain", "twin", "filtered"} {
		iso := NewMulti()
		spec := QuerySpec{WindowDocs: 20}
		if q == "filtered" {
			spec.Filters = []document.Pair{{Attr: "shard", Val: document.EncodeInt(0)}}
		}
		iso.Register("solo", spec)
		want := map[string][]Pair{}
		for _, d := range docs {
			iso.Ingest(d, 0, collectDeliver(want))
		}
		a, b := append([]Pair(nil), got[q]...), append([]Pair(nil), want["solo"]...)
		SortPairs(a)
		SortPairs(b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("query %s: shared run diverges from isolated run: %d vs %d pairs", q, len(a), len(b))
		}
		if q == "plain" && len(a) == 0 {
			t.Error("parity test vacuous: no pairs produced")
		}
	}

	// The filtered query got a strict, non-empty subset.
	if len(got["filtered"]) == 0 || len(got["filtered"]) >= len(got["plain"]) {
		t.Errorf("filtered = %d, plain = %d; want non-empty strict subset", len(got["filtered"]), len(got["plain"]))
	}
	if len(got["plain"]) != len(got["twin"]) {
		t.Errorf("plain (%d) and twin (%d) diverge on shared state", len(got["plain"]), len(got["twin"]))
	}
}

// TestMultiThetaPredicate: θ filters results by shared-pair strength
// without changing the stored window.
func TestMultiThetaPredicate(t *testing.T) {
	m := NewMulti()
	m.Register("weak", QuerySpec{WindowDocs: 10})
	m.Register("strong", QuerySpec{WindowDocs: 10, Theta: 1.0})
	got := map[string][]Pair{}
	deliver := collectDeliver(got)
	// d1 and d2 share 1 of min(3,3) pairs; d3 contains d1's pairs
	// entirely (3 of min(3,4)).
	m.Ingest(mdoc(t, 1, `{"a":1,"b":1,"c":1}`), 0, deliver)
	m.Ingest(mdoc(t, 2, `{"a":1,"x":2,"y":3}`), 0, deliver)
	m.Ingest(mdoc(t, 3, `{"a":1,"b":1,"c":1,"d":4}`), 0, deliver)
	// All three pairs are joinable (each shares a:1 with no conflicts).
	if len(got["weak"]) != 3 {
		t.Errorf("weak = %v, want 3 pairs", got["weak"])
	}
	want := []Pair{{LeftID: 1, RightID: 3}}
	SortPairs(got["strong"])
	if !reflect.DeepEqual(got["strong"], want) {
		t.Errorf("strong = %v, want %v (only the containment pair)", got["strong"], want)
	}
	sw, _ := m.Status("weak")
	ss, _ := m.Status("strong")
	if sw.WindowDocs != 3 || ss.WindowDocs != 3 {
		t.Errorf("window fill diverged: weak=%d strong=%d, want 3", sw.WindowDocs, ss.WindowDocs)
	}
}

// TestMultiForcedTumble: the max-window-docs guard evicts a manual
// window that nobody tumbles.
func TestMultiForcedTumble(t *testing.T) {
	m := NewMulti()
	m.Register("q", QuerySpec{})
	got := map[string][]Pair{}
	forced := 0
	for i := 1; i <= 7; i++ {
		forced += m.Ingest(mdoc(t, uint64(i), `{"k":1}`), 3, collectDeliver(got))
	}
	if forced != 2 {
		t.Errorf("forced = %d, want 2 (at docs 3 and 6)", forced)
	}
	st, _ := m.Status("q")
	if st.Windows != 2 {
		t.Errorf("windows = %d, want 2", st.Windows)
	}
	if st.WindowDocs != 1 {
		t.Errorf("window fill = %d, want 1", st.WindowDocs)
	}
	if m.ForcedTumbles() != 2 {
		t.Errorf("ForcedTumbles = %d", m.ForcedTumbles())
	}
}

// TestMultiAutoTumbleMatchesWindowed: a count-window group tumbles at
// the same boundaries a plain Windowed pipeline would.
func TestMultiAutoTumbleMatchesWindowed(t *testing.T) {
	m := NewMulti()
	m.Register("q", QuerySpec{WindowDocs: 4})
	got := map[string][]Pair{}
	for i := 1; i <= 12; i++ {
		m.Ingest(mdoc(t, uint64(i), `{"k":1}`), 0, collectDeliver(got))
	}
	// Each window of 4 identical-pair docs yields C(4,2)=6 pairs.
	if len(got["q"]) != 18 {
		t.Errorf("results = %d, want 18", len(got["q"]))
	}
	st, _ := m.Status("q")
	if st.Windows != 3 || st.WindowDocs != 0 {
		t.Errorf("status = %+v, want 3 windows, empty fill", st)
	}
}

// TestMultiDemuxExternal: external results reach only the matching
// group's queries, filtered per query.
func TestMultiDemuxExternal(t *testing.T) {
	m := NewMulti()
	m.Register("all", QuerySpec{WindowDocs: 1000})
	m.Register("warn", QuerySpec{WindowDocs: 1000, Filters: []document.Pair{{Attr: "sev", Val: document.EncodeString("W")}}})
	m.Register("other", QuerySpec{WindowDocs: 500})
	got := map[string][]Pair{}
	deliver := collectDeliver(got)
	m.Demux("FPJ", 1000, Result{Left: 1, Right: 2, Merged: mdoc(t, 9, `{"sev":"W","x":1}`)}, deliver)
	m.Demux("FPJ", 1000, Result{Left: 1, Right: 3, Merged: mdoc(t, 10, `{"sev":"E","x":1}`)}, deliver)
	if len(got["all"]) != 2 || len(got["warn"]) != 1 || len(got["other"]) != 0 {
		t.Errorf("demux: all=%d warn=%d other=%d", len(got["all"]), len(got["warn"]), len(got["other"]))
	}
}

// TestMultiValidation: bad specs and duplicate ids are rejected.
func TestMultiValidation(t *testing.T) {
	m := NewMulti()
	if err := m.Register("q", QuerySpec{Engine: "nope"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if err := m.Register("q", QuerySpec{Theta: 1.5}); err == nil {
		t.Error("theta > 1 accepted")
	}
	if err := m.Register("q", QuerySpec{WindowDocs: -1}); err == nil {
		t.Error("negative window accepted")
	}
	if err := m.Register("", QuerySpec{}); err == nil {
		t.Error("empty id accepted")
	}
	if err := m.Register("q", QuerySpec{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("q", QuerySpec{}); err == nil {
		t.Error("duplicate id accepted")
	}
	if m.Unregister("ghost") {
		t.Error("unregister of unknown id reported true")
	}
}

// TestMultiStatusSorted: All lists queries sorted by id.
func TestMultiStatusSorted(t *testing.T) {
	m := NewMulti()
	for _, id := range []string{"c", "a", "b"} {
		m.Register(id, QuerySpec{WindowDocs: 10})
	}
	all := m.All()
	ids := make([]string, len(all))
	for i, st := range all {
		ids[i] = st.ID
	}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("ids not sorted: %v", ids)
	}
}
