package experiments

import (
	"os"
	"strings"
	"testing"
)

// quick scale for all tests; the cache keeps the suite fast across the
// figure tests sharing runs.
var sc = QuickScale()

func TestFigure6Replication(t *testing.T) {
	for _, v := range []string{"a", "c"} {
		fig, err := Figure6(v, sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Rows) != 4 {
			t.Fatalf("fig6%s rows = %d", v, len(fig.Rows))
		}
		for _, row := range fig.Rows {
			for _, algo := range algos {
				r := row.Values[algo]
				if r < 1 || r > 20 {
					t.Errorf("fig6%s %s %s replication = %g out of [1,m]", v, row.Label, algo, r)
				}
			}
		}
	}
}

// TestFigure6Shape checks the paper's qualitative claims on the m
// sweep: DS has the best replication, AG close, SC approaches the
// worst case (every document to almost every machine).
func TestFigure6Shape(t *testing.T) {
	fig, err := Figure6("a", sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		ag, sc_, ds := row.Values["AG"], row.Values["SC"], row.Values["DS"]
		if ds > ag {
			t.Errorf("%s: DS (%.2f) should not replicate more than AG (%.2f)", row.Label, ds, ag)
		}
		if sc_ < ag {
			t.Errorf("%s: SC (%.2f) should replicate at least as much as AG (%.2f)", row.Label, sc_, ag)
		}
	}
	// SC at m=20 approaches worst case.
	last := fig.Rows[len(fig.Rows)-1]
	if last.Values["SC"] < last.Values["AG"]*1.5 {
		t.Errorf("m=20: SC (%.2f) should be far worse than AG (%.2f)", last.Values["SC"], last.Values["AG"])
	}
}

func TestFigure7Gini(t *testing.T) {
	fig, err := Figure7("a", sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		for _, algo := range algos {
			g := row.Values[algo]
			if g < 0 || g > 1 {
				t.Errorf("%s %s gini = %g out of [0,1]", row.Label, algo, g)
			}
		}
	}
}

// TestFigure8Shape: SC balances via replication, so its maximal
// processing load stays near 1 while AG's falls with more partitions.
func TestFigure8Shape(t *testing.T) {
	fig, err := Figure8("a", sc)
	if err != nil {
		t.Fatal(err)
	}
	first, last := fig.Rows[0], fig.Rows[len(fig.Rows)-1]
	if last.Values["AG"] >= first.Values["AG"] {
		t.Errorf("AG max load should fall with m: m=5 %.3f vs m=20 %.3f",
			first.Values["AG"], last.Values["AG"])
	}
	for _, row := range fig.Rows {
		if row.Values["SC"] < 0.5 {
			t.Errorf("%s: SC max load %.3f unexpectedly low; should stay near 1", row.Label, row.Values["SC"])
		}
		if l := row.Values["AG"]; l <= 0 || l > 1 {
			t.Errorf("%s: AG max load %g out of (0,1]", row.Label, l)
		}
	}
}

func TestFigure9Repartitions(t *testing.T) {
	fig, err := Figure9("b", sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 2 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	for _, row := range fig.Rows {
		for _, algo := range algos {
			p := row.Values[algo]
			if p < 0 || p > 100 {
				t.Errorf("%s %s repartitions = %g%%", row.Label, algo, p)
			}
		}
	}
}

// TestFiguresGolden: Fig. 6a–10c are routing statistics, functions of
// the scale alone, so at quick scale they match the golden byte for
// byte — across runs and GOMAXPROCS.
func TestFiguresGolden(t *testing.T) {
	var b strings.Builder
	for _, id := range []string{"6a", "6b", "6c", "6d", "7a", "7b", "7c", "7d", "8a", "8b", "8c", "8d", "9a", "9b", "10a", "10b", "10c"} {
		fig, err := ByID(id, sc)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(fig.Render() + "\n")
	}
	const golden = "testdata/figures_quick.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("Fig. 6a–10c differ from %s. If the change is intended, regenerate it from the repository root with\n"+
			"\tgo run ./cmd/sfj-experiments -figure all -scale quick | sed '/^Figure 11a/,$d' > internal/experiments/%s\ngot:\n%s", golden, golden, got)
	}
}

func TestFigure10Ideal(t *testing.T) {
	fig, err := Figure10("a", sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 3 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	// On the stabilised stream AG replication stays moderate (the
	// paper's Fig. 10a shows a few copies even at m=20) and well below
	// SC's near-worst-case.
	for _, row := range fig.Rows {
		ag, sc_ := row.Values["AG"], row.Values["SC"]
		if ag > 8 {
			t.Errorf("%s: ideal AG replication = %.2f, want moderate", row.Label, ag)
		}
		if ag > sc_ {
			t.Errorf("%s: ideal AG (%.2f) should beat SC (%.2f)", row.Label, ag, sc_)
		}
	}
}

func TestFigure11FPJ(t *testing.T) {
	fig, err := Figure11("a", sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		if row.Values["Creation"] < 0 || row.Values["Join"] < 0 {
			t.Errorf("negative time in %v", row)
		}
	}
}

func TestFigure11Baselines(t *testing.T) {
	for _, v := range []string{"c", "d"} {
		fig, err := Figure11(v, sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Rows) != len(sc.BaselineDocs) {
			t.Fatalf("rows = %d", len(fig.Rows))
		}
		for _, row := range fig.Rows {
			if row.Values["NLJ"] <= 0 || row.Values["HBJ"] <= 0 {
				t.Errorf("fig11%s %s: nonpositive times %v", v, row.Label, row.Values)
			}
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != 21 {
		t.Fatalf("len(IDs) = %d, want 21", len(ids))
	}
	fig, err := ByID("9a", sc)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "9a" {
		t.Errorf("fig.ID = %s", fig.ID)
	}
	for _, bad := range []string{"", "5a", "6z", "12a", "x"} {
		if _, err := ByID(bad, sc); err == nil {
			t.Errorf("ByID(%q) must fail", bad)
		}
	}
}

func TestRenderFormat(t *testing.T) {
	fig := &Figure{
		ID: "6a", Title: "t", XLabel: "x", YLabel: "y",
		Series: []string{"AG", "SC"},
		Rows: []Row{
			{Label: "m=5", Values: map[string]float64{"AG": 1.5}},
		},
	}
	out := fig.Render()
	if !strings.Contains(out, "Figure 6a") || !strings.Contains(out, "m=5") {
		t.Errorf("render = %q", out)
	}
	if !strings.Contains(out, "1.500") || !strings.Contains(out, "-") {
		t.Errorf("missing values/placeholders: %q", out)
	}
}

func TestExpansionFor(t *testing.T) {
	if expansionFor("nbData", "AG").String() != "auto" {
		t.Error("nbData must auto-expand")
	}
	if expansionFor("rwData", "DS").String() != "forced" {
		t.Error("rwData DS must force expansion")
	}
	if expansionFor("rwData", "AG").String() != "auto" {
		t.Error("rwData AG is auto (no disabling attribute fires)")
	}
}

func TestRenderChart(t *testing.T) {
	fig := &Figure{
		ID: "6a", Title: "test", YLabel: "Replication",
		Series: []string{"AG", "SC", "DS"},
		Rows: []Row{
			{Label: "m=5", Values: map[string]float64{"AG": 2.0, "SC": 5.0, "DS": 1.5}},
			{Label: "m=8", Values: map[string]float64{"AG": 3.0, "SC": 8.0}},
		},
	}
	out := fig.RenderChart()
	if !strings.Contains(out, "m=5") || !strings.Contains(out, "█") {
		t.Errorf("chart = %q", out)
	}
	// The maximum (SC at m=8) must render the longest bar.
	lines := strings.Split(out, "\n")
	maxBars, scBars := 0, 0
	for _, l := range lines {
		n := strings.Count(l, "█")
		if n > maxBars {
			maxBars = n
		}
		if strings.Contains(l, "SC") && strings.Contains(l, "8.000") {
			scBars = n
		}
	}
	if scBars != maxBars {
		t.Errorf("SC@m=8 bar (%d) is not the longest (%d)", scBars, maxBars)
	}
	// All-zero figures render a placeholder.
	empty := &Figure{ID: "x", Series: []string{"A"}, Rows: []Row{{Label: "r", Values: map[string]float64{"A": 0}}}}
	if !strings.Contains(empty.RenderChart(), "all values zero") {
		t.Error("zero chart placeholder missing")
	}
}

func TestWindowSweepVariants(t *testing.T) {
	for _, id := range []string{"6b", "7d", "8b"} {
		fig, err := ByID(id, sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Rows) != 3 {
			t.Fatalf("%s rows = %d, want 3 (w=3,6,9)", id, len(fig.Rows))
		}
		for _, row := range fig.Rows {
			for _, algo := range algos {
				if _, ok := row.Values[algo]; !ok {
					t.Errorf("%s %s missing %s", id, row.Label, algo)
				}
			}
		}
	}
}

func TestFullScaleShape(t *testing.T) {
	fs := FullScale()
	if fs.DocsPerWindowUnit <= QuickScale().DocsPerWindowUnit {
		t.Error("full scale must exceed quick scale")
	}
	if len(fs.FPJDocs) != 3 || len(fs.BaselineDocs) != 3 {
		t.Error("full scale must carry the paper's three sizes")
	}
}
