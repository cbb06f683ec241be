package join

import (
	"slices"
	"testing"

	"repro/internal/document"
)

// TestOracleTumblingWindows: pairs form only inside a window, conflicting
// documents never pair, and every pair is normalised low/high.
func TestOracleTumblingWindows(t *testing.T) {
	docs := []document.Document{
		document.MustParse(5, `{"User":"A","Severity":"Warning"}`),
		document.MustParse(2, `{"User":"A","MsgId":2}`),
		document.MustParse(9, `{"User":"B","MsgId":2}`),
		document.MustParse(3, `{"User":"A"}`),
		document.MustParse(4, `{"User":"A","MsgId":7}`),
	}
	got := Oracle(docs, 3)
	want := []Pair{{2, 5}, {3, 4}} // 9 conflicts with 2 and 5 on User
	if !slices.Equal(got, want) {
		t.Errorf("Oracle = %v, want %v", got, want)
	}
	if n := len(Oracle(docs, len(docs))); n != 5 {
		t.Errorf("one window: %d pairs, want 5", n)
	}
}
