package join

import "repro/internal/document"

// Oracle computes the exact natural-join result of docs under tumbling
// windows of window documents each: a nested loop over
// document.Joinable inside every window, each pair normalised so that
// LeftID < RightID. It shares no code with the engines, so it is the
// independent reference their results are checked against.
func Oracle(docs []document.Document, window int) []Pair {
	var out []Pair
	for start := 0; start < len(docs); start += window {
		w := docs[start:min(start+window, len(docs))]
		for i := range w {
			for j := i + 1; j < len(w); j++ {
				if !document.Joinable(w[i], w[j]) {
					continue
				}
				p := Pair{LeftID: w[i].ID, RightID: w[j].ID}
				if p.LeftID > p.RightID {
					p.LeftID, p.RightID = p.RightID, p.LeftID
				}
				out = append(out, p)
			}
		}
	}
	return out
}
