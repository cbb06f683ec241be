package document

// For the external tests, which may import the dataset generators.

// NewCountingParser returns Parse bound to a parser of its own — not
// the pool, which the race detector empties at random — that also
// reports how many values of the document left the one-pass scanner
// for encoding/json.
func NewCountingParser() func(id uint64, data []byte) (Document, int, error) {
	var p parser
	return func(id uint64, data []byte) (Document, int, error) {
		d, err := p.parse(id, data)
		return d, p.slow, err
	}
}

// ReferenceParse is the previous parser's document.
func ReferenceParse(id uint64, data []byte) (Document, error) {
	ref, err := referenceParse(id, data)
	return ref.doc, err
}
