package document

import (
	"fmt"
	"unicode/utf8"
)

// This file is the append-based JSON encoder of the result path: a
// document — or the natural-join union of two — is written as one flat
// JSON object in a single walk, into a caller-owned buffer, with no
// intermediate merged Document and no allocation per attribute. The
// bytes are exactly what encoding/json produces for the same strings
// (json_test.go holds the previous json.Marshal-based encoder as the
// reference and fuzzes the two against each other).

// AppendJSON appends the document as a flat JSON object to dst and
// returns the extended buffer. Dotted attribute paths stay flat; this is
// a display format, not an inverse of Parse.
func (d Document) AppendJSON(dst []byte) []byte {
	open := len(dst)
	dst = append(dst, '{')
	for _, p := range d.pairs {
		dst = appendPairJSON(dst, p)
	}
	return closeObject(dst, open)
}

// MarshalJSON renders the document as a flat JSON object (AppendJSON
// into a buffer sized for the unescaped output).
func (d Document) MarshalJSON() ([]byte, error) {
	n := 2
	for _, p := range d.pairs {
		n += len(p.Attr) + len(p.Val) + 5 // quotes, colon, comma, value quotes minus the tag
	}
	return d.AppendJSON(make([]byte, 0, n)), nil
}

// AppendMergedJSON appends the JSON object of the natural-join union of
// a and b — byte for byte what Merge(id, a, b).MarshalJSON() returns —
// without building the merged document. Like Merge it panics on
// conflicting inputs: callers only encode pairs that passed the join
// test.
func AppendMergedJSON(dst []byte, a, b Document) []byte {
	ap, bp := a.pairs, b.pairs
	open := len(dst)
	dst = append(dst, '{')
	i, j := 0, 0
	for i < len(ap) && j < len(bp) {
		switch {
		case ap[i].Attr < bp[j].Attr:
			dst = appendPairJSON(dst, ap[i])
			i++
		case ap[i].Attr > bp[j].Attr:
			dst = appendPairJSON(dst, bp[j])
			j++
		default:
			if ap[i].Val != bp[j].Val {
				panic(fmt.Sprintf("document: AppendMergedJSON on conflicting documents %v and %v", a, b))
			}
			dst = appendPairJSON(dst, ap[i])
			i++
			j++
		}
	}
	for ; i < len(ap); i++ {
		dst = appendPairJSON(dst, ap[i])
	}
	for ; j < len(bp); j++ {
		dst = appendPairJSON(dst, bp[j])
	}
	return closeObject(dst, open)
}

// appendPairJSON appends "attr":value and the comma that separates it
// from the next member.
func appendPairJSON(dst []byte, p Pair) []byte {
	dst = AppendJSONString(dst, p.Attr, true)
	dst = append(dst, ':')
	dst = appendValueJSON(dst, p.Val)
	return append(dst, ',')
}

// closeObject ends the object opened at dst[open]: the last member's
// trailing comma becomes the closing brace.
func closeObject(dst []byte, open int) []byte {
	if len(dst) == open+1 {
		return append(dst, '}')
	}
	dst[len(dst)-1] = '}'
	return dst
}

// appendValueJSON appends a canonical value as a valid JSON literal.
func appendValueJSON(dst []byte, enc string) []byte {
	if enc == "" {
		return append(dst, '"', '"')
	}
	switch enc[0] {
	case 's':
		return AppendJSONString(dst, enc[1:], true)
	case 'n', 'i', 'b', 'j':
		return append(dst, enc[1:]...)
	case 'z':
		return append(dst, "null"...)
	default:
		return AppendJSONString(dst, enc, true)
	}
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal, escaping exactly
// as encoding/json does: control bytes, '"' and '\\'; U+2028 and U+2029
// always; invalid UTF-8 as U+FFFD; and, with escapeHTML (json.Marshal's
// default; an Encoder after SetEscapeHTML(false) is the other case),
// '<', '>' and '&'.
func AppendJSONString(dst []byte, s string, escapeHTML bool) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && (!escapeHTML || (c != '<' && c != '>' && c != '&')) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
