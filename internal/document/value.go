package document

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Canonical value encoding.
//
// Natural-join equality must hold across documents regardless of how a
// JSON value was spelled, so values are stored as canonical strings
// with a one-byte type tag:
//
//	s<str>   JSON string
//	n<num>   JSON number, shortest round-trip float formatting
//	i<int>   JSON number that is an exact integer (canonicalised so
//	         that 2 and 2.0 compare equal)
//	btrue / bfalse  JSON booleans
//	z        JSON null
//	j<json>  compact serialisation of a JSON array (arrays are treated
//	         as one opaque value; nested objects are flattened into
//	         dotted attribute paths instead, see Flatten)
//
// Encoding equality therefore coincides with JSON value equality for
// all scalar types the paper's documents use.

// EncodeString encodes a JSON string value.
func EncodeString(s string) string { return "s" + s }

// EncodeBool encodes a JSON boolean value.
func EncodeBool(b bool) string {
	if b {
		return "btrue"
	}
	return "bfalse"
}

// EncodeNull encodes JSON null.
func EncodeNull() string { return "z" }

// EncodeInt encodes an integral JSON number.
func EncodeInt(v int64) string { return "i" + strconv.FormatInt(v, 10) }

// EncodeFloat encodes a JSON number, canonicalising exact integers so
// that 2 and 2.0 encode identically.
func EncodeFloat(f float64) string { return string(appendFloat(nil, f)) }

// appendFloat appends EncodeFloat(f). The int64 range check guards the
// float-to-int conversion, which the Go spec leaves implementation-
// defined for out-of-range values; its upper end is exclusive because
// 2^63 is a float64 but not an int64.
func appendFloat(dst []byte, f float64) []byte {
	if f >= -(1<<63) && f < 1<<63 && f == math.Trunc(f) {
		return strconv.AppendInt(append(dst, 'i'), int64(f), 10)
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		// JSON has no literal for these; encode as tagged strings so
		// serialisation stays valid while equality still works.
		return strconv.AppendFloat(append(dst, 's'), f, 'g', -1, 64)
	}
	return strconv.AppendFloat(append(dst, 'n'), f, 'g', -1, 64)
}

// appendNumber appends the canonical encoding of a valid JSON number
// literal: an integer that fits int64 keeps its digits, any other
// finite number takes EncodeFloat's form (so 2, 2.0 and 2e0 agree), and
// a literal beyond float64 keeps its text, so that equality and JSON
// round-trips still work.
func appendNumber(dst, lit []byte) []byte {
	neg := lit[0] == '-'
	digits := lit
	if neg {
		digits = lit[1:]
	}
	integer := true
	for _, c := range digits {
		if c < '0' || c > '9' {
			integer = false
			break
		}
	}
	const minInt64 = "9223372036854775808" // its digits; one more than the largest int64
	if integer && (len(digits) < len(minInt64) ||
		len(digits) == len(minInt64) && (string(digits) < minInt64 || neg && string(digits) == minInt64)) {
		if neg && string(digits) == "0" {
			lit = digits
		}
		return append(append(dst, 'i'), lit...)
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return append(append(dst, 'n'), lit...)
	}
	return appendFloat(dst, f)
}

// EncodeArrayJSON wraps an already-serialised compact JSON array.
func EncodeArrayJSON(compact string) string { return "j" + compact }

// EncodeValue encodes the result of encoding/json decoding (string,
// float64, bool, nil, int variants) into canonical form. Unsupported
// dynamic types fall back to their fmt representation tagged as a
// string, which keeps the encoding total.
func EncodeValue(v any) string {
	switch x := v.(type) {
	case string:
		return EncodeString(x)
	case float64:
		return EncodeFloat(x)
	case int:
		return EncodeInt(int64(x))
	case int64:
		return EncodeInt(x)
	case bool:
		return EncodeBool(x)
	case nil:
		return EncodeNull()
	default:
		return EncodeString(fmt.Sprint(x))
	}
}

// EncodeJSONValue canonicalises one decoded JSON value exactly as
// document parsing would: json.Number literals become integer or float
// encodings (so a filter spelled 2 matches a document attribute parsed
// from 2.0), arrays serialise as opaque JSON, and scalars take their
// canonical tag. Nested objects are rejected — parsing flattens them
// into multiple dotted attributes, so they cannot be a single pair
// value; callers should flatten the filter path instead ("a.b": 1).
func EncodeJSONValue(v any) (string, error) {
	switch x := v.(type) {
	case map[string]any:
		return "", fmt.Errorf("document: a nested object is not a single value; use a flattened attribute path")
	case []any:
		compact, err := compactJSON(x)
		return EncodeArrayJSON(string(compact)), err
	case json.Number:
		p := parser{data: []byte(x)}
		if lit, err := p.number(); err != nil || len(lit) != len(x) {
			return "", fmt.Errorf("document: %q is not a JSON number", string(x))
		}
		return string(appendNumber(nil, p.data)), nil
	default:
		return EncodeValue(v), nil
	}
}

// DecodeValueString renders a canonical value back to a human-readable
// JSON-ish literal (used for display and JSON re-serialisation).
func DecodeValueString(enc string) string {
	if enc == "" {
		return ""
	}
	switch enc[0] {
	case 's':
		return enc[1:]
	case 'n', 'i':
		return enc[1:]
	case 'b':
		return enc[1:]
	case 'z':
		return "null"
	case 'j':
		return enc[1:]
	default:
		return enc
	}
}

// ValueJSON renders a canonical value as a valid JSON literal.
func ValueJSON(enc string) string { return string(appendValueJSON(nil, enc)) }

// ConcatValues builds the synthetic value used by attribute-value
// expansion: the concatenation of two canonical values. The combined
// value is tagged as a string; the separator is a private-use rune so
// distinct (v1, v2) inputs always yield distinct outputs.
func ConcatValues(v1, v2 string) string {
	return "s" + v1 + "" + v2
}

// ConcatAttrs builds the synthetic attribute name used by
// attribute-value expansion.
func ConcatAttrs(a1, a2 string) string {
	return a1 + "" + a2
}

// IsSyntheticAttr reports whether the attribute name was produced by
// ConcatAttrs.
func IsSyntheticAttr(attr string) bool {
	return strings.ContainsRune(attr, '')
}
