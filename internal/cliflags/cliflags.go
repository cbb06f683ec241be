// Package cliflags holds flag types shared between the sfj commands,
// so parsing and validation live in one place.
package cliflags

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ByteSize is a flag.Value for byte counts: a plain integer or one
// with a K/M/G suffix (KB/MB/GB and KiB/MiB/GiB also accepted, all
// powers of 1024) — "64M", "2G", "512K", "1048576".
type ByteSize int64

// byteSuffixes in match order: longest first so "KiB" is not read as
// a bare trailing "B".
var byteSuffixes = []struct {
	suffix string
	mult   int64
}{
	{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
	{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
	{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
	{"B", 1},
}

// ParseByteSize parses a human-readable byte count.
func ParseByteSize(s string) (int64, error) {
	trimmed := strings.TrimSpace(s)
	upper := strings.ToUpper(trimmed)
	mult := int64(1)
	for _, e := range byteSuffixes {
		if strings.HasSuffix(upper, e.suffix) {
			mult = e.mult
			trimmed = strings.TrimSpace(trimmed[:len(trimmed)-len(e.suffix)])
			break
		}
	}
	n, err := strconv.ParseInt(trimmed, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q (want an integer, optionally K/M/G-suffixed)", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("byte size %q must not be negative", s)
	}
	if mult > 1 && n > math.MaxInt64/mult {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n * mult, nil
}

// Set implements flag.Value.
func (b *ByteSize) Set(s string) error {
	n, err := ParseByteSize(s)
	if err != nil {
		return err
	}
	*b = ByteSize(n)
	return nil
}

// String implements flag.Value, rendering with the largest exact
// binary suffix.
func (b *ByteSize) String() string {
	if b == nil || *b == 0 {
		return "0"
	}
	n := int64(*b)
	switch {
	case n%(1<<30) == 0:
		return strconv.FormatInt(n>>30, 10) + "G"
	case n%(1<<20) == 0:
		return strconv.FormatInt(n>>20, 10) + "M"
	case n%(1<<10) == 0:
		return strconv.FormatInt(n>>10, 10) + "K"
	default:
		return strconv.FormatInt(n, 10)
	}
}

// Int64 is the parsed byte count.
func (b ByteSize) Int64() int64 { return int64(b) }
