package cliflags

import (
	"flag"
	"testing"
)

func TestParseByteSize(t *testing.T) {
	good := map[string]int64{
		"0":       0,
		"1048576": 1 << 20,
		"512K":    512 << 10,
		"64M":     64 << 20,
		"2G":      2 << 30,
		"64MB":    64 << 20,
		"64MiB":   64 << 20,
		"64m":     64 << 20,
		"128B":    128,
		" 8M ":    8 << 20,
	}
	for in, want := range good {
		got, err := ParseByteSize(in)
		if err != nil {
			t.Errorf("ParseByteSize(%q): %v", in, err)
		} else if got != want {
			t.Errorf("ParseByteSize(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "M", "-1K", "1.5G", "64X", "9999999999G"} {
		if n, err := ParseByteSize(bad); err == nil {
			t.Errorf("ParseByteSize(%q) = %d, want error", bad, n)
		}
	}
}

func TestByteSizeFlag(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var budget ByteSize
	fs.Var(&budget, "memory-budget", "")
	if err := fs.Parse([]string{"-memory-budget", "64M"}); err != nil {
		t.Fatal(err)
	}
	if budget.Int64() != 64<<20 {
		t.Errorf("parsed = %d, want %d", budget.Int64(), 64<<20)
	}
	if s := budget.String(); s != "64M" {
		t.Errorf("String() = %q, want 64M", s)
	}
	for val, want := range map[ByteSize]string{0: "0", 1 << 30: "1G", 3 << 10: "3K", 1000: "1000"} {
		v := val
		if got := v.String(); got != want {
			t.Errorf("ByteSize(%d).String() = %q, want %q", int64(val), got, want)
		}
	}
}
