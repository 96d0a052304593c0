package wire

import (
	"strings"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	var buf []byte
	buf = AppendU64(buf, 0xDEADBEEFCAFE)
	buf = AppendU32(buf, 7)
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)
	buf = AppendF64(buf, 3.25)
	buf = AppendString(buf, "hello")
	buf = AppendString(buf, "")
	buf = AppendBytes(buf, []byte{1, 2, 3})

	r := NewReader(buf)
	if got := r.U64(); got != 0xDEADBEEFCAFE {
		t.Fatalf("U64 = %x", got)
	}
	if got := r.U32(); got != 7 {
		t.Fatalf("U32 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools did not round-trip")
	}
	if got := r.F64(); got != 3.25 {
		t.Fatalf("F64 = %g", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty String = %q", got)
	}
	if got := r.Bytes(); string(got) != "\x01\x02\x03" {
		t.Fatalf("Bytes = %v", got)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestReaderLatchesOnUnderflow(t *testing.T) {
	r := NewReader(AppendU32(nil, 1))
	if r.U64(); r.Err() == nil {
		t.Fatal("underflowing U64 did not latch an error")
	}
	// Every subsequent read is a zero-value no-op, never a panic.
	if r.U64() != 0 || r.String() != "" || r.Bool() || r.Count(1) != 0 {
		t.Fatal("reads after error were not zero-valued")
	}
}

func TestStringLengthGuard(t *testing.T) {
	// A corrupt length prefix far beyond the buffer must fail, not allocate.
	buf := AppendU64(nil, 1<<60)
	r := NewReader(buf)
	if r.String() != "" || r.Err() == nil {
		t.Fatal("oversized string length not rejected")
	}
}

func TestCountGuard(t *testing.T) {
	buf := AppendU64(nil, 1000) // claims 1000 elements, no bytes follow
	r := NewReader(buf)
	if r.Count(8) != 0 || r.Err() == nil {
		t.Fatal("oversized count not rejected")
	}
	ok := AppendU64(nil, 2)
	ok = AppendU64(ok, 1)
	ok = AppendU64(ok, 2)
	r = NewReader(ok)
	if n := r.Count(8); n != 2 || r.Err() != nil {
		t.Fatalf("valid count rejected: n=%d err=%v", n, r.Err())
	}
}

func TestSealOpen(t *testing.T) {
	payload := []byte("the payload")
	frame := Seal(3, payload)
	got, err := Open(frame, 3)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("Open = %q, %v", got, err)
	}

	if _, err := Open(frame, 4); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not rejected: %v", err)
	}
	if _, err := Open(frame[:len(frame)-1], 3); err == nil {
		t.Fatal("truncated frame not rejected")
	}
	if _, err := Open(append(append([]byte(nil), frame...), 'x'), 3); err == nil {
		t.Fatal("trailing garbage not rejected")
	}
	for i := 0; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, err := Open(bad, 3); err == nil {
			t.Fatalf("flipped byte %d not rejected", i)
		}
	}
	if _, err := Open(nil, 3); err == nil {
		t.Fatal("empty input not rejected")
	}
}

func TestStringsAndFloatMapRoundTrip(t *testing.T) {
	buf := AppendStrings(nil, []string{"a b", "", "c"})
	buf = AppendStrings(buf, nil)
	buf = AppendFloatMap(buf, map[string]float64{"y": 2.5, "x": -1})
	buf = AppendFloatMap(buf, nil)
	r := NewReader(buf)
	if got := r.Strings(); len(got) != 3 || got[0] != "a b" || got[1] != "" || got[2] != "c" {
		t.Fatalf("Strings = %q", got)
	}
	if got := r.Strings(); got != nil {
		t.Fatalf("empty Strings = %q", got)
	}
	if got := r.FloatMap(); len(got) != 2 || got["x"] != -1 || got["y"] != 2.5 {
		t.Fatalf("FloatMap = %v", got)
	}
	if got := r.FloatMap(); got != nil {
		t.Fatalf("empty FloatMap = %v", got)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
	// Map encoding is independent of insertion order.
	a := AppendFloatMap(nil, map[string]float64{"p": 1, "q": 2, "r": 3})
	b := AppendFloatMap(nil, map[string]float64{"r": 3, "q": 2, "p": 1})
	if string(a) != string(b) {
		t.Fatal("equal maps encode differently")
	}
}
