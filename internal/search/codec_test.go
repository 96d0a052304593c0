package search

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"secureview/internal/wire"
)

// realFrontier exports a frontier from an actual MinCost run so codec tests
// exercise the shapes the solver really produces (nil memos, empty
// antichains, found/unfound incumbents).
func realFrontier(t *testing.T, rng *rand.Rand, k int) *Frontier {
	t.Helper()
	attrs := make([]string, k)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%02d", i)
	}
	s := testSpace(t, attrs, randomCosts(attrs, rng))
	oracle, _ := weightedOracle(s, rng)
	res, err := s.MinCost(oracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frontier == nil {
		t.Fatal("run exported no frontier")
	}
	return res.Frontier
}

// TestFrontierCodecRoundTrip: decoding an encoded frontier must reproduce
// its universe, antichains, memo, and incumbent exactly, and re-encoding
// must be byte-identical (the deterministic-memo-order property).
func TestFrontierCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		src := realFrontier(t, rng, rng.Intn(11))
		buf := src.AppendBinary(nil)
		dec, err := DecodeFrontier(wire.NewReader(buf))
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(dec.attrs) != len(src.attrs) {
			t.Fatalf("trial %d: universe %d vs %d", trial, len(dec.attrs), len(src.attrs))
		}
		for i := range src.attrs {
			if dec.attrs[i] != src.attrs[i] {
				t.Fatalf("trial %d: attr %d %q vs %q", trial, i, dec.attrs[i], src.attrs[i])
			}
		}
		if len(dec.safe) != len(src.safe) || len(dec.unsafe) != len(src.unsafe) {
			t.Fatalf("trial %d: antichain sizes diverge", trial)
		}
		for i := range src.safe {
			if dec.safe[i] != src.safe[i] {
				t.Fatalf("trial %d: safe mask %d diverges", trial, i)
			}
		}
		for i := range src.unsafe {
			if dec.unsafe[i] != src.unsafe[i] {
				t.Fatalf("trial %d: unsafe mask %d diverges", trial, i)
			}
		}
		if len(dec.memo) != len(src.memo) {
			t.Fatalf("trial %d: memo %d vs %d", trial, len(dec.memo), len(src.memo))
		}
		for m, v := range src.memo {
			if got, ok := dec.memo[m]; !ok || got != v {
				t.Fatalf("trial %d: memo[%b] = %v,%v want %v", trial, m, got, ok, v)
			}
		}
		if dec.incumbent != src.incumbent || dec.found != src.found {
			t.Fatalf("trial %d: incumbent diverges", trial)
		}
		if !bytes.Equal(dec.AppendBinary(nil), buf) {
			t.Fatalf("trial %d: re-encode not byte-identical", trial)
		}
	}
}

// TestFrontierCodecValidation: oversized universes, out-of-universe masks,
// and truncation all fail cleanly.
func TestFrontierCodecValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	src := realFrontier(t, rng, 6)
	buf := src.AppendBinary(nil)

	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeFrontier(wire.NewReader(buf[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}

	// Universe beyond MaxAttrs.
	huge := wire.AppendU64(nil, MaxAttrs+1)
	for i := 0; i < MaxAttrs+1; i++ {
		huge = wire.AppendString(huge, fmt.Sprintf("x%d", i))
	}
	if _, err := DecodeFrontier(wire.NewReader(huge)); err == nil {
		t.Fatal("oversized universe decoded")
	}

	// A safe mask outside the universe.
	bad := wire.AppendU64(nil, 2)
	bad = wire.AppendString(bad, "a")
	bad = wire.AppendString(bad, "b")
	bad = wire.AppendU64(bad, 1)
	bad = wire.AppendU32(bad, 0xF0) // universe is 2 bits
	bad = wire.AppendU64(bad, 0)
	bad = wire.AppendU64(bad, 0)
	bad = wire.AppendU32(bad, 0)
	bad = wire.AppendBool(bad, false)
	if _, err := DecodeFrontier(wire.NewReader(bad)); err == nil {
		t.Fatal("out-of-universe mask decoded")
	}
}

// FuzzDecodeFrontier feeds arbitrary bytes to DecodeFrontier. Decoding must
// never panic, and a successful decode must be canonical: re-encoding the
// frontier reproduces exactly the bytes it consumed. The committed seed
// corpus (testdata/fuzz/FuzzDecodeFrontier) is the encoding of a frontier
// exported by an engine solve on a server. Run actively with:
//
//	go test -run '^$' -fuzz '^FuzzDecodeFrontier$' -fuzztime 30s ./internal/search
func FuzzDecodeFrontier(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		fr, err := DecodeFrontier(r)
		if err != nil {
			return
		}
		used := data[:len(data)-r.Remaining()]
		if got := fr.AppendBinary(nil); !bytes.Equal(got, used) {
			t.Fatalf("re-encoding differs from the %d decoded bytes:\n got %x\nwant %x", len(used), got, used)
		}
	})
}
