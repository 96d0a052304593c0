package wire

import (
	"crypto/sha256"
	"sort"
)

// FingerprintSize is the byte length of a Fingerprint.
const FingerprintSize = sha256.Size

// Fingerprint is the one identity hash behind every cache key, warm-start
// key, route key and corpus ID: the SHA-256 of the length-prefixed domain
// tag followed by fields built with the appenders in this package. The
// appenders length-prefix every string and count-prefix every sequence, so
// no name can shift a field boundary and two distinct field sequences of
// one shape never encode alike; the tag keeps two kinds of identity whose
// fields happen to encode alike apart.
func Fingerprint(tag string, fields []byte) [FingerprintSize]byte {
	h := sha256.New()
	h.Write(AppendString(make([]byte, 0, 8+len(tag)), tag))
	h.Write(fields)
	var sum [FingerprintSize]byte
	h.Sum(sum[:0])
	return sum
}

// AppendStrings appends a count-prefixed string list.
func AppendStrings(buf []byte, list []string) []byte {
	buf = AppendU64(buf, uint64(len(list)))
	for _, s := range list {
		buf = AppendString(buf, s)
	}
	return buf
}

// AppendFloatMap appends a count-prefixed name→float64 map in sorted name
// order, so equal maps always encode to equal bytes.
func AppendFloatMap(buf []byte, m map[string]float64) []byte {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = AppendU64(buf, uint64(len(names)))
	for _, name := range names {
		buf = AppendString(buf, name)
		buf = AppendF64(buf, m[name])
	}
	return buf
}

// Strings reads a list written by AppendStrings (nil when empty).
func (r *Reader) Strings() []string {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	return out
}

// FloatMap reads a map written by AppendFloatMap (nil when empty).
func (r *Reader) FloatMap() map[string]float64 {
	n := r.Count(16)
	if n == 0 {
		return nil
	}
	out := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		name := r.String()
		out[name] = r.F64()
	}
	return out
}
