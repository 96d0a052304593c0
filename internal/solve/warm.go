package solve

import (
	"encoding/hex"

	"secureview/internal/search"
	"secureview/internal/secureview"
	"secureview/internal/wire"
)

// ProblemFingerprint is the warm-start cache key: the hex fingerprint of
// the variant (it selects the feasibility predicate and the
// useful-attribute universe) and the derived problem's structure encoding
// — module interfaces, visibility and requirement lists. Costs and
// PrivatizeCost are deliberately excluded: safety verdicts never read them,
// so two requests that differ only in costs share a fingerprint and the
// later one can warm-start from the earlier one's frontier. Derivation
// sorts every requirement's attribute lists, so the fingerprint is stable
// across re-derivations of the same workflow.
func ProblemFingerprint(p *secureview.Problem, v secureview.Variant) string {
	buf := wire.AppendU64(make([]byte, 0, 1024), uint64(v))
	fp := wire.Fingerprint("solve/warm/v2", p.AppendStructure(buf))
	return hex.EncodeToString(fp[:])
}

// Warm returns the warm-start frontier stored under the fingerprint, or nil
// when none is cached (never stored, or evicted under memory pressure — the
// caller falls back to a cold solve either way). Hits and misses are
// tracked in WarmHits/WarmMisses, separate from the derivation counters.
func (s *Session) Warm(fp string) *search.Frontier {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.warm[fp]
	if !ok {
		s.warmMisses++
		return nil
	}
	s.warmHits++
	s.touchLocked(e)
	return e.f
}

// StoreWarm caches f under the fingerprint, replacing any previous frontier
// for it, and participates in the session's LRU byte budget via
// Frontier.MemSize. Frontiers are immutable, so a pointer already handed
// out by Warm survives eviction of its entry. A nil frontier is ignored.
func (s *Session) StoreWarm(fp string, f *search.Frontier) {
	if f == nil {
		return
	}
	size := entrySize + int64(len(fp)) + f.MemSize()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.warm[fp]
	if !ok {
		e = &sessionEntry{key: fp, kind: kindWarm}
		s.warm[fp] = e
	}
	s.touchLocked(e)
	if e.accounted {
		s.bytes -= e.size
	}
	e.f = f
	e.done = true
	e.size = size
	e.accounted = true
	s.bytes += size
	s.evictOverLocked()
}
