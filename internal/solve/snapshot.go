package solve

import (
	"encoding/hex"
	"fmt"
	"io"

	"secureview/internal/search"
	"secureview/internal/secureview"
	"secureview/internal/wire"
	"secureview/internal/workflow"
)

// Session snapshot/restore: the hot state a warmed server carries — derived
// problems and warm-start frontiers, exactly the two kinds of Session entry
// — serialized to a versioned, checksummed binary stream so a restart (or a
// fresh replica) boots with the cache it would otherwise spend minutes
// re-deriving.
//
// Restore is all-or-nothing and trust-bounded: the whole payload is
// CRC-verified and fully decoded (every count, key, name and mask
// re-validated by the per-package codecs) before a single entry is
// installed, so a corrupt, truncated or version-bumped file degrades to an
// empty session instead of a panic, a poisoned cache, or an error loop.
// Entry sizes are recomputed locally — never trusted from the file — and
// installation runs through the normal accounting paths, so restoring into
// a smaller byte budget simply evicts from the least-recent end.

// SnapshotVersion is the wire version of the session snapshot format. It
// must be bumped on ANY change to the entry encodings below, to the codecs
// in internal/search and internal/secureview, or to the fingerprints that
// form the entry keys; restore refuses other versions
// outright — snapshots are rebuildable caches, so cross-version migration
// is deliberately not attempted.
const SnapshotVersion = 3

// StructuralFingerprint returns the hex cost-independent structure key of a
// derivation request. Cost-only edits of a workflow share it, which is what
// makes it the sharding route key: an edit chain pins to one owner replica,
// whose session then aggregates the chain's warm frontiers and delta
// sources instead of scattering them across the ring.
func StructuralFingerprint(w *workflow.Workflow, v secureview.Variant, gamma uint64) string {
	_, structural := workflowKeys(w, v, gamma, nil, nil)
	return hex.EncodeToString([]byte(structural))
}

// Snapshot writes the session's completed cache entries to w, least
// recently used first, so that restoring replays them in recency order and
// the restored LRU list matches the source's. Entries still deriving,
// cached errors, and evicted entries are skipped: a snapshot holds only
// state worth shipping. Safe for concurrent use with serving traffic — the
// payload is assembled under the session lock, then sealed and written
// without it.
func (s *Session) Snapshot(w io.Writer) error {
	s.mu.Lock()
	var body []byte
	n := 0
	for e := s.back; e != nil; e = e.prev {
		// accounted was set under s.mu strictly after the deriving goroutine
		// completed the entry, so reading the payload fields here is ordered.
		if !e.accounted || e.err != nil {
			continue
		}
		var enc []byte
		switch e.kind {
		case kindProblem:
			if e.p == nil {
				continue
			}
			enc = wire.AppendU32(enc, uint32(kindProblem))
			enc = wire.AppendString(enc, e.key)
			enc = wire.AppendString(enc, e.structKey)
			enc = e.p.AppendBinary(enc)
		case kindWarm:
			if e.f == nil {
				continue
			}
			enc = wire.AppendU32(enc, uint32(kindWarm))
			enc = wire.AppendString(enc, e.key)
			enc = e.f.AppendBinary(enc)
		}
		body = append(body, enc...)
		n++
	}
	s.mu.Unlock()

	payload := wire.AppendU64(nil, uint64(n))
	payload = append(payload, body...)
	_, err := w.Write(wire.Seal(SnapshotVersion, payload))
	return err
}

// restoredEntry is one fully decoded and validated snapshot entry, staged
// before installation.
type restoredEntry struct {
	kind      entryKind
	key       string
	structKey string
	p         *secureview.Problem
	f         *search.Frontier
}

// Restore reads a snapshot from rd and installs its entries into the
// session, returning how many were installed. Decoding is strict and
// happens entirely before installation: any envelope, codec or validation
// failure returns an error with the session untouched. Keys already present
// win over snapshot entries (live state is newer than any file), and the
// session's byte budget applies as usual — restoring a large snapshot into
// a small session keeps only the most recently used tail.
func (s *Session) Restore(rd io.Reader) (int, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return 0, err
	}
	payload, err := wire.Open(data, SnapshotVersion)
	if err != nil {
		return 0, err
	}
	r := wire.NewReader(payload)
	n := r.Count(1)
	if err := r.Err(); err != nil {
		return 0, err
	}
	entries := make([]restoredEntry, 0, n)
	type slot struct {
		kind entryKind
		key  string
	}
	seen := make(map[slot]bool)
	for i := 0; i < n; i++ {
		re := restoredEntry{kind: entryKind(r.U32()), key: r.String()}
		if err := r.Err(); err != nil {
			return 0, err
		}
		// Snapshot writes each cache slot once, so a repeated one means
		// the payload is corrupt.
		if seen[slot{re.kind, re.key}] {
			return 0, fmt.Errorf("solve: snapshot entry %d repeats a key", i)
		}
		seen[slot{re.kind, re.key}] = true
		switch re.kind {
		case kindProblem:
			if len(re.key) != wire.FingerprintSize {
				return 0, fmt.Errorf("solve: snapshot problem key of %d bytes", len(re.key))
			}
			re.structKey = r.String()
			if err := r.Err(); err != nil {
				return 0, err
			}
			if len(re.structKey) != 0 && len(re.structKey) != wire.FingerprintSize {
				return 0, fmt.Errorf("solve: snapshot structure key of %d bytes", len(re.structKey))
			}
			if re.p, err = secureview.DecodeProblem(r); err != nil {
				return 0, err
			}
		case kindWarm:
			if len(re.key) != 2*wire.FingerprintSize {
				return 0, fmt.Errorf("solve: snapshot warm key of %d bytes", len(re.key))
			}
			if re.f, err = search.DecodeFrontier(r); err != nil {
				return 0, err
			}
		default:
			return 0, fmt.Errorf("solve: snapshot entry kind %d", re.kind)
		}
		entries = append(entries, re)
	}
	if err := r.Err(); err != nil {
		return 0, err
	}
	if r.Remaining() != 0 {
		return 0, fmt.Errorf("solve: %d trailing bytes after snapshot entries", r.Remaining())
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	installed := 0
	for _, re := range entries {
		m := s.mapFor(re.kind)
		if _, ok := m[re.key]; ok {
			continue
		}
		e := &sessionEntry{key: re.key, kind: re.kind, done: true}
		switch re.kind {
		case kindProblem:
			e.p = re.p
			e.size = problemSize(re.p)
			e.structKey = re.structKey
		case kindWarm:
			e.f = re.f
			e.size = entrySize + int64(len(re.key)) + re.f.MemSize()
		}
		m[re.key] = e
		s.touchLocked(e)
		e.accounted = true
		s.bytes += e.size
		if e.structKey != "" {
			s.structIdx[e.structKey] = e
		}
		installed++
	}
	s.evictOverLocked()
	return installed, nil
}

// RestoreSession builds a session with the given byte budget from a
// snapshot stream. It ALWAYS returns a usable session: on any decode
// failure the session is simply empty and the error reports why — callers
// log it and serve cold, they never crash-loop on a bad snapshot file.
func RestoreSession(rd io.Reader, maxBytes int64) (*Session, int, error) {
	s := NewSessionBytes(maxBytes)
	n, err := s.Restore(rd)
	return s, n, err
}
