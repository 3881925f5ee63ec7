package resultstore

import "errors"

// The store side of the admin surface: targeted cell deletion and a
// usage snapshot, both safe on a live store.  internal/server maps them
// onto DELETE /v1/cell, POST /v1/gc (→ lifecycle.go's GC), and
// GET /v1/storestats.

// ErrBadCellKey rejects DeleteCell keys that are not 64 lowercase hex
// digits — the only shape CellKeyDecl ever produces.
var ErrBadCellKey = errors.New("resultstore: cell key must be 64 lowercase hex digits")

// DeleteCell evicts one cell everywhere it is cached: the in-memory
// LRU and both on-disk manifest forms.  The key must be a cell key as
// produced by CellKeyDecl; anything else is rejected so an
// admin typo cannot unlink an arbitrary path.  Deleting a cell that is
// mid-computation is safe — the in-flight leader persists after this
// returns and simply re-caches it, the same way a GC eviction races a
// writer.  Returns whether anything was actually removed.
func (s *Store) DeleteCell(key string) (bool, error) {
	if len(key) != 64 || !isHexKey(key) {
		return false, ErrBadCellKey
	}
	removed := s.memRemove(key)
	if s.dir != "" {
		mu := s.diskLock(key)
		for _, tier := range []artifactTier{tierManifest, tierLegacy} {
			if s.unlink(artifactRef{key, tier}) >= 0 {
				removed = true
			}
		}
		mu.Unlock()
	}
	if removed {
		s.adminDeletes.Add(1)
	}
	return removed, nil
}

// memRemove drops a key from the in-memory tier.
func (s *Store) memRemove(key string) bool {
	if s.mem == nil {
		return false
	}
	s.memMu.Lock()
	ok := s.mem.remove(key)
	s.memMu.Unlock()
	return ok
}

// Stats is a point-in-time usage snapshot of the store's tiers.
type Stats struct {
	// BytesUsed is the ledger's view of the on-disk tier, including any
	// in-flight write reservations; QuotaBytes is the configured bound
	// (0 = unbounded).
	BytesUsed  int64 `json:"bytes_used"`
	QuotaBytes int64 `json:"quota_bytes"`
	// Manifests and TraceArtifacts count on-disk artifacts per tier.
	Manifests      int64 `json:"manifests"`
	TraceArtifacts int64 `json:"trace_artifacts"`
	// MemoryEntries is the in-memory LRU's current population.
	MemoryEntries int `json:"memory_entries"`
}

// Stats returns the store's current usage.
func (s *Store) Stats() Stats {
	st := Stats{BytesUsed: s.ledger.bytes.Load(), QuotaBytes: s.quota}
	st.Manifests, st.TraceArtifacts = s.index.tierCounts()
	if s.mem != nil {
		s.memMu.Lock()
		st.MemoryEntries = s.mem.len()
		s.memMu.Unlock()
	}
	return st
}
