package resultstore

import (
	"errors"
	"io/fs"
	"maps"
	"path/filepath"
	"strings"
	"testing"
)

// checkInvariants asserts the store's structural invariants.  The store
// must be quiescent — no request, GC or scrub in progress — because the
// ledger may legitimately lead the disk by in-flight reservations.  It
// checks, independently of the store's own scanners:
//
//   - physical bytes ≤ ledger ≤ quota;
//   - ledger == Σ on-disk artifact sizes, and Stats() counts the
//     artifacts a directory walk finds;
//   - the recency index holds exactly the artifacts the walk finds,
//     each under its own tier and at the mtime its file reports;
//   - the memory LRU holds at most its capacity;
//   - every flight map in the lock table is empty;
//   - every artifact sits under its own key's shard directory.
func checkInvariants(t *testing.T, s *Store) {
	t.Helper()
	st := s.Stats()

	if s.mem != nil {
		s.memMu.Lock()
		n, max := s.mem.len(), s.mem.max
		s.memMu.Unlock()
		if n > max {
			t.Errorf("memory LRU holds %d entries, capacity %d", n, max)
		}
	}
	for i := range s.locks {
		ks := &s.locks[i]
		ks.flightMu.Lock()
		n := len(ks.flights)
		ks.flightMu.Unlock()
		if n != 0 {
			t.Errorf("lock stripe %d retains %d flights", i, n)
		}
	}

	if s.quota > 0 && st.BytesUsed > s.quota {
		t.Errorf("ledger %d exceeds quota %d", st.BytesUsed, s.quota)
	}
	if s.dir == "" {
		return
	}
	var physical, artifactBytes, manifests, traces int64
	walked := make(map[artifactRef]int64)
	werr := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		physical += info.Size()
		name := d.Name()
		var key string
		var at func(string) string
		var tier artifactTier
		switch {
		case strings.HasSuffix(name, manifestExt):
			key, at, tier = strings.TrimSuffix(name, manifestExt), s.manifestPath, tierManifest
			manifests++
		case strings.HasSuffix(name, legacyManifestExt):
			key, at, tier = strings.TrimSuffix(name, legacyManifestExt), s.legacyManifestPath, tierLegacy
			manifests++
		case strings.HasSuffix(name, traceExt):
			key, at, tier = strings.TrimSuffix(name, traceExt), s.tracePath, tierTrace
			traces++
		default:
			return nil
		}
		if len(key) < 2 || path != at(key) {
			t.Errorf("artifact %s is outside its key's shard", path)
		}
		walked[artifactRef{key, tier}] = info.ModTime().UnixNano()
		artifactBytes += info.Size()
		return nil
	})
	if werr != nil && !errors.Is(werr, fs.ErrNotExist) {
		t.Errorf("walk %s: %v", s.dir, werr)
	}
	if physical > st.BytesUsed {
		t.Errorf("physical %d exceeds ledger %d", physical, st.BytesUsed)
	}
	if artifactBytes != st.BytesUsed {
		t.Errorf("ledger %d != on-disk artifact bytes %d", st.BytesUsed, artifactBytes)
	}
	if manifests != st.Manifests || traces != st.TraceArtifacts {
		t.Errorf("Stats counts %d manifests / %d traces, walk finds %d / %d",
			st.Manifests, st.TraceArtifacts, manifests, traces)
	}
	s.index.mu.Lock()
	indexed := maps.Clone(s.index.mtimes)
	s.index.mu.Unlock()
	for ref, mtime := range walked {
		got, ok := indexed[ref]
		switch {
		case !ok:
			t.Errorf("artifact %s is not indexed", s.artifactPath(ref))
		case got != mtime:
			t.Errorf("index has %s at mtime %d, the file reports %d", s.artifactPath(ref), got, mtime)
		}
	}
	for ref := range indexed {
		if _, ok := walked[ref]; !ok {
			t.Errorf("index holds %s, which the walk does not find", s.artifactPath(ref))
		}
	}
}
