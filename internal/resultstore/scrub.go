package resultstore

import (
	"os"
	"path/filepath"
	"strings"
)

// Startup scrub/compaction.
//
// Open walks the store directory before serving anything: orphaned temp
// files from crashed writers are removed, artifacts that cannot belong
// where they sit (a key outside its shard directory, an empty file a
// dying filesystem left behind) are removed, and the size ledger is
// rebuilt from what actually survives on disk.  The walk is the reason
// the ledger needs no write-ahead log: any crash — mid-publish,
// mid-eviction, mid-scrub itself — converges at the next Open, because
// the directory is the single source of truth and every intermediate
// state the store can crash in is either a complete artifact or
// removable garbage.
//
// The default scrub never opens a file, so a million-cell store pays a
// directory walk, not a decode storm.  Options.DeepScrub additionally
// decodes every manifest and trace artifact and removes the unreadable
// ones (counted corrupt), trading startup time for a store with no
// latent corruption left to discover at read time.

// ScrubReport summarises one scrub pass.
type ScrubReport struct {
	// TempFilesRemoved counts .tmp-* orphans from interrupted writers.
	TempFilesRemoved int `json:"temp_files_removed"`
	// OrphansRemoved counts artifacts that cannot be valid where they
	// sit: misplaced keys, foreign extensions shaped like store files.
	OrphansRemoved int `json:"orphans_removed"`
	// CorruptRemoved counts empty artifacts, and with DeepScrub every
	// artifact that failed decode verification.
	CorruptRemoved int `json:"corrupt_removed"`
	// Manifests, TraceArtifacts, and BytesUsed are the rebuilt ledger.
	Manifests      int64 `json:"manifests"`
	TraceArtifacts int64 `json:"trace_artifacts"`
	BytesUsed      int64 `json:"bytes_used"`
}

// tmpPrefix matches the writers' os.CreateTemp pattern.
const tmpPrefix = ".tmp-"

// Scrub re-walks the store directory and removes garbage, reporting
// what survives.  Open runs it before serving and rebuilds the ledger
// from the report.  Calling it again on a live store is safe and leaves
// the ledger to the incremental accounting: the only files it removes
// that the ledger counts are corrupt artifacts, and those go through the
// same unlink-and-settle path as GC.  (Resetting the ledger from a walk
// that races writers would lose their in-flight reservations.)  Remove
// failures are skipped: the artifact stays, the ledger counts it, and
// the next scrub retries.
func (s *Store) Scrub() ScrubReport {
	var rep ScrubReport
	if s.dir == "" {
		return rep
	}
	s.walk(func(dir, shard string, trace bool, e os.DirEntry) {
		s.scrubFile(dir, shard, trace, e, &rep)
	})
	return rep
}

// scrubFile classifies one file: temp orphans anywhere are removed; in
// a shard directory, misplaced artifacts are removed, corrupt ones
// (empty, or failing the optional deep verification) are unlinked and
// settled, surviving artifacts are counted into the report, and anything
// else — a file the store never wrote — is left untouched.  At the root
// only temp files are the scrub's business.
func (s *Store) scrubFile(dir, shard string, traceTier bool, e os.DirEntry, rep *ScrubReport) {
	name := e.Name()
	path := filepath.Join(dir, name)
	if strings.HasPrefix(name, tmpPrefix) {
		s.scrubRemove(path, &rep.TempFilesRemoved)
		return
	}
	if shard == "" {
		return
	}
	key, isTrace, ok := artifactIdentity(name, shard)
	if !ok || isTrace != traceTier {
		if storeShaped(name) {
			s.scrubRemove(path, &rep.OrphansRemoved)
		}
		return
	}
	info, err := e.Info()
	if err != nil {
		return
	}
	if info.Size() == 0 || s.deepScrub && !s.verifyArtifact(path, key, isTrace) {
		s.corrupt.Add(1)
		mu := s.diskLock(key)
		freed := s.unlink(path, s.ledger.objects(isTrace))
		mu.Unlock()
		if freed >= 0 {
			rep.CorruptRemoved++
			s.scrubRepairs.Add(1)
		}
		return
	}
	if isTrace {
		rep.TraceArtifacts++
	} else {
		rep.Manifests++
	}
	rep.BytesUsed += info.Size()
}

// storeShaped reports whether a filename uses one of the store's
// extensions — the shapes the scrub may remove when misplaced.  Foreign
// files (a stray README, a user's notes) never match and are never
// touched.
func storeShaped(name string) bool {
	return strings.HasSuffix(name, manifestExt) ||
		strings.HasSuffix(name, legacyManifestExt) ||
		strings.HasSuffix(name, traceExt)
}

// scrubRemove unlinks one piece of garbage, counting the repair only on
// success so the report never claims a removal that did not happen.
func (s *Store) scrubRemove(path string, counter *int) {
	if err := osRemove(path); err != nil {
		return
	}
	*counter++
	s.scrubRepairs.Add(1)
}

// verifyArtifact decodes one artifact for the deep scrub.  A manifest
// must inflate (or parse, for legacy files) and pass the same
// key/version verification as a read; a trace must inflate and
// unmarshal.  Entries from a different code version parse fine and are
// kept: they are stale, not corrupt, and the LRU order retires them.
func (s *Store) verifyArtifact(path, key string, trace bool) bool {
	if trace {
		f, err := os.Open(path)
		if err != nil {
			return false
		}
		defer f.Close()
		_, derr := s.loadTraceFile(f)
		return derr == nil
	}
	data, err := readMaybeCompressed(path)
	if err != nil {
		return false
	}
	m, err := parseManifest(data)
	if err != nil {
		return false
	}
	// Verify against the manifest's own version: a version mismatch
	// alone is stale, not broken.
	_, err = m.verify(key, m.Version)
	return err == nil
}
