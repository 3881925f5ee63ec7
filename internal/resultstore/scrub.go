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
// removable garbage.  Open's walk also seeds the recency index
// (lifecycle.go) with every surviving artifact.
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
	// Manifests and TraceArtifacts are the recency index's per-tier
	// counts after the pass; BytesUsed sums the surviving artifacts the
	// walk found (Open's rebuilt ledger).
	Manifests      int64 `json:"manifests"`
	TraceArtifacts int64 `json:"trace_artifacts"`
	BytesUsed      int64 `json:"bytes_used"`
}

// tmpPrefix matches the writers' os.CreateTemp pattern.
const tmpPrefix = ".tmp-"

// Scrub re-walks the store directory and removes garbage, reporting
// what survives.  Open runs it before serving and rebuilds the ledger
// and the recency index from the walk.  Calling it again on a live
// store is safe and leaves both to the incremental accounting: the only
// files it removes that they count are corrupt artifacts, and those go
// through the same unlink-and-settle path as GC.  (Resetting them from
// a walk that races writers would lose in-flight reservations, and
// could re-index a file GC has just unlinked.)  Remove failures are
// skipped: the artifact stays, the ledger counts it, and the next scrub
// retries.
func (s *Store) Scrub() ScrubReport { return s.scrub(false) }

// scrub is Scrub; seed (Open's pass only) indexes every surviving
// artifact at its walked mtime.
func (s *Store) scrub(seed bool) ScrubReport {
	var rep ScrubReport
	if s.dir == "" {
		return rep
	}
	s.walk(func(dir, shard string, trace bool, e os.DirEntry) {
		s.scrubFile(dir, shard, trace, e, seed, &rep)
	})
	rep.Manifests, rep.TraceArtifacts = s.index.tierCounts()
	return rep
}

// scrubFile classifies one file: temp orphans anywhere are removed; in
// a shard directory, misplaced artifacts are removed, corrupt ones
// (empty, or failing the optional deep verification) are unlinked and
// settled, surviving artifacts are summed into the report (and indexed
// when seeding), and anything else — a file the store never wrote — is
// left untouched.  At the root only temp files are the scrub's business.
func (s *Store) scrubFile(dir, shard string, traceTier bool, e os.DirEntry, seed bool, rep *ScrubReport) {
	name := e.Name()
	path := filepath.Join(dir, name)
	if strings.HasPrefix(name, tmpPrefix) {
		s.scrubRemove(path, &rep.TempFilesRemoved)
		return
	}
	if shard == "" {
		return
	}
	ref, ok := artifactIdentity(name, shard)
	if !ok || (ref.tier == tierTrace) != traceTier {
		if storeShaped(name) {
			s.scrubRemove(path, &rep.OrphansRemoved)
		}
		return
	}
	info, err := e.Info()
	if err != nil {
		return
	}
	if info.Size() == 0 || s.deepScrub && !s.verifyArtifact(path, ref) {
		s.corrupt.Add(1)
		mu := s.diskLock(ref.key)
		freed := s.unlink(ref)
		mu.Unlock()
		if freed >= 0 {
			rep.CorruptRemoved++
			s.scrubRepairs.Add(1)
		}
		return
	}
	if seed {
		s.index.record(ref, info.ModTime().UnixNano())
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
func (s *Store) verifyArtifact(path string, ref artifactRef) bool {
	if ref.tier == tierTrace {
		f, err := os.Open(path)
		if err != nil {
			return false
		}
		defer f.Close()
		_, derr := s.loadTraceFile(f)
		return derr == nil
	}
	buf := inflateBufs.Get().(*[]byte)
	defer putInflateBuf(buf)
	data, err := readMaybeCompressed(path, buf)
	if err != nil {
		return false
	}
	m, _, err := parseManifest(data)
	if err != nil {
		return false
	}
	// Verify against the manifest's own version: a version mismatch
	// alone is stale, not broken.
	_, err = m.verify(ref.key, m.Version)
	return err == nil
}

// walk is the scrub's directory walker: it calls visit for every file
// at the store root (shard == ""), in every manifest shard directory
// <dir>/<xx>/, and in every directory under traces/ (trace == true) —
// shard-named or not, so the scrub can sweep store files a non-shard
// directory should not hold.  Entries arrive in directory order;
// subdirectories of shards are not entered.
func (s *Store) walk(visit func(dir, shard string, trace bool, e os.DirEntry)) {
	root, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range root {
		switch name := e.Name(); {
		case !e.IsDir():
			visit(s.dir, "", false, e)
		case name == traceDirName:
			tdir := filepath.Join(s.dir, name)
			shards, err := os.ReadDir(tdir)
			if err != nil {
				continue
			}
			for _, sh := range shards {
				if sh.IsDir() {
					walkShard(filepath.Join(tdir, sh.Name()), sh.Name(), true, visit)
				}
			}
		case isShardName(name):
			walkShard(filepath.Join(s.dir, name), name, false, visit)
		}
	}
}

// walkShard calls visit for each file of one shard directory.
func walkShard(dir, shard string, trace bool, visit func(dir, shard string, trace bool, e os.DirEntry)) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() {
			visit(dir, shard, trace, e)
		}
	}
}

// artifactIdentity parses a filename into the artifact it names,
// requiring a shard directory name and the key to live in its own
// shard.  ok is false for temp files, foreign files, and artifacts
// copied into the wrong shard.
func artifactIdentity(name, shard string) (ref artifactRef, ok bool) {
	switch {
	case strings.HasSuffix(name, manifestExt):
		ref = artifactRef{strings.TrimSuffix(name, manifestExt), tierManifest}
	case strings.HasSuffix(name, legacyManifestExt):
		ref = artifactRef{strings.TrimSuffix(name, legacyManifestExt), tierLegacy}
	case strings.HasSuffix(name, traceExt):
		ref = artifactRef{strings.TrimSuffix(name, traceExt), tierTrace}
	default:
		return artifactRef{}, false
	}
	if !isShardName(shard) || !isHexKey(ref.key) || !strings.HasPrefix(ref.key, shard) {
		return artifactRef{}, false
	}
	return ref, true
}

// isShardName reports a two-hex-digit shard directory name.
func isShardName(name string) bool {
	return len(name) == 2 && isHexKey(name)
}

// isHexKey reports a lowercase-hex string of plausible key shape.
func isHexKey(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
