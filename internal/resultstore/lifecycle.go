package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// The storage lifecycle layer: a byte ledger over both artifact tiers
// (manifests and compiled traces), a configurable quota enforced by
// LRU-by-AccessedAt disk GC, and throttled access-time tracking so the
// GC's recency order reflects reads, not just writes.
//
// Accounting is reservation-based: a writer charges the ledger BEFORE
// its artifact reaches disk and settles the difference after the
// rename, so the sum of on-disk artifact bytes never exceeds the ledger
// and the ledger never exceeds the quota — the store cannot overshoot
// its budget even transiently, no matter how many writers race.  When a
// reservation does not fit, the reserving writer runs GC inline (under
// gcMu, so concurrent reservers wait rather than scanning twice) and
// evicts the coldest artifacts until the write fits, with a slack of
// quota/16 below the target so back-to-back writes do not each pay a
// scan.
//
// GC orders artifacts by file mtime, which the store maintains as an
// AccessedAt: disk hits bump the artifact's mtime (throttled by
// TouchInterval so a hot artifact pays one utimes per interval, not one
// per read).  Crash tolerance is inherited from the scrub: the ledger
// is process-local and rebuilt from a directory walk at every Open, so
// a crash between an unlink and its ledger update costs nothing but
// the accuracy of the dying process's counters.

// DefaultTouchInterval throttles AccessedAt mtime bumps when Options
// leaves TouchInterval zero.
const DefaultTouchInterval = 5 * time.Minute

// osRemove is swappable in tests to fault-inject crashes between an
// artifact unlink and its ledger update (and mid-scrub).
var osRemove = os.Remove

// lifecycleNow returns the wall clock for AccessedAt touches and GC
// recency ordering.  Eviction order steers only which cells must be
// recomputed, never what a recompute produces, so the clock cannot
// reach a simulation result.
//
//lint:allow detrand lifecycle timestamps order evictions only; simulation results never observe the clock.
func lifecycleNow() time.Time { return time.Now() }

// ledger is the in-memory size accounting of the on-disk store.  bytes
// includes in-flight reservations, so it is an upper bound on what is
// physically on disk.
type ledger struct {
	bytes     atomic.Int64
	manifests atomic.Int64
	traces    atomic.Int64
}

// objects returns the object count of one artifact tier.
func (l *ledger) objects(trace bool) *atomic.Int64 {
	if trace {
		return &l.traces
	}
	return &l.manifests
}

// reserve charges size bytes against the quota, evicting cold artifacts
// when the write does not fit.  An error means the write must not
// proceed: the artifact alone exceeds the quota, or eviction could not
// make room (everything newer is pinned by concurrent writers).
func (s *Store) reserve(size int64) error {
	if s.quota <= 0 {
		s.ledger.bytes.Add(size)
		return nil
	}
	if size > s.quota {
		return fmt.Errorf("resultstore: artifact of %d bytes exceeds the %d-byte quota", size, s.quota)
	}
	for {
		used := s.ledger.bytes.Load()
		if used+size <= s.quota {
			if s.ledger.bytes.CompareAndSwap(used, used+size) {
				return nil
			}
			continue
		}
		if !s.gcForRoom(size) {
			return fmt.Errorf("resultstore: gc could not free %d bytes under the %d-byte quota", size, s.quota)
		}
	}
}

// release returns an unused reservation (a failed write).
func (s *Store) release(size int64) { s.ledger.bytes.Add(-size) }

// gcForRoom evicts until a write of need bytes fits under the quota.
// Reservers serialise on gcMu, so a burst of writers over quota runs one
// scan; later arrivals re-check and often find the room already freed.
func (s *Store) gcForRoom(need int64) bool {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	if s.ledger.bytes.Load()+need <= s.quota {
		return true
	}
	target := s.quota - need - s.quota/16
	if target < 0 {
		target = 0
	}
	s.gcRuns.Add(1)
	s.evictTo(target)
	return s.ledger.bytes.Load()+need <= s.quota
}

// GCReport summarises one garbage-collection run.
type GCReport struct {
	// Evicted counts artifacts removed; ReclaimedBytes their total size.
	Evicted        int   `json:"evicted"`
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	// BytesUsed and QuotaBytes snapshot the ledger after the run
	// (QuotaBytes is 0 for an unbounded store).
	BytesUsed  int64 `json:"bytes_used"`
	QuotaBytes int64 `json:"quota_bytes"`
	// TargetBytes is the ledger level the run evicted toward.
	TargetBytes int64 `json:"target_bytes"`
}

// GC runs one on-demand collection: the coldest artifacts (manifests
// and compiled traces under one recency order) are removed until the
// ledger is at or below target.  target <= 0 selects the quota's
// steady-state level (quota minus the quota/16 slack); on an unbounded
// or memory-only store that default makes GC a no-op that just reports
// usage.  Safe to call concurrently with serving traffic: an evicted
// cell degrades to a recompute, never a wrong answer.
func (s *Store) GC(target int64) GCReport {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	if target <= 0 {
		if s.quota <= 0 {
			return GCReport{BytesUsed: s.ledger.bytes.Load(), QuotaBytes: s.quota}
		}
		target = s.quota - s.quota/16
	}
	s.gcRuns.Add(1)
	evicted, reclaimed := s.evictTo(target)
	return GCReport{
		Evicted:        evicted,
		ReclaimedBytes: reclaimed,
		BytesUsed:      s.ledger.bytes.Load(),
		QuotaBytes:     s.quota,
		TargetBytes:    target,
	}
}

// artifact is one GC candidate found by the disk scan.
type artifact struct {
	path  string
	key   string
	mtime int64 // unix nanoseconds; the LRU order
	trace bool
}

// evictTo scans both artifact tiers and removes the least recently
// accessed files until the ledger reaches target.  Callers hold gcMu
// (one scan at a time); per-key disk locks serialise each removal
// against writers of the same cell, and the unlink re-stats inside the
// lock so a file replaced since the scan is accounted at its current
// size.  Holds no tracked lock itself, so the file I/O below cannot
// stall an unrelated critical section.
func (s *Store) evictTo(target int64) (evicted int, reclaimed int64) {
	if s.dir == "" {
		return 0, 0
	}
	candidates := s.scanArtifacts()
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].mtime != candidates[j].mtime {
			return candidates[i].mtime < candidates[j].mtime
		}
		return candidates[i].path < candidates[j].path
	})
	for _, a := range candidates {
		if s.ledger.bytes.Load() <= target {
			break
		}
		mu := s.diskLock(a.key)
		n := s.unlink(a.path, s.ledger.objects(a.trace))
		mu.Unlock()
		if n > 0 {
			evicted++
			reclaimed += n
		}
	}
	s.gcEvictions.Add(uint64(evicted))
	if reclaimed > 0 {
		s.gcReclaimed.Add(uint64(reclaimed))
	}
	return evicted, reclaimed
}

// scanArtifacts returns every recognised artifact in a shard directory:
// compressed and legacy manifests under the 256 manifest shards,
// compiled traces under traces/.  Unrecognised files are the scrub's
// business, not the GC's.
func (s *Store) scanArtifacts() []artifact {
	var out []artifact
	s.walk(func(dir, shard string, trace bool, e os.DirEntry) {
		if !isShardName(shard) {
			return
		}
		key, isTrace, ok := artifactIdentity(e.Name(), shard)
		if !ok || isTrace != trace {
			return
		}
		info, err := e.Info()
		if err != nil {
			return
		}
		out = append(out, artifact{
			path:  filepath.Join(dir, e.Name()),
			key:   key,
			mtime: info.ModTime().UnixNano(),
			trace: trace,
		})
	})
	return out
}

// walk is the store's one directory walker, shared by the scrub and
// disk GC; each caller makes its own per-file decision.  It calls visit
// for every file at the store root (shard == ""), in every manifest
// shard directory <dir>/<xx>/, and in every directory under traces/
// (trace == true) — shard-named or not, so the scrub can sweep store
// files a non-shard directory should not hold.  Entries arrive in
// directory order; subdirectories of shards are not entered.
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

// artifactIdentity parses a filename into its cell/trace key, requiring
// the key to live in its own shard directory.  ok is false for
// temp files, foreign files, and artifacts copied into the wrong shard.
func artifactIdentity(name, shard string) (key string, trace bool, ok bool) {
	switch {
	case strings.HasSuffix(name, manifestExt):
		key = strings.TrimSuffix(name, manifestExt)
	case strings.HasSuffix(name, legacyManifestExt):
		key = strings.TrimSuffix(name, legacyManifestExt)
	case strings.HasSuffix(name, traceExt):
		key, trace = strings.TrimSuffix(name, traceExt), true
	default:
		return "", false, false
	}
	if !isHexKey(key) || !strings.HasPrefix(key, shard) {
		return "", false, false
	}
	return key, trace, true
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

// touch bumps an artifact's AccessedAt (its mtime) after a disk hit,
// throttled so a hot artifact pays at most one utimes per
// TouchInterval.  Failures are ignored: the artifact may have been
// evicted between the read and the touch, which only costs recency.
func (s *Store) touch(key, path string) {
	if s.touchEvery < 0 {
		return
	}
	now := lifecycleNow()
	st, err := os.Stat(path)
	if err != nil || now.Sub(st.ModTime()) < s.touchEvery {
		return
	}
	mu := s.diskLock(key)
	defer mu.Unlock()
	if err := os.Chtimes(path, now, now); err == nil {
		s.touchWrites.Add(1)
	}
}
