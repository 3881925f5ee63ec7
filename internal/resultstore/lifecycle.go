package resultstore

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The storage lifecycle layer: a byte ledger over both artifact tiers
// (manifests and compiled traces), a configurable quota enforced by
// LRU-by-AccessedAt disk GC, a recency index that keeps the GC's order
// between runs, and throttled access-time tracking so that order
// reflects reads, not just writes.
//
// Accounting is reservation-based: a writer charges the ledger BEFORE
// its artifact reaches disk and settles the difference after the
// rename, so the sum of on-disk artifact bytes never exceeds the ledger
// and the ledger never exceeds the quota — the store cannot overshoot
// its budget even transiently, no matter how many writers race.  When a
// reservation does not fit, the reserving writer runs GC inline (under
// gcMu, so concurrent reservers wait rather than collecting twice) and
// evicts the coldest artifacts until the write fits, with a slack of
// quota/16 below the target so back-to-back writes do not each pay a
// collection.
//
// GC orders artifacts by file mtime, which the store maintains as an
// AccessedAt: disk hits bump the artifact's mtime (throttled by
// TouchInterval so a hot artifact pays one utimes per interval, not one
// per read).  The recency index holds every artifact's mtime as the
// file system reports it, so a collection sorts the index instead of
// walking the store: Open's scrub seeds it, and publish, touch and
// unlink — the only paths that create, re-time or remove an artifact —
// keep it current under the key's disk lock.  It also counts the
// artifacts of each tier.  Crash tolerance is inherited from the scrub:
// the ledger and the index are process-local and rebuilt from a
// directory walk at every Open, so a crash between an unlink and its
// ledger update costs nothing but the accuracy of the dying process's
// counters.

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
	bytes atomic.Int64
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
// collection; later arrivals re-check and often find the room already
// freed.
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

// evictTo removes the least recently accessed artifacts, coldest first
// in the recency index's order, until the ledger reaches target.
// Callers hold gcMu (one collection at a time); per-key disk locks
// serialise each removal against writers of the same cell, and the
// unlink re-stats inside the lock so a file replaced since the snapshot
// is accounted at its current size.  Holds no tracked lock itself, so
// the file I/O below cannot stall an unrelated critical section.
func (s *Store) evictTo(target int64) (evicted int, reclaimed int64) {
	if s.dir == "" {
		return 0, 0
	}
	for _, a := range s.index.coldestFirst() {
		if s.ledger.bytes.Load() <= target {
			break
		}
		mu := s.diskLock(a.key)
		n := s.unlink(a.artifactRef)
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

// artifactTier is the form of one on-disk artifact; with the artifact's
// key it determines the file's path.  The constants are in the order
// compareCandidates breaks an mtime tie within one key.
type artifactTier uint8

const (
	tierLegacy   artifactTier = iota // <dir>/<xx>/<key>.json
	tierManifest                     // <dir>/<xx>/<key>.json.z
	tierTrace                        // <dir>/traces/<xx>/<key>.ctz
)

// artifactRef names one on-disk artifact.  The index stores refs, not
// paths: a path is derived on demand by artifactPath.
type artifactRef struct {
	key  string
	tier artifactTier
}

// artifactPath returns the file path of ref.
func (s *Store) artifactPath(ref artifactRef) string {
	switch ref.tier {
	case tierLegacy:
		return s.legacyManifestPath(ref.key)
	case tierTrace:
		return s.tracePath(ref.key)
	}
	return s.manifestPath(ref.key)
}

// recency is the index of the store's on-disk artifacts: each one's
// mtime in unix nanoseconds, and the number of artifacts of each tier.
// An entry costs its map slot (a 24-byte ref and an 8-byte mtime) plus
// the key string it shares with the caller that recorded it.  mu is a
// leaf lock, never held across I/O.
type recency struct {
	mu     sync.Mutex
	mtimes map[artifactRef]int64
	counts [tierTrace + 1]int64
}

// record sets ref's mtime, adding the entry when it is new.
func (r *recency) record(ref artifactRef, mtime int64) {
	r.mu.Lock()
	n := len(r.mtimes)
	r.mtimes[ref] = mtime
	if len(r.mtimes) > n {
		r.counts[ref.tier]++
	}
	r.mu.Unlock()
}

// drop removes ref's entry, if any.
func (r *recency) drop(ref artifactRef) {
	r.mu.Lock()
	n := len(r.mtimes)
	delete(r.mtimes, ref)
	if len(r.mtimes) < n {
		r.counts[ref.tier]--
	}
	r.mu.Unlock()
}

// tierCounts returns the number of manifests (both forms) and of
// compiled-trace artifacts.
func (r *recency) tierCounts() (manifests, traces int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[tierLegacy] + r.counts[tierManifest], r.counts[tierTrace]
}

// candidate is one artifact of a GC snapshot.
type candidate struct {
	artifactRef
	mtime int64
}

// coldestFirst snapshots the index in eviction order (compareCandidates).
func (r *recency) coldestFirst() []candidate {
	r.mu.Lock()
	out := make([]candidate, 0, len(r.mtimes))
	//lint:allow detrand the snapshot is sorted below under a total order (mtime, then path), so map order cannot leak out.
	for ref, mtime := range r.mtimes {
		out = append(out, candidate{ref, mtime})
	}
	r.mu.Unlock()
	slices.SortFunc(out, compareCandidates)
	return out
}

// compareCandidates orders artifacts by mtime, then by path, without
// building the paths.  Every path starts with the store directory.  A
// manifest's continues with its shard and a trace's with "traces/", and
// 't' sorts after every hex digit, so traces follow manifests.  Within
// a tier the paths continue "<key[:2]>/<key><ext>": the shard is the
// key's prefix and each extension starts with '.', which sorts before
// every hex digit, so the paths compare as the keys do, and one key's
// ".json" before its ".json.z".
func compareCandidates(a, b candidate) int {
	if c := cmp.Compare(a.mtime, b.mtime); c != 0 {
		return c
	}
	if at, bt := a.tier == tierTrace, b.tier == tierTrace; at != bt {
		if at {
			return 1
		}
		return -1
	}
	if c := strings.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.tier, b.tier)
}

// recordMtime indexes ref at the mtime the file system reports for path.
// Callers hold ref's disk lock and have just written or re-timed the
// file; if it cannot be statted, the entry is left as it was.
func (s *Store) recordMtime(ref artifactRef, path string) {
	if st, err := os.Stat(path); err == nil {
		s.index.record(ref, st.ModTime().UnixNano())
	}
}

// touch bumps an artifact's AccessedAt (its mtime) after a disk hit,
// throttled so a hot artifact pays at most one utimes per
// TouchInterval, and re-indexes it at its new mtime.  Failures are
// ignored: the artifact may have been evicted between the read and the
// touch, which only costs recency.
func (s *Store) touch(ref artifactRef, path string) {
	if s.touchEvery < 0 {
		return
	}
	now := lifecycleNow()
	st, err := os.Stat(path)
	if err != nil || now.Sub(st.ModTime()) < s.touchEvery {
		return
	}
	mu := s.diskLock(ref.key)
	defer mu.Unlock()
	if err := os.Chtimes(path, now, now); err == nil {
		s.touchWrites.Add(1)
		s.recordMtime(ref, path)
	}
}
