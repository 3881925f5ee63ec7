// Package resultstore memoizes simulation results behind a two-tier,
// content-addressed cache.
//
// The simulator is deterministic by construction (the detrand analyzer
// enforces it), so a canonical hash of (core.Config, scheme name,
// benchmark name, code version) fully determines a core.Result.  The
// store exploits that:
//
//   - tier 1 is a bounded in-memory LRU serving repeated cells in
//     microseconds;
//   - tier 2 is an on-disk manifest directory — one canonical-JSON file
//     per cell, written atomically (temp file + rename) and tolerated
//     when torn: an unreadable or mismatched manifest is a miss, never a
//     failure;
//   - a singleflight layer collapses N concurrent requests for the same
//     cell into exactly one simulation, with every waiter receiving the
//     leader's result.
//
// The store implements core.Memoizer, so a CLI or server installs it by
// setting Config.Memo and every name-based grid evaluation becomes
// incremental.  Only successful cells (Result.Err == nil) are cached;
// errors — cancellations, panics, fault injections — are returned to the
// requesters that observed them and recomputed on the next request.
package resultstore

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cacheuniformity/internal/core"
)

// DefaultMemoryEntries bounds the in-memory tier when Options leaves it
// zero.  A Result for the paper's 1024-set geometry is ~25 KiB dominated
// by the three per-set slices, so the default tier tops out around
// 100 MiB.
const DefaultMemoryEntries = 4096

// Options configures Open.
type Options struct {
	// Dir is the manifest directory of the on-disk tier; created if
	// missing.  Empty means memory-only.
	Dir string
	// MemoryEntries bounds the in-memory LRU (0 = DefaultMemoryEntries,
	// negative = no in-memory tier).
	MemoryEntries int
	// Version tags every key and manifest; entries written under a
	// different version are invisible.  Empty means CodeVersion.
	Version string
	// CompileTraces enables the compiled-trace artifact tier: the store
	// becomes a core.TraceSource and installs itself on the engine calls
	// it leads, so benchmark streams are compiled once (persisted under
	// Dir/traces when Dir is set) and replayed from decoded batches.
	CompileTraces bool
	// QuotaBytes bounds the on-disk tier: manifests and compiled-trace
	// artifacts share the budget, enforced by LRU-by-AccessedAt disk GC.
	// 0 or negative means unbounded (the seed behaviour).
	QuotaBytes int64
	// TouchInterval throttles the AccessedAt mtime bumps that order disk
	// GC: a hot artifact's timestamp is refreshed at most once per
	// interval (0 = DefaultTouchInterval, negative = never touch, so GC
	// degrades to LRU-by-write-time).
	TouchInterval time.Duration
	// DeepScrub makes the startup scrub decode every on-disk artifact and
	// remove the unreadable ones, instead of only sweeping temp files,
	// orphans, and empty artifacts.
	DeepScrub bool
}

// Store is the two-tier content-addressed result cache.  All methods are
// safe for concurrent use.
type Store struct {
	dir     string
	version string

	// memMu guards the in-memory LRU alone.  The LRU is one global
	// recency order — its capacity is a store-wide bound, so it cannot
	// be striped without changing eviction semantics.  What CAN be
	// striped is the singleflight bookkeeping below, which used to share
	// this mutex and made every join/finish contend with every LRU
	// touch on the hot path.
	memMu sync.Mutex
	mem   *memLRU

	// locks is the per-key lock table (keylocks.go): each stripe holds
	// the in-flight computations of its keys and the disk lock
	// serialising their on-disk mutations.
	locks [lockStripes]keyStripe

	// traces is the compiled-trace artifact tier: the decoded in-memory
	// cache, filled from disk artifacts or by compiling (traces.go).  Nil
	// unless Options.CompileTraces was set.
	traces *core.MemTraceCache

	// Lifecycle configuration (lifecycle.go): quota over both artifact
	// tiers, touch throttle, and the deep-scrub switch.
	quota      int64
	touchEvery time.Duration
	deepScrub  bool

	// gcMu serialises disk GC scans; reservations that need room queue
	// here instead of scanning concurrently.  Ordering: gcMu may be held
	// while taking a disk lock, never the reverse (keylocks.go).
	gcMu sync.Mutex

	// ledger is the byte/object accounting of the on-disk tier, rebuilt
	// by the startup scrub and settled by every publish and unlink.
	ledger ledger

	// counters; atomics so Counters() never contends with the hot path.
	memHits       atomic.Uint64
	diskHits      atomic.Uint64
	misses        atomic.Uint64
	inflightWaits atomic.Uint64
	evictions     atomic.Uint64
	stores        atomic.Uint64
	persistErrors atomic.Uint64
	corrupt       atomic.Uint64
	traceCompiles atomic.Uint64
	traceDiskHits atomic.Uint64
	peerFills     atomic.Uint64
	gcRuns        atomic.Uint64
	gcEvictions   atomic.Uint64
	gcReclaimed   atomic.Uint64
	scrubRepairs  atomic.Uint64
	migrations    atomic.Uint64
	touchWrites   atomic.Uint64
	lockWaits     atomic.Uint64
	adminDeletes  atomic.Uint64
}

// Open validates the options, creates the manifest directory when needed,
// and returns a ready store.
func Open(opts Options) (*Store, error) {
	if opts.Version == "" {
		opts.Version = CodeVersion
	}
	if opts.MemoryEntries == 0 {
		opts.MemoryEntries = DefaultMemoryEntries
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
	}
	if opts.TouchInterval == 0 {
		opts.TouchInterval = DefaultTouchInterval
	}
	s := &Store{
		dir:        opts.Dir,
		version:    opts.Version,
		quota:      opts.QuotaBytes,
		touchEvery: opts.TouchInterval,
		deepScrub:  opts.DeepScrub,
	}
	if opts.MemoryEntries > 0 {
		s.mem = newMemLRU(opts.MemoryEntries)
	}
	if opts.CompileTraces {
		s.traces = core.NewMemTraceCache(0)
		s.traces.Compile = s.fillTrace
	}
	if s.dir != "" {
		// No request can race the startup scrub, so its walk is the
		// ledger: the directory is the single source of truth.
		rep := s.Scrub()
		s.ledger.bytes.Store(rep.BytesUsed)
		s.ledger.manifests.Store(rep.Manifests)
		s.ledger.traces.Store(rep.TraceArtifacts)
	}
	return s, nil
}

// memGet probes the in-memory tier under its lock.
func (s *Store) memGet(key string) (*lruEntry, bool) {
	if s.mem == nil {
		return nil, false
	}
	s.memMu.Lock()
	e, ok := s.mem.get(key)
	s.memMu.Unlock()
	return e, ok
}

// memAdd inserts into the in-memory tier under its lock, counts any
// evictions, and returns the new entry's rendering slot (nil without a
// memory tier), holding rendering when that is non-nil.
func (s *Store) memAdd(key string, res core.Result, rendering []byte) *Rendering {
	if s.mem == nil {
		return nil
	}
	s.memMu.Lock()
	e, evicted := s.mem.add(key, res, rendering)
	s.memMu.Unlock()
	if evicted > 0 {
		s.evictions.Add(uint64(evicted))
	}
	return &e.render
}

// Version returns the code-version tag baked into this store's keys.
func (s *Store) Version() string { return s.version }

// Dir returns the on-disk tier's directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

// Counters is a monotonic snapshot of the store's activity.
type Counters struct {
	// MemoryHits and DiskHits count lookups served by each tier.
	MemoryHits uint64 `json:"memory_hits"`
	DiskHits   uint64 `json:"disk_hits"`
	// Misses counts lookups that fell through both tiers.
	Misses uint64 `json:"misses"`
	// InflightWaits counts cell requests collapsed onto another
	// request's in-progress computation by the singleflight layer.
	// Waits on a trace compilation are not cell waits and are not
	// counted.
	InflightWaits uint64 `json:"inflight_waits"`
	// Evictions counts entries dropped from the in-memory LRU.
	Evictions uint64 `json:"evictions"`
	// Stores counts successful cell insertions.
	Stores uint64 `json:"stores"`
	// PersistErrors counts failed manifest writes (the entry stays served
	// from memory; the write is retried on the next recomputation).
	PersistErrors uint64 `json:"persist_errors"`
	// CorruptManifests counts on-disk manifests skipped as torn,
	// mismatched, or otherwise unreadable.  Corrupt trace artifacts count
	// here too: both are "a disk entry the store refused to trust".
	CorruptManifests uint64 `json:"corrupt_manifests"`
	// TraceCompiles counts benchmark streams compiled into trace
	// artifacts; TraceMemoryHits and TraceDiskHits count replays served
	// by the decoded tier and the on-disk artifacts respectively.
	TraceCompiles   uint64 `json:"trace_compiles"`
	TraceMemoryHits uint64 `json:"trace_memory_hits"`
	TraceDiskHits   uint64 `json:"trace_disk_hits"`
	// PeerFills counts cells filled from cluster peers' responses
	// (Store.Fill) rather than computed or loaded locally.
	PeerFills uint64 `json:"peer_fills"`
	// GCRuns counts disk garbage collections (background, on-demand, and
	// inline reservation-pressure runs); GCEvictions the artifacts they
	// removed; GCReclaimedBytes the bytes they freed.
	GCRuns           uint64 `json:"gc_runs"`
	GCEvictions      uint64 `json:"gc_evictions"`
	GCReclaimedBytes uint64 `json:"gc_reclaimed_bytes"`
	// ScrubRepairs counts files the startup scrub removed: temp orphans,
	// misplaced artifacts, unreadable manifests.
	ScrubRepairs uint64 `json:"scrub_repairs"`
	// Migrations counts legacy uncompressed manifests rewritten in place
	// as compressed ones.
	Migrations uint64 `json:"migrations"`
	// TouchWrites counts AccessedAt mtime bumps that reached disk (the
	// throttle absorbs the rest).
	TouchWrites uint64 `json:"touch_writes"`
	// DiskLockWaits counts disk-stripe acquisitions that had to block —
	// lock-stripe contention on the artifact keyspace.
	DiskLockWaits uint64 `json:"disk_lock_waits"`
	// AdminDeletes counts cells removed through DeleteCell.
	AdminDeletes uint64 `json:"admin_deletes"`
}

// Counters returns a snapshot of the store's counters.
func (s *Store) Counters() Counters {
	var traceMemHits uint64
	if s.traces != nil {
		_, traceMemHits = s.traces.Stats()
	}
	return Counters{
		MemoryHits:       s.memHits.Load(),
		DiskHits:         s.diskHits.Load(),
		Misses:           s.misses.Load(),
		InflightWaits:    s.inflightWaits.Load(),
		Evictions:        s.evictions.Load(),
		Stores:           s.stores.Load(),
		PersistErrors:    s.persistErrors.Load(),
		CorruptManifests: s.corrupt.Load(),
		TraceCompiles:    s.traceCompiles.Load(),
		TraceMemoryHits:  traceMemHits,
		TraceDiskHits:    s.traceDiskHits.Load(),
		PeerFills:        s.peerFills.Load(),
		GCRuns:           s.gcRuns.Load(),
		GCEvictions:      s.gcEvictions.Load(),
		GCReclaimedBytes: s.gcReclaimed.Load(),
		ScrubRepairs:     s.scrubRepairs.Load(),
		Migrations:       s.migrations.Load(),
		TouchWrites:      s.touchWrites.Load(),
		DiskLockWaits:    s.lockWaits.Load(),
		AdminDeletes:     s.adminDeletes.Load(),
	}
}
