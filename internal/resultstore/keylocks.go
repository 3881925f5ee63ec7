package resultstore

import "sync"

// The store's one lock table.
//
// Every per-key lock lives in one striped table, indexed by one hash of
// the key.  An entry carries two independent locks for the keys that
// hash to it:
//
//   - flightMu guards the singleflight map (flight.go): joins and
//     finishes for keys in different stripes never touch the same lock.
//   - disk serialises every mutation of a key's on-disk artifacts —
//     manifest publish, legacy migration, AccessedAt touch, admin
//     delete, GC eviction — so the size ledger never double-counts a
//     replace/remove race and a rename can never interleave with an
//     unlink of the same cell.  Reads stay lockless: a reader racing a
//     rename sees the old or the new file (the rename is atomic), and
//     one racing an unlink sees a miss — both correct outcomes, so the
//     hot path pays nothing.
//
// Lock order: gcMu → disk.  A quota reservation may run GC, which takes
// gcMu and then disk stripes, so a writer reserves before it takes its
// own stripe and never holds a disk stripe while waiting for gcMu.
// flightMu, memMu, the recency index's mutex and the trace cache's
// mutex are leaf locks: nothing else is acquired under them and they
// are never held across I/O.
//
// The table is sized for the disk locks, which are held across real
// file I/O, so collisions are paid in milliseconds rather than
// nanoseconds.  A power of two so the hash maps to a stripe with a mask.
const lockStripes = 64

// keyStripe is one entry of the lock table.  Its flight map is
// allocated by the first join, so opening a store costs no map per
// stripe.
type keyStripe struct {
	flightMu sync.Mutex
	flights  map[string]*flight

	disk sync.Mutex
}

// stripeFor maps a key onto its lock-table entry (FNV-1a; the keys are
// hex SHA-256 digests, so any mixing hash spreads them).
func (s *Store) stripeFor(key string) *keyStripe {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.locks[h&(lockStripes-1)]
}

// diskLock acquires the disk lock guarding key's on-disk artifacts and
// returns it locked for the caller to unlock — the one lock-returning
// helper in the repo, so every disk mutation funnels contention through
// the same counter.  An immediate TryLock failure is counted before
// blocking, so the lock-stripe families in /v1/metrics show when
// unrelated keys start colliding.
//
//lint:allow lockcheck intentionally returns the stripe locked; every caller unlocks via mu := s.diskLock(k); defer mu.Unlock()
func (s *Store) diskLock(key string) *sync.Mutex {
	mu := &s.stripeFor(key).disk
	if mu.TryLock() {
		return mu
	}
	s.lockWaits.Add(1)
	mu.Lock()
	return mu
}
