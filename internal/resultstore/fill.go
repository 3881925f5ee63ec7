package resultstore

import (
	"errors"

	"cacheuniformity/internal/core"
)

// Peek probes both tiers for key without counting a miss: absence is an
// expected outcome for a cell this node does not own, not a store
// shortfall.  Hits count (and promote) exactly as in a normal lookup.
// The server uses PeekCell before forwarding, so a previously
// peer-filled cell is served locally without touching the network.
func (s *Store) Peek(key string) (core.Result, Origin, bool) {
	c, ok := s.PeekCell(key)
	return c.Result, c.Origin, ok
}

// PeekCell is Peek that also returns the hit entry's rendering slot.  A
// disk hit's is the slot of the memory entry it was promoted to, holding
// the manifest's rendering when it has one; without a memory tier that
// rendering comes in a slot of its own, for this hit alone.
func (s *Store) PeekCell(key string) (Served, bool) {
	if e, ok := s.memGet(key); ok {
		s.memHits.Add(1)
		return Served{Result: e.res, Origin: OriginMemory, Rendering: &e.render}, true
	}
	if s.dir != "" {
		if res, rendering, ok := s.loadManifest(key); ok {
			s.diskHits.Add(1)
			slot := s.memAdd(key, res, rendering)
			if slot == nil && rendering != nil {
				slot = new(Rendering)
				slot.Store(rendering)
			}
			return Served{Result: res, Origin: OriginDisk, Rendering: slot}, true
		}
	}
	return Served{}, false
}

// Fill inserts an externally computed result — in practice, a cluster
// peer's response — into both tiers under key.  The caller owns the key
// derivation (the server recomputes it from the request's canonical
// declarations, never trusting the peer's echo), so Fill only enforces
// the store's own invariant: failed results are never cached.  A
// manifest persist failure degrades the fill to memory-only, mirroring
// finish.
func (s *Store) Fill(key string, cfg core.Config, res core.Result) error {
	if res.Err != nil {
		return errors.New("resultstore: refusing to fill a failed result")
	}
	if res.Scheme == "" || res.Benchmark == "" {
		return errors.New("resultstore: refusing to fill a result without scheme and benchmark names")
	}
	s.peerFills.Add(1)
	s.memAdd(key, res, nil)
	s.stores.Add(1)
	if s.dir != "" {
		if err := s.persist(key, cfg, res); err != nil {
			s.persistErrors.Add(1)
		}
	}
	return nil
}
