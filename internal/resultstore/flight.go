package resultstore

import "cacheuniformity/internal/core"

// flight is one in-progress computation of a cell.  The leader that
// created it closes done exactly once with res populated; waiters block
// on done (or their own context).  This is a hand-rolled singleflight:
// the container has no x/sync, and the store needs context-aware waiting
// anyway, which golang.org/x/sync/singleflight does not offer.
type flight struct {
	done   chan struct{}
	res    core.Result
	render *Rendering // the memory entry's slot; nil for a failed res
}

// join returns the flight for key, creating it when absent.  leader is
// true for the caller that must compute the cell and finish the flight;
// every other caller gets leader == false and must wait on fl.done.
// Flights live in the lock table's per-stripe maps, so joins for
// different keys contend only within their stripe.
func (s *Store) join(key string) (fl *flight, leader bool) {
	st := s.stripeFor(key)
	st.flightMu.Lock()
	defer st.flightMu.Unlock()
	if existing, ok := st.flights[key]; ok {
		return existing, false
	}
	if st.flights == nil {
		st.flights = make(map[string]*flight)
	}
	fl = &flight{done: make(chan struct{})}
	st.flights[key] = fl
	return fl, true
}

// finish publishes the leader's result: waiters are released, the flight
// is retired, and — only for successful results — both tiers are
// populated.  Errors (cancellation, injected faults, panics) are never
// cached; the next request recomputes.  The manifest is written before
// done is closed, so once any request for a cell returns, the cell is
// durable.
func (s *Store) finish(key string, fl *flight, cfg core.Config, res core.Result) {
	fl.res = res

	// Populate memory before retiring the flight: a request arriving in
	// the gap hits the LRU instead of missing both the flight and the
	// tiers and recomputing the cell.
	if res.Err == nil {
		fl.render = s.memAdd(key, res, nil)
	}
	s.retire(key)

	if res.Err == nil {
		s.stores.Add(1)
		if s.dir != "" {
			if err := s.persist(key, cfg, res); err != nil {
				// Persist failures degrade the store to memory-only for
				// this cell rather than failing the request; the counter
				// is the observable signal.
				s.persistErrors.Add(1)
			}
		}
	}

	close(fl.done)
}

// recheck is a new leader's second look at the memory tier.  A request
// can miss the tiers before the previous leader's memAdd and join after
// that leader's finish retired its flight; finish fills memory before it
// retires the flight, so the cell is there unless the memory tier is
// off or has already evicted it.  On a hit the flight is released with
// the stored result, and the cell is neither computed nor stored a
// second time.
func (s *Store) recheck(key string, fl *flight) (Served, bool) {
	e, ok := s.memGet(key)
	if !ok {
		return Served{}, false
	}
	s.memHits.Add(1)
	fl.res, fl.render = e.res, &e.render
	s.retire(key)
	close(fl.done)
	return Served{Result: e.res, Origin: OriginMemory, Rendering: &e.render}, true
}

// retire removes key's flight from the lock table.
func (s *Store) retire(key string) {
	st := s.stripeFor(key)
	st.flightMu.Lock()
	delete(st.flights, key)
	st.flightMu.Unlock()
}
