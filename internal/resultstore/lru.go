package resultstore

import (
	"container/list"
	"sync/atomic"

	"cacheuniformity/internal/core"
)

// memLRU is the in-memory tier: a fixed-capacity map + intrusive list
// LRU.  Not safe for concurrent use; the Store serialises access under
// its dedicated memMu (the recency order and the capacity bound are
// store-wide, so unlike the singleflight map this structure cannot be
// striped).  Values are core.Result copies — the per-set slices are
// shared with callers, which is safe because nothing in the repo mutates
// a Result after it is produced.  An entry is never mutated once
// inserted (a refresh replaces it), so a caller may keep using an entry
// after memMu is released; only its rendering slot changes, atomically.
type memLRU struct {
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key    string
	res    core.Result
	render Rendering
}

// Rendering is the byte slot of one memory-tier entry holding the reply
// rendering of its result: the canonical JSON of the result without
// PerSet (report.CanonicalJSON), indented by json.Indent with prefix and
// indent "  ", as it sits under "result" in a /v1/cell reply.  In that
// form it is byte for byte the result's value in the entry's manifest
// with the PerSet member cut out, so two writers fill the slot: a disk
// hit with the bytes of the manifest it read (parseCanonical), and the
// server on the first hit of an entry that has none (its renderResult).
// Later hits on the entry reuse the bytes.  The store drops them with
// their entry (LRU eviction, DeleteCell, a refresh by a later insert of
// the same key).  A nil *Rendering, returned when no slot holds the
// result, loads nothing and discards what is stored.
type Rendering struct{ b atomic.Pointer[[]byte] }

// Load returns the stored bytes, or nil when none are stored yet.  The
// bytes are shared: callers must not modify them.
func (r *Rendering) Load() []byte {
	if r == nil {
		return nil
	}
	if p := r.b.Load(); p != nil {
		return *p
	}
	return nil
}

// Store attaches b to the entry.  Concurrent stores are safe; the last
// one wins, so every caller must store the same bytes for one entry.
func (r *Rendering) Store(b []byte) {
	if r != nil {
		r.b.Store(&b)
	}
}

func newMemLRU(max int) *memLRU {
	return &memLRU{
		max:   max,
		order: list.New(),
		items: make(map[string]*list.Element, max),
	}
}

// get returns the cached entry and refreshes its recency.
func (l *memLRU) get(key string) (*lruEntry, bool) {
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry), true
}

// add inserts (or replaces) the entry, with rendering in its slot when
// that is non-nil, returns it, and reports how many entries were evicted
// to make room (0 or 1).
func (l *memLRU) add(key string, res core.Result, rendering []byte) (*lruEntry, int) {
	e := &lruEntry{key: key, res: res}
	if rendering != nil {
		e.render.Store(rendering)
	}
	if el, ok := l.items[key]; ok {
		el.Value = e
		l.order.MoveToFront(el)
		return e, 0
	}
	l.items[key] = l.order.PushFront(e)
	if l.order.Len() <= l.max {
		return e, 0
	}
	oldest := l.order.Back()
	l.order.Remove(oldest)
	delete(l.items, oldest.Value.(*lruEntry).key)
	return e, 1
}

// remove drops the entry if present, reporting whether it existed.
func (l *memLRU) remove(key string) bool {
	el, ok := l.items[key]
	if !ok {
		return false
	}
	l.order.Remove(el)
	delete(l.items, key)
	return true
}

// len reports the current entry count.
func (l *memLRU) len() int { return l.order.Len() }
