package resultstore

import (
	"container/list"

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
// after memMu is released.
type memLRU struct {
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	res core.Result
	// render is the reply rendering of res: the canonical JSON of res
	// without PerSet (report.CanonicalJSON), indented by json.Indent with
	// prefix and indent "  ", as it sits under "result" in a /v1/cell
	// reply.  In that form it is byte for byte the result's value in its
	// manifest with the PerSet member cut out (AppendResult), and every
	// insertion brings it: a computed or peer-filled cell the rendering
	// its manifest was built from (encodeManifest, or renderResult without
	// a disk tier), a disk hit the bytes of the manifest it read
	// (parseCanonical) or, for a manifest in another layout, a fresh
	// rendering (decodeManifest).  Hits on the entry reuse the bytes, which
	// are shared: callers must not modify them.  nil only for a result the
	// codec cannot encode (a non-finite value).
	render []byte
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

// add inserts (or replaces) the entry for key with res and its
// rendering, and reports how many entries were evicted to make room (0
// or 1).
func (l *memLRU) add(key string, res core.Result, rendering []byte) int {
	e := &lruEntry{key: key, res: res, render: rendering}
	if el, ok := l.items[key]; ok {
		el.Value = e
		l.order.MoveToFront(el)
		return 0
	}
	l.items[key] = l.order.PushFront(e)
	if l.order.Len() <= l.max {
		return 0
	}
	oldest := l.order.Back()
	l.order.Remove(oldest)
	delete(l.items, oldest.Value.(*lruEntry).key)
	return 1
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
