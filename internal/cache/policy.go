// Package cache implements the trace-driven cache models that underlie
// every experiment: set-associative caches with pluggable replacement and
// pluggable index functions, a fully-associative bound, and a Jouppi-style
// victim cache.
//
// The models are deliberately storage-free: a cache line records only the
// block address it holds.  Because the studied index functions are not all
// invertible, lines compare full block addresses rather than tag fields;
// this is behaviourally identical to hardware that stores enough tag bits
// for its indexing scheme.
package cache

// Policy creates per-set replacement state.  Implementations must be
// deterministic given their construction parameters.
type Policy interface {
	// Name identifies the policy in reports ("lru", "fifo", ...).
	Name() string
	// NewSet returns fresh replacement state for one set of the given
	// associativity.
	NewSet(ways int) SetPolicy
}

// SetPolicy is the replacement state of a single cache set.  The cache
// calls Fill when a block is inserted into a way and Touch on every hit;
// Victim is consulted only when the set is full.  Fills target the lowest
// empty way while the set is filling, then the policy's victim.
type SetPolicy interface {
	// Touch records a hit on the given way.
	Touch(way int)
	// Fill records insertion of a new block into the given way.
	Fill(way int)
	// Victim selects the way to evict from a full set.
	Victim() int
}

// LRU is least-recently-used replacement, the paper's policy for the L2,
// the B-cache clusters and the set-associative comparison points.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "lru" }

// NewSet implements Policy.
func (LRU) NewSet(ways int) SetPolicy {
	links := make([]int32, 2*ways) // one allocation backs both link arrays
	s := &lruSet{next: links[:ways:ways], prev: links[ways:]}
	for i := 0; i < ways; i++ {
		s.next[i] = int32(i + 1)
		s.prev[i] = int32(i - 1)
	}
	s.next[ways-1] = -1
	s.head, s.tail = 0, int32(ways-1)
	return s
}

// lruSet keeps ways ordered most-recent-first as an intrusive doubly-linked
// list over way numbers (initially 0 = MRU … ways-1 = LRU, matching the
// fill order).  Touch, Fill and Victim are all O(1); that is irrelevant at
// the usual associativities (≤ 16) but decisive for the fully-associative
// envelope, where ways is the whole cache.
type lruSet struct {
	next, prev []int32 // recency links; -1 terminates both ends
	head, tail int32   // head = MRU, tail = LRU
}

func (s *lruSet) Touch(way int) {
	if way < 0 || way >= len(s.next) {
		return // unknown way: ignore, as the scan-based version did
	}
	w := int32(way)
	if w == s.head {
		return
	}
	p, n := s.prev[w], s.next[w]
	s.next[p] = n // p cannot be -1: w is not the head
	if n == -1 {
		s.tail = p
	} else {
		s.prev[n] = p
	}
	s.prev[w] = -1
	s.next[w] = s.head
	s.prev[s.head] = w
	s.head = w
}

func (s *lruSet) Fill(way int) { s.Touch(way) }

func (s *lruSet) Victim() int { return int(s.tail) }

// WaysValidator is implemented by policies that only support certain
// associativities.  Constructors check it up front so an unsupported
// combination surfaces as a config error instead of a panic deep inside
// set allocation.
type WaysValidator interface {
	ValidateWays(ways int) error
}
