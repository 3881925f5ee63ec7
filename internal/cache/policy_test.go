package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"cacheuniformity/internal/rng"
)

func TestLRUSetSequence(t *testing.T) {
	s := LRU{}.NewSet(4)
	// Initial order 0..3; victim is 3.
	if v := s.Victim(); v != 3 {
		t.Errorf("initial victim = %d", v)
	}
	s.Touch(3)
	if v := s.Victim(); v != 2 {
		t.Errorf("victim after touch(3) = %d", v)
	}
	s.Touch(2)
	s.Touch(1)
	s.Touch(0)
	if v := s.Victim(); v != 3 {
		t.Errorf("victim after touching all = %d", v)
	}
}

func TestLRUVictimIsLeastRecent(t *testing.T) {
	// Property: after touching a random sequence, the victim is the way
	// whose last touch is oldest (with untouched ways oldest of all).
	f := func(touches []uint8) bool {
		const ways = 4
		s := LRU{}.NewSet(ways)
		lastTouch := [ways]int{-4, -3, -2, -1} // initial order: 0 oldest? no:
		// NewSet initialises order [0..3] with 3 the victim, i.e. 3 least
		// recent.  Encode that as older timestamps for higher ways.
		for i := 0; i < ways; i++ {
			lastTouch[i] = -1 - i
		}
		for step, raw := range touches {
			w := int(raw) % ways
			s.Touch(w)
			lastTouch[w] = step
		}
		victim := s.Victim()
		for w := 0; w < ways; w++ {
			if lastTouch[w] < lastTouch[victim] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLRUTouchUnknownWayIgnored(t *testing.T) {
	s := LRU{}.NewSet(2)
	s.Touch(99) // out of range: must not corrupt state
	if v := s.Victim(); v != 1 {
		t.Errorf("victim = %d after bogus touch", v)
	}
}

func TestFIFOAdvancesOnlyOnFill(t *testing.T) {
	s := FIFO{}.NewSet(3)
	if s.Victim() != 0 {
		t.Error("initial FIFO victim != 0")
	}
	s.Touch(0) // hits do not advance
	if s.Victim() != 0 {
		t.Error("Touch advanced FIFO")
	}
	s.Fill(0)
	if s.Victim() != 1 {
		t.Error("Fill did not advance FIFO")
	}
	s.Fill(1)
	s.Fill(2)
	if s.Victim() != 0 {
		t.Error("FIFO did not wrap")
	}
}

func TestPLRUVictimAlwaysValidWay(t *testing.T) {
	f := func(ops []uint8) bool {
		s := PLRU{}.NewSet(8)
		for _, op := range ops {
			if op%2 == 0 {
				s.Touch(int(op/2) % 8)
			} else {
				v := s.Victim()
				if v < 0 || v >= 8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPLRUVictimNotMostRecent(t *testing.T) {
	s := PLRU{}.NewSet(4)
	for w := 0; w < 4; w++ {
		s.Fill(w)
	}
	s.Touch(2)
	if v := s.Victim(); v == 2 {
		t.Error("PLRU chose the most recently touched way")
	}
}

func TestPoliciesNames(t *testing.T) {
	if (LRU{}).Name() != "lru" || (FIFO{}).Name() != "fifo" ||
		(Random{}).Name() != "random" || (PLRU{}).Name() != "plru" {
		t.Error("policy names wrong")
	}
}

func TestRandomVictimInRange(t *testing.T) {
	s := Random{Seed: 3}.NewSet(5)
	for i := 0; i < 1000; i++ {
		if v := s.Victim(); v < 0 || v >= 5 {
			t.Fatalf("random victim %d out of range", v)
		}
	}
}

func TestSingleWayPolicies(t *testing.T) {
	for _, p := range []Policy{LRU{}, FIFO{}, Random{Seed: 1}, PLRU{}} {
		s := p.NewSet(1)
		s.Touch(0)
		s.Fill(0)
		if v := s.Victim(); v != 0 {
			t.Errorf("%s: single-way victim = %d", p.Name(), v)
		}
	}
}

// The replacement policies below are not used by any model the programs
// build (the paper uses LRU throughout); they exercise the Policy and
// WaysValidator seams of the cache constructors.

// FIFO evicts in fill order, ignoring hits.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// NewSet implements Policy.
func (FIFO) NewSet(ways int) SetPolicy { return &fifoSet{ways: ways} }

type fifoSet struct {
	ways int
	next int
}

func (s *fifoSet) Touch(int) {}

func (s *fifoSet) Fill(way int) {
	// Fills land on empty ways in ascending order and then on Victim, so
	// the queue pointer simply follows the fill position.
	if way == s.next {
		s.next = (s.next + 1) % s.ways
	}
}

func (s *fifoSet) Victim() int { return s.next }

// Random evicts a uniformly random way, seeded for reproducibility.
type Random struct {
	// Seed makes the stream reproducible; two caches with the same seed
	// evict identically.
	Seed uint64
}

// Name implements Policy.
func (Random) Name() string { return "random" }

// NewSet implements Policy.
func (r Random) NewSet(ways int) SetPolicy {
	return &randomSet{ways: ways, src: rng.New(r.Seed)}
}

type randomSet struct {
	ways int
	src  *rng.Source
}

func (s *randomSet) Touch(int) {}

func (s *randomSet) Fill(int) {}

func (s *randomSet) Victim() int { return s.src.Intn(s.ways) }

// ValidateWays implements WaysValidator: the replacement tree needs a
// power-of-two associativity.
func (PLRU) ValidateWays(ways int) error {
	if ways&(ways-1) != 0 {
		return fmt.Errorf("cache: PLRU requires power-of-two associativity, got %d ways", ways)
	}
	return nil
}

// PLRU is tree-based pseudo-LRU, the common hardware approximation.  Ways
// must be a power of two.
type PLRU struct{}

// Name implements Policy.
func (PLRU) Name() string { return "plru" }

// NewSet implements Policy.  The power-of-two requirement is validated by
// every constructor via WaysValidator; reaching here with a bad count is a
// programmer error, so the panic stays as an invariant check.
func (PLRU) NewSet(ways int) SetPolicy {
	if ways&(ways-1) != 0 {
		panic("cache: PLRU requires power-of-two associativity")
	}
	return &plruSet{ways: ways, bits: make([]bool, ways)} // bits[1..ways-1] used
}

type plruSet struct {
	ways int
	bits []bool // heap-indexed tree; bits[i] false → left subtree is older
}

func (s *plruSet) Touch(way int) {
	// Walk from root to leaf, pointing each node away from the touched way.
	node := 1
	for width := s.ways / 2; width >= 1; width /= 2 {
		right := way/width%2 == 1
		s.bits[node] = !right // point to the *other* side as older
		node = node*2 + b2i(right)
	}
}

func (s *plruSet) Fill(way int) { s.Touch(way) }

func (s *plruSet) Victim() int {
	node := 1
	way := 0
	for width := s.ways / 2; width >= 1; width /= 2 {
		if s.bits[node] { // true → left is newer, evict from... see Touch
			node = node*2 + 1
			way += width
		} else {
			node = node * 2
		}
	}
	return way
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
