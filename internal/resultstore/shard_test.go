package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"cacheuniformity/internal/core"
)

// Stripe selection must be a pure function of the key: join and finish
// derive the stripe independently, so disagreement would strand flights.
func TestShardForStable(t *testing.T) {
	s, err := Open(Options{MemoryEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*keyStripe]bool{}
	for i := 0; i < 256; i++ {
		sum := sha256.Sum256([]byte{byte(i)})
		key := hex.EncodeToString(sum[:])
		st := s.stripeFor(key)
		if st != s.stripeFor(key) {
			t.Fatalf("stripeFor(%q) is not stable", key)
		}
		seen[st] = true
	}
	// 256 hashed keys across 64 stripes: a hash that collapsed onto a
	// handful of stripes would defeat the striping.
	if len(seen) < lockStripes/2 {
		t.Fatalf("256 keys landed on only %d of %d stripes", len(seen), lockStripes)
	}
}

// Leaders for distinct keys must never collapse onto each other: every
// key elects exactly one leader regardless of which stripe it lands on.
func TestJoinDistinctKeysAllLead(t *testing.T) {
	s, err := Open(Options{MemoryEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 64
	var wg sync.WaitGroup
	leaders := make([]bool, keys)
	flights := make([]*flight, keys)
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fl, leader := s.join(fmt.Sprintf("key-%03d", i))
			leaders[i], flights[i] = leader, fl
		}(i)
	}
	wg.Wait()
	for i, led := range leaders {
		if !led {
			t.Fatalf("key-%03d did not elect its own leader", i)
		}
	}
	for i := 0; i < keys; i++ {
		s.finish(fmt.Sprintf("key-%03d", i), flights[i], core.Config{}, core.Result{})
	}
	checkInvariants(t, s)
}
