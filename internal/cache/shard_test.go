package cache

import (
	"reflect"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/rng"
	"cacheuniformity/internal/trace"
)

func shardTestCache(t *testing.T, l addr.Layout, idx indexing.Func) *Cache {
	t.Helper()
	c, err := New(Config{Layout: l, Ways: 1, Index: idx, WriteAllocate: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// replayShardedForTest runs the full two-phase protocol over tr with the
// given segment length, reusing one scratch (exercising Reset) to mirror
// what a worker pool does.
func replayShardedForTest(t *testing.T, c *Cache, tr trace.Trace, segLen int) {
	t.Helper()
	ct := trace.CompileTrace(tr, segLen)
	scratch := c.NewDMScratch()
	for s := 0; s < ct.Segments(); s++ {
		scratch.Reset()
		if err := c.ReplaySegmentScratch(ct.SegmentReader(s, s+1), nil, scratch); err != nil {
			t.Fatalf("segment %d: %v", s, err)
		}
		c.StitchSegment(scratch)
	}
}

func assertShardMatchesSerial(t *testing.T, mk func() *Cache, tr trace.Trace, segLen int) {
	t.Helper()
	serial := mk()
	if _, err := RunBatched(serial, tr.NewBatchReader(), nil); err != nil {
		t.Fatal(err)
	}
	sharded := mk()
	replayShardedForTest(t, sharded, tr, segLen)

	if serial.store.counters != sharded.store.counters {
		t.Fatalf("counters diverge\nserial:  %+v\nsharded: %+v", serial.store.counters, sharded.store.counters)
	}
	if !reflect.DeepEqual(serial.store.perSet, sharded.store.perSet) {
		t.Fatal("per-set counts diverge")
	}
	if !reflect.DeepEqual(serial.store.lines, sharded.store.lines) {
		t.Fatal("final line states diverge")
	}
}

// TestShardReplayDirectedBoundaries pins the stitch's boundary cases by
// hand: a dirty line crossing a segment boundary into a hit, then being
// evicted clean locally (the carried-writeback correction), and the prior
// line's own eviction writeback.
func TestShardReplayDirectedBoundaries(t *testing.T) {
	l := addr.MustLayout(1, 32, 32)
	a := addr.Addr(0)       // set 0, block 0
	b := addr.Addr(32 * 32) // set 0, block 32 (conflicts with a)
	x := addr.Addr(32)      // set 1
	w := func(ad addr.Addr) trace.Access { return trace.Access{Addr: ad, Kind: trace.Write} }
	r := func(ad addr.Addr) trace.Access { return trace.Access{Addr: ad, Kind: trace.Read} }

	cases := map[string]struct {
		tr     trace.Trace
		segLen int
	}{
		// Boundary miss evicts the prior dirty line: stitch owes the
		// writeback of the previous segment's final state.
		"boundary evicts dirty prior": {trace.Trace{w(a), r(a), r(b), r(a)}, 2},
		// Boundary hit on a dirty prior line; residency 0 later evicted
		// while locally clean: stitch owes the carried writeback.
		"carried dirt evicted clean": {trace.Trace{w(a), r(a), r(a), r(a), r(b), r(a)}, 3},
		// Carried dirt where residency 0 survives the segment: the final
		// line must come out dirty so a later eviction writes back.
		"carried dirt survives": {trace.Trace{w(a), r(x), r(a), r(x), r(b), r(b)}, 2},
		// Store at the boundary first touch: dirty regardless of carry.
		"store first touch": {trace.Trace{r(a), r(a), w(a), r(b), r(b), r(a)}, 2},
		// Residency 0 dirtied locally then evicted: writeback already
		// counted in the scratch, stitch must not double it.
		"locally dirty res0": {trace.Trace{w(a), r(a), r(a), w(a), r(b), r(a)}, 3},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			assertShardMatchesSerial(t, func() *Cache { return shardTestCache(t, l, nil) }, tc.tr, tc.segLen)
		})
	}
}

// TestShardReplayDifferential is the windowed-exact engine's main
// warrant: for random mixes of loads and stores over a small conflicting
// set space, the two-phase replay must reproduce serial replay's
// counters, per-set counts, and final line states exactly — across
// segment lengths that tile the trace evenly, unevenly, and degenerately
// (segLen 1: every access is a boundary).
func TestShardReplayDifferential(t *testing.T) {
	l := addr.MustLayout(1, 32, 32)
	src := rng.New(20110913)
	for trial := 0; trial < 20; trial++ {
		n := 200 + src.Intn(800)
		tr := make(trace.Trace, n)
		for i := range tr {
			k := trace.Read
			if src.Float64() < 0.35 {
				k = trace.Write
			}
			// 4 blocks per set over all 32 sets: heavy conflict traffic.
			tr[i] = trace.Access{
				Addr: addr.Addr(uint64(src.Intn(4*32)) * 32),
				Kind: k,
			}
		}
		for _, segLen := range []int{1, 7, 64, 100, n, n + 50} {
			assertShardMatchesSerial(t, func() *Cache { return shardTestCache(t, l, nil) }, tr, segLen)
		}
	}
}

// TestShardReplayNonTrivialIndex runs the differential over a
// non-conventional index function (XOR), since Shardable schemes include
// every pure-index direct-mapped kind, not just modulo.
func TestShardReplayNonTrivialIndex(t *testing.T) {
	l := addr.MustLayout(1, 32, 32)
	idx := indexing.NewXOR(l)
	src := rng.New(7)
	tr := make(trace.Trace, 1500)
	for i := range tr {
		k := trace.Read
		if src.Float64() < 0.25 {
			k = trace.Write
		}
		tr[i] = trace.Access{Addr: addr.Addr(src.Uint64() % (1 << 14)), Kind: k}
	}
	assertShardMatchesSerial(t, func() *Cache { return shardTestCache(t, l, idx) }, tr, 97)
}

func TestShardReplayable(t *testing.T) {
	l := addr.MustLayout(1, 32, 32)
	dm, err := New(Config{Layout: l, Ways: 1, WriteAllocate: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ShardReplayable(dm); !ok {
		t.Error("direct-mapped write-back write-allocate cache rejected")
	}
	twoWay, err := New(Config{Layout: l, Ways: 2, WriteAllocate: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ShardReplayable(twoWay); ok {
		t.Error("2-way cache accepted")
	}
	wt, err := New(Config{Layout: l, Ways: 1, WriteAllocate: true, WriteThrough: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ShardReplayable(wt); ok {
		t.Error("write-through cache accepted")
	}
	na, err := New(Config{Layout: l, Ways: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ShardReplayable(na); ok {
		t.Error("write-no-allocate cache accepted")
	}
	if _, ok := ShardReplayable(nil); ok {
		t.Error("nil model accepted")
	}
}
