package cache

import (
	"reflect"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/rng"
	"cacheuniformity/internal/trace"
)

// RefDM is the tests' reference direct-mapped, write-back,
// write-allocate cache: one line per set, each access placed by a rule the
// test supplies, written for clarity rather than speed.  The external
// tests of the models that keep their lines in a DirectMapped store use it
// too.
type RefDM struct {
	place  func(trace.Access) int
	l      addr.Layout
	lines  []Line
	Ctr    Counters
	PerSet PerSet
}

// NewRefDM returns an empty reference cache that places each access with
// place.
func NewRefDM(l addr.Layout, place func(trace.Access) int) *RefDM {
	return &RefDM{place: place, l: l, lines: make([]Line, l.Sets()), PerSet: NewPerSet(l.Sets())}
}

// Access replays one access and returns its outcome.
func (r *RefDM) Access(a trace.Access) AccessResult {
	set := r.place(a)
	block := r.l.Block(a.Addr)
	store := a.Kind == trace.Write
	ln := &r.lines[set]
	var res AccessResult
	switch {
	case ln.Valid && ln.Block == block:
		res = AccessResult{Hit: true, HitCycles: 1}
		ln.Dirty = ln.Dirty || store
	case ln.Valid:
		res = AccessResult{Evicted: true, EvictedBlock: ln.Block, Writeback: ln.Dirty}
		*ln = Line{Valid: true, Block: block, Dirty: store}
	default:
		*ln = Line{Valid: true, Block: block, Dirty: store}
	}
	r.Ctr.Add(res)
	r.PerSet.Accesses[set]++
	if res.Hit {
		r.PerSet.Hits[set]++
	} else {
		r.PerSet.Misses[set]++
	}
	return res
}

// Flush empties every line and keeps the counters.
func (r *RefDM) Flush() { clear(r.lines) }

func (r *RefDM) lookup(a addr.Addr) bool {
	ln := r.lines[r.place(trace.Access{Addr: a})]
	return ln.Valid && ln.Block == r.l.Block(a)
}

func (r *RefDM) utilization() float64 {
	valid := 0
	for _, ln := range r.lines {
		if ln.Valid {
			valid++
		}
	}
	return float64(valid) / float64(len(r.lines))
}

// pureIndexFuncs returns one index function of each pure-index kind the
// kernel serves.  Prime modulo reaches fewer sets than the layout has.
func pureIndexFuncs(t *testing.T, l addr.Layout) map[string]indexing.Func {
	t.Helper()
	om, err := indexing.NewOddMultiplier(l, 21)
	if err != nil {
		t.Fatal(err)
	}
	givargis, err := indexing.NewBitSelection("givargis", []uint{5, 7, 9, 11, 13, 17, 19, 23, 29, 31})
	if err != nil {
		t.Fatal(err)
	}
	poly, err := indexing.NewPolynomial(l)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := indexing.NewSandyBridge(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]indexing.Func{
		"baseline":       indexing.NewModulo(l),
		"xor":            indexing.NewXOR(l),
		"odd_multiplier": om,
		"prime_modulo":   indexing.NewPrimeModulo(l),
		"givargis":       givargis,
		"givargis_xor":   indexing.GivargisXOR{L: l, TagBits: []uint{15, 16, 18, 20, 21, 22, 24, 26, 27, 30}},
		"polynomial":     poly,
		"sandybridge":    sb,
	}
}

// RandomDMTrace mixes a hot working set (hits), a conflict-heavy cold
// range (evictions and writebacks) and a few addresses above bit 32.
func RandomDMTrace(src *rng.Source, n int) trace.Trace {
	tr := make(trace.Trace, n)
	for i := range tr {
		var a uint64
		switch r := src.Float64(); {
		case r < 0.5:
			a = uint64(src.Intn(512)) * 32
		case r < 0.98:
			a = src.Uint64() % (1 << 24)
		default:
			a = src.Uint64() % (1 << 40)
		}
		k := trace.Read
		if src.Float64() < 0.3 {
			k = trace.Write
		}
		tr[i] = trace.Access{Addr: addr.Addr(a), Kind: k}
	}
	return tr
}

// ReplayMixed replays tr through m in batches of 1, 7, DefaultBatch and
// more than the set buffer holds, with every fifth call a single Access,
// and steps the reference alongside.  After every call m's counters must
// equal the reference's, each single Access must return the outcome step
// returns for it, and at the end the per-set counts must match.  step
// replays one access through ref and returns its outcome.
func ReplayMixed(t *testing.T, m Model, ref *RefDM, step func(trace.Access) AccessResult, tr trace.Trace) {
	t.Helper()
	sink := NewSink(m)
	sizes := []int{1, 7, trace.DefaultBatch, trace.DefaultBatch + 1500}
	for pos, call := 0, 0; pos < len(tr); call++ {
		if call%5 == 4 {
			got, want := m.Access(tr[pos]), step(tr[pos])
			if got != want {
				t.Fatalf("Access(%v) = %+v, reference %+v", tr[pos], got, want)
			}
			pos++
		} else {
			n := min(sizes[call%len(sizes)], len(tr)-pos)
			if err := sink.ConsumeBatch(tr[pos : pos+n]); err != nil {
				t.Fatal(err)
			}
			for _, a := range tr[pos : pos+n] {
				step(a)
			}
			pos += n
		}
		if m.Counters() != ref.Ctr {
			t.Fatalf("after %d accesses: counters %+v, reference %+v", pos, m.Counters(), ref.Ctr)
		}
	}
	if !reflect.DeepEqual(m.PerSet(), ref.PerSet) {
		t.Fatal("per-set counts diverge from the reference")
	}
}

// TestDirectMappedKernelMatchesReference replays seeded load/store
// traces through the kernel, mixing batches and single Access calls, and
// checks every observable against the reference model.
func TestDirectMappedKernelMatchesReference(t *testing.T) {
	l := addr.MustLayout(32, 1024, 32)
	for name, f := range pureIndexFuncs(t, l) {
		t.Run(name, func(t *testing.T) {
			c := mustNew(Config{Layout: l, Ways: 1, Index: f, WriteAllocate: true})
			if _, ok := ShardReplayable(c); !ok {
				t.Fatal("not served by the direct-mapped kernel")
			}
			ref := NewRefDM(l, func(a trace.Access) int { return f.Index(a.Addr) })
			tr := RandomDMTrace(rng.New(20110913), 40_000)
			ReplayMixed(t, c, ref, ref.Access, tr)
			for _, a := range tr[:2000] {
				if c.Lookup(a.Addr) != ref.lookup(a.Addr) {
					t.Fatalf("Lookup(%v) diverges from the reference", a.Addr)
				}
			}
			if got, want := c.Utilization(), ref.utilization(); got != want {
				t.Fatalf("Utilization = %v, reference %v", got, want)
			}
			if f.Sets() < l.Sets() && c.Utilization() >= 1 {
				t.Fatal("a reduced-range index filled every set")
			}
		})
	}
}

// TestShardReplayPureIndexKinds runs the sharded differential over every
// pure-index kind.
func TestShardReplayPureIndexKinds(t *testing.T) {
	l := addr.MustLayout(32, 1024, 32)
	tr := RandomDMTrace(rng.New(3), 30_000)
	for name, f := range pureIndexFuncs(t, l) {
		t.Run(name, func(t *testing.T) {
			assertShardMatchesSerial(t, func() *Cache { return shardTestCache(t, l, f) }, tr, 2500)
		})
	}
}
