package cache_test

import (
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/assoc"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/dynamic"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/rng"
	"cacheuniformity/internal/smt"
	"cacheuniformity/internal/trace"
)

// placementCase is a model that keeps its lines in a cache.DirectMapped
// store and differs from a direct-mapped cache only in its placement rule.
type placementCase struct {
	name  string
	build func() cache.Model
	// place is the reference's placement of a.  twin is a second instance
	// of the model, replayed one Access at a time in step with the
	// reference; the adaptive rules read their current placement from it.
	place func(twin cache.Model, a trace.Access) int
}

// must builds a known-good fixture, panicking on the impossible error.
func must[M cache.Model](m M, err error) cache.Model {
	if err != nil {
		panic(err)
	}
	return m
}

// TestPlacementModelsMatchReference replays a seeded load/store/fetch
// trace from five hardware threads through every model built on the
// direct-mapped store, mixing batches with single Access calls, and
// checks counters, per-set counts and every single-access outcome
// (EvictedBlock and Writeback included) against the reference model.
// Thread ids run past the SMT models' function lists and partitions.
func TestPlacementModelsMatchReference(t *testing.T) {
	l := addr.MustLayout(32, 1024, 32)
	mod := indexing.NewModulo(l)
	odd9, odd21 := indexing.MustOddMultiplier(l, 9), indexing.MustOddMultiplier(l, 21)
	perThread := func(funcs ...indexing.Func) func(cache.Model, trace.Access) int {
		return func(_ cache.Model, a trace.Access) int {
			if int(a.Thread) >= len(funcs) {
				return funcs[0].Index(a.Addr)
			}
			return funcs[a.Thread].Index(a.Addr)
		}
	}
	partitioned := func(threads int) func(cache.Model, trace.Access) int {
		span := l.Sets() / threads
		return func(_ cache.Model, a trace.Access) int {
			return int(a.Thread)%threads*span + int(l.Index(a.Addr))%span
		}
	}
	repartition := func(twin cache.Model, a trace.Access) int {
		return twin.(*dynamic.RepartitionCache).SetFor(a)
	}
	cands := assoc.DefaultDynamicCandidates(l)
	cases := []placementCase{
		{"shared/modulo,modulo", func() cache.Model {
			return must(smt.NewSharedIndexCache(l, []indexing.Func{mod, mod}))
		}, perThread(mod, mod)},
		{"shared/odd9,odd21", func() cache.Model {
			return must(smt.NewSharedIndexCache(l, []indexing.Func{odd9, odd21}))
		}, perThread(odd9, odd21)},
		{"partitioned/2", func() cache.Model { return must(smt.NewPartitionedCache(l, 2)) }, partitioned(2)},
		{"partitioned/4", func() cache.Model { return must(smt.NewPartitionedCache(l, 4)) }, partitioned(4)},
		{"repartition/thread", func() cache.Model {
			return must(dynamic.NewRepartitionCache(l, dynamic.RepartitionConfig{Partitions: 4, Interval: 256}))
		}, repartition},
		{"repartition/access", func() cache.Model {
			return must(dynamic.NewRepartitionCache(l, dynamic.RepartitionConfig{By: dynamic.ByAccess, Interval: 256}))
		}, repartition},
		{"dynamic_index", func() cache.Model {
			return must(assoc.NewDynamicIndexCache(l, cands, assoc.DynamicConfig{Window: 1024, Hysteresis: -1, MinSavings: -1}))
		}, func(twin cache.Model, a trace.Access) int {
			live := twin.(*assoc.DynamicIndexCache).Live()
			for _, f := range cands {
				if f.Name() == live {
					return f.Index(a.Addr)
				}
			}
			panic("no candidate named " + live)
		}},
	}
	tr := cache.RandomDMTrace(rng.New(20110913), 40_000)
	for i := range tr {
		tr[i].Thread = uint8(i % 5)
		if i%3 == 0 && tr[i].Kind == trace.Read {
			tr[i].Kind = trace.Fetch
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, twin := c.build(), c.build()
			ref := cache.NewRefDM(l, func(a trace.Access) int { return c.place(twin, a) })
			dyn, _ := twin.(*assoc.DynamicIndexCache)
			var switches uint64
			step := func(a trace.Access) cache.AccessResult {
				want := ref.Access(a)
				if got := twin.Access(a); got != want {
					t.Fatalf("per-access Access(%v) = %+v, reference %+v", a, got, want)
				}
				if dyn != nil && dyn.Switches != switches {
					// The selector flushed its lines after this access.
					switches = dyn.Switches
					ref.Flush()
				}
				return want
			}
			cache.ReplayMixed(t, m, ref, step, tr)
			if r, ok := m.(*dynamic.RepartitionCache); ok && r.Resizes() == 0 {
				t.Error("the partitions never moved: the adaptive placement went unexercised")
			}
			if dyn != nil && switches == 0 {
				t.Error("the selector never switched: the flush went unexercised")
			}
		})
	}
}
