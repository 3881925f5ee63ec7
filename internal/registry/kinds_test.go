package registry

import (
	"testing"

	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/trace"
)

// kindTrace is the fft kernel trace every kind is checked on; it also
// profiles the profile-driven kinds.
func kindTrace(t *testing.T) trace.Trace {
	t.Helper()
	spec, _, err := ResolveWorkload(Decl{Kind: "kernel", Params: Params{"benchmark": "fft"}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.CollectBatch(spec.Stream(1, 20_000), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// buildKind builds kind at its default declaration.
func buildKind(t *testing.T, kind string, tr trace.Trace) cache.Model {
	t.Helper()
	s, err := ResolveScheme(Decl{Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Build(testLayout(t), tr.Stream())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEveryKindAccessAllocatesNothing: once a model has seen the trace,
// replaying it again through Access allocates nothing, for every kind.
func TestEveryKindAccessAllocatesNothing(t *testing.T) {
	tr := kindTrace(t)
	for _, k := range SchemeKinds() {
		t.Run(k.Kind, func(t *testing.T) {
			m := buildKind(t, k.Kind, tr)
			for _, a := range tr {
				m.Access(a)
			}
			replay := func() {
				for _, a := range tr {
					m.Access(a)
				}
			}
			if n := testing.AllocsPerRun(2, replay); n != 0 {
				t.Errorf("%s: %v allocations per %d-access replay", m.Name(), n, len(tr))
			}
		})
	}
}

// TestEveryKindPerSetSumsMatchCounters: for every kind, hits and misses
// add up to accesses, and the per-set counts add up to the aggregate
// Accesses, Hits and Misses.
func TestEveryKindPerSetSumsMatchCounters(t *testing.T) {
	tr := kindTrace(t)
	for _, k := range SchemeKinds() {
		t.Run(k.Kind, func(t *testing.T) {
			m := buildKind(t, k.Kind, tr)
			for _, a := range tr {
				m.Access(a)
			}
			ctr, ps := m.Counters(), m.PerSet()
			if ctr.Hits+ctr.Misses != ctr.Accesses || ctr.Accesses != uint64(len(tr)) {
				t.Fatalf("%s: counters %+v over %d accesses", m.Name(), ctr, len(tr))
			}
			var acc, hits, misses uint64
			for s := range ps.Accesses {
				acc += ps.Accesses[s]
				hits += ps.Hits[s]
				misses += ps.Misses[s]
			}
			if acc != ctr.Accesses || hits != ctr.Hits || misses != ctr.Misses {
				t.Errorf("%s: per-set sums %d/%d/%d, counters %d/%d/%d",
					m.Name(), acc, hits, misses, ctr.Accesses, ctr.Hits, ctr.Misses)
			}
		})
	}
}
