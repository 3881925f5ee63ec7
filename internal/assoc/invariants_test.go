package assoc

import (
	"testing"
	"testing/quick"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/rng"
	"cacheuniformity/internal/trace"
)

// randomTrace builds a reproducible random access stream mixing strides,
// conflicts and noise — the adversarial input for structural invariants.
func randomTrace(seed uint64, n int) trace.Trace {
	src := rng.New(seed)
	tr := make(trace.Trace, 0, n)
	hot := make([]uint64, 8)
	for i := range hot {
		hot[i] = uint64(src.Intn(1<<14)) * 0x8000 // mutually conflicting
	}
	for len(tr) < n {
		var a uint64
		switch src.Intn(4) {
		case 0:
			a = hot[src.Intn(len(hot))]
		case 1:
			a = uint64(len(tr)) * 32 % (1 << 20) // sweep
		default:
			a = uint64(src.Intn(1 << 22))
		}
		k := trace.Read
		if src.Intn(4) == 0 {
			k = trace.Write
		}
		tr = append(tr, trace.Access{Addr: addr.Addr(a), Kind: k})
	}
	return tr
}

// TestColumnAssociativeStructuralInvariants drives random traces and
// checks after every access that (1) no block is resident twice and
// (2) a line's rehash bit is consistent: a non-rehash valid line holds a
// block whose primary index is that line; a rehash line holds a block
// whose primary index is the buddy.  The pseudo-associative mode keeps
// (1) and the first half of (2), which its rehash-hit test relies on.
func TestColumnAssociativeStructuralInvariants(t *testing.T) {
	for _, pseudo := range []bool{false, true} {
		if err := quick.Check(columnInvariants(pseudo), &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("pseudo=%v: %v", pseudo, err)
		}
	}
}

func columnInvariants(pseudo bool) func(seed uint64) bool {
	return func(seed uint64) bool {
		c := mustColumnAssociative(l32k, nil)
		if pseudo {
			c, _ = NewPseudoAssociative(l32k, nil)
		}
		tr := randomTrace(seed, 3000)
		seen := map[uint64]int{}
		for _, a := range tr {
			c.Access(a)
			// full scan every 250 accesses (cheap enough)
		}
		for set, ln := range c.lines {
			if !ln.valid {
				continue
			}
			seen[ln.block]++
			if seen[ln.block] > 1 {
				return false
			}
			primary := c.index.Index(addr.Addr(ln.block << c.layout.OffsetBits))
			if !ln.rehash && primary != set {
				return false
			}
			if ln.rehash && !pseudo && c.alternate(primary) != set {
				return false
			}
		}
		return true
	}
}

// TestAdaptiveStructuralInvariants checks the adaptive cache's table
// consistency after random traffic: every OUT entry points at a valid
// line holding exactly that block, no block is resident twice, and
// in-position lines hold blocks whose primary set matches.
func TestAdaptiveStructuralInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		a := mustAdaptiveCache(l32k, nil, AdaptiveConfig{})
		tr := randomTrace(seed, 3000)
		for _, acc := range tr {
			a.Access(acc)
		}
		// No duplicate residency.
		seen := map[uint64]bool{}
		for _, ln := range a.lines {
			if !ln.valid {
				continue
			}
			if seen[ln.block] {
				return false
			}
			seen[ln.block] = true
		}
		// OUT entries must be live and accurate.
		for block, node := range a.out.entries {
			ln := a.lines[a.out.nodes[node].set]
			if !ln.valid || ln.block != block {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPartnerCacheStructuralInvariants: chain bookkeeping stays acyclic
// and ownership-consistent under random traffic with small epochs.
func TestPartnerCacheStructuralInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		p, err := NewPartnerCache(l32k, nil, PartnerConfig{Epoch: 256, MaxChain: 3})
		if err != nil {
			return false
		}
		for _, acc := range randomTrace(seed, 4000) {
			p.Access(acc)
		}
		owners := map[int]int{}
		for s := range p.lines {
			if p.lines[s].linked {
				tgt := p.lines[s].partner
				if _, dup := owners[tgt]; dup {
					return false
				}
				owners[tgt] = s
				if !p.lines[tgt].member {
					return false
				}
			}
		}
		for s := range p.lines {
			if p.lines[s].member {
				if _, ok := owners[s]; !ok {
					return false
				}
			}
			if p.lines[s].linked && !p.lines[s].member {
				ch := p.chain(s)
				if len(ch) > p.cfg.MaxChain+1 {
					return false
				}
				seenSet := map[int]bool{}
				for _, m := range ch {
					if seenSet[m] {
						return false
					}
					seenSet[m] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDynamicShadowConsistency: the shadow monitor for the live function
// must agree with the live cache's miss count while no switch occurs.
func TestDynamicShadowConsistency(t *testing.T) {
	d, err := NewDynamicIndexCache(l32k, DefaultDynamicCandidates(l32k),
		DynamicConfig{Window: 1 << 30}) // never evaluate
	if err != nil {
		t.Fatal(err)
	}
	tr := randomTrace(11, 5000)
	for _, a := range tr {
		d.Access(a)
	}
	if d.shadowMisses[0] != d.Counters().Misses {
		t.Errorf("shadow misses %d != live misses %d (no switches happened)",
			d.shadowMisses[0], d.Counters().Misses)
	}
}

// TestAllAssocModelsCounterIdentity: hits+misses == accesses and per-set
// sums match aggregates for every scheme in this package, under random
// traffic.
func TestAllAssocModelsCounterIdentity(t *testing.T) {
	bank := addr.MustLayout(32, 512, 32)
	models := []cache.Model{
		mustColumnAssociative(l32k, nil),
		mustAdaptiveCache(l32k, nil, AdaptiveConfig{}),
		mustBCache(l32k, BCacheConfig{}),
		mustPseudo(t),
		mustPartner(t),
		mustSkewed(bank),
		mustDynamic(t),
	}
	tr := randomTrace(77, 8000)
	for _, m := range models {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			for _, a := range tr {
				m.Access(a)
			}
			ctr := m.Counters()
			if ctr.Hits+ctr.Misses != ctr.Accesses {
				t.Fatalf("hits+misses != accesses: %+v", ctr)
			}
			if ctr.PrimaryHits+ctr.SecondaryHits != ctr.Hits {
				t.Fatalf("primary+secondary != hits: %+v", ctr)
			}
			ps := m.PerSet()
			var acc, hits, misses uint64
			for i := range ps.Accesses {
				acc += ps.Accesses[i]
				hits += ps.Hits[i]
				misses += ps.Misses[i]
			}
			if acc != ctr.Accesses || hits != ctr.Hits || misses != ctr.Misses {
				t.Fatalf("per-set sums %d/%d/%d vs %d/%d/%d",
					acc, hits, misses, ctr.Accesses, ctr.Hits, ctr.Misses)
			}
		})
	}
}

func mustPseudo(t *testing.T) cache.Model {
	t.Helper()
	p, err := NewPseudoAssociative(l32k, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustPartner(t *testing.T) cache.Model {
	t.Helper()
	p, err := NewPartnerCache(l32k, nil, PartnerConfig{Epoch: 512, MaxChain: 2})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustSkewed(bank addr.Layout) cache.Model {
	s, err := NewSkewedAssociative(bank, DefaultSkewFuncs(bank))
	if err != nil {
		panic(err)
	}
	return s
}

func mustDynamic(t *testing.T) cache.Model {
	t.Helper()
	d, err := NewDynamicIndexCache(l32k, DefaultDynamicCandidates(l32k), DynamicConfig{Window: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return d
}
