package core

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/assoc"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/hier"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/trace"
)

func legacyAmatSimple(ctr cache.Counters, penalty float64) float64 {
	return hier.AMATSimple(ctr, hier.DefaultLatencies, penalty)
}

// legacyRoster is a verbatim copy of the seed's hard-coded buildRoster,
// kept as the reference the registry-built default roster is proven
// byte-identical against.
func legacyRoster() []Scheme {
	var out []Scheme
	add := func(s Scheme) {
		if s.AMAT == nil {
			s.AMAT = legacyAmatSimple
		}
		out = append(out, s)
	}

	add(Scheme{
		Name: "baseline", Kind: registry.FamilyBaseline,
		Description: "direct-mapped, conventional modulo indexing",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			return cache.New(cache.Config{Layout: l, Ways: 1, WriteAllocate: true})
		},
	})

	// --- Section II: indexing schemes -----------------------------------
	add(Scheme{
		Name: "xor", Kind: registry.FamilyIndexing,
		Description: "index XOR low tag bits (Eq. 5)",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			return cache.New(cache.Config{Layout: l, Ways: 1, Index: indexing.NewXOR(l), WriteAllocate: true})
		},
	})
	add(Scheme{
		Name: "odd_multiplier", Kind: registry.FamilyIndexing,
		Description: "(21·tag + index) mod S (Eq. 4)",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			om, err := indexing.NewOddMultiplier(l, 21)
			if err != nil {
				return nil, err
			}
			return cache.New(cache.Config{Layout: l, Ways: 1, Index: om, WriteAllocate: true})
		},
	})
	add(Scheme{
		Name: "prime_modulo", Kind: registry.FamilyIndexing,
		Description: "block mod largest-prime ≤ S (Eq. 3)",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			return cache.New(cache.Config{Layout: l, Ways: 1, Index: indexing.NewPrimeModulo(l), WriteAllocate: true})
		},
	})
	add(Scheme{
		Name: "givargis", Kind: registry.FamilyIndexing,
		Description: "profile-driven quality/correlation bit selection",
		Build: func(l addr.Layout, profile trace.StreamFunc) (cache.Model, error) {
			g, err := indexing.NewGivargisStream(profile(), l, indexing.GivargisConfig{})
			if err != nil {
				return nil, err
			}
			return cache.New(cache.Config{Layout: l, Ways: 1, Index: g, WriteAllocate: true})
		},
		BuildFromProfile: func(l addr.Layout, p *indexing.Profile) (cache.Model, error) {
			g, err := indexing.NewGivargisFromProfile(p, indexing.GivargisConfig{})
			if err != nil {
				return nil, err
			}
			return cache.New(cache.Config{Layout: l, Ways: 1, Index: g, WriteAllocate: true})
		},
	})
	add(Scheme{
		Name: "givargis_xor", Kind: registry.FamilyIndexing,
		Description: "Givargis-selected tag bits XOR index (this paper's hybrid)",
		Build: func(l addr.Layout, profile trace.StreamFunc) (cache.Model, error) {
			g, err := indexing.NewGivargisXORStream(profile(), l, indexing.GivargisConfig{})
			if err != nil {
				return nil, err
			}
			return cache.New(cache.Config{Layout: l, Ways: 1, Index: g, WriteAllocate: true})
		},
		BuildFromProfile: func(l addr.Layout, p *indexing.Profile) (cache.Model, error) {
			g, err := indexing.NewGivargisXORFromProfile(p, indexing.GivargisConfig{})
			if err != nil {
				return nil, err
			}
			return cache.New(cache.Config{Layout: l, Ways: 1, Index: g, WriteAllocate: true})
		},
	})

	add(Scheme{
		Name: "polynomial", Kind: registry.FamilyIndexing,
		Description: "GF(2) polynomial-modulus hashing (extension; exact form of [12]'s family)",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			p, err := indexing.NewPolynomial(l)
			if err != nil {
				return nil, err
			}
			return cache.New(cache.Config{Layout: l, Ways: 1, Index: p, WriteAllocate: true})
		},
	})

	// --- Section III: programmable associativity -------------------------
	add(Scheme{
		Name: "adaptive", Kind: registry.FamilyProgrammable,
		Description: "adaptive group-associative (SHT 3/8, OUT 4/16)",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			return assoc.NewAdaptiveCache(l, nil, assoc.AdaptiveConfig{})
		},
		AMAT: func(ctr cache.Counters, penalty float64) float64 {
			return hier.AMATAdaptive(ctr, penalty)
		},
	})
	add(Scheme{
		Name: "b_cache", Kind: registry.FamilyProgrammable,
		Description: "balanced cache, MF=2 BAS=2, LRU clusters",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			return assoc.NewBCache(l, assoc.BCacheConfig{})
		},
	})
	add(Scheme{
		Name: "column_associative", Kind: registry.FamilyProgrammable,
		Description: "column-associative (rehash bit, MSB-flip alternate)",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			return assoc.NewColumnAssociative(l, nil)
		},
		AMAT: func(ctr cache.Counters, penalty float64) float64 {
			return hier.AMATColumnAssociative(ctr, penalty)
		},
	})

	// --- Figure 8 hybrids -------------------------------------------------
	for _, hy := range []struct {
		name  string
		build func(l addr.Layout) (indexing.Func, error)
	}{
		{"column_xor", func(l addr.Layout) (indexing.Func, error) { return indexing.NewXOR(l), nil }},
		{"column_odd_multiplier", func(l addr.Layout) (indexing.Func, error) { return indexing.NewOddMultiplier(l, 21) }},
		{"column_prime_modulo", func(l addr.Layout) (indexing.Func, error) { return indexing.NewPrimeModulo(l), nil }},
	} {
		hy := hy
		add(Scheme{
			Name: hy.name, Kind: registry.FamilyHybrid,
			Description: "column-associative with " + hy.name[len("column_"):] + " primary index",
			Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
				idx, err := hy.build(l)
				if err != nil {
					return nil, err
				}
				return assoc.NewColumnAssociative(l, idx)
			},
			AMAT: func(ctr cache.Counters, penalty float64) float64 {
				return hier.AMATColumnAssociative(ctr, penalty)
			},
		})
	}

	// The paper's §III closes with "we will also explore hybrid techniques
	// that combine indexing methods with programmable associativities";
	// Figure 8 does this for the column-associative cache.  The adaptive
	// counterparts complete the exploration.
	for _, hy := range []struct {
		name  string
		build func(l addr.Layout) (indexing.Func, error)
	}{
		{"adaptive_xor", func(l addr.Layout) (indexing.Func, error) { return indexing.NewXOR(l), nil }},
		{"adaptive_odd_multiplier", func(l addr.Layout) (indexing.Func, error) { return indexing.NewOddMultiplier(l, 21) }},
		{"adaptive_prime_modulo", func(l addr.Layout) (indexing.Func, error) { return indexing.NewPrimeModulo(l), nil }},
	} {
		hy := hy
		add(Scheme{
			Name: hy.name, Kind: registry.FamilyHybrid,
			Description: "adaptive group-associative with " + hy.name[len("adaptive_"):] + " primary index",
			Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
				idx, err := hy.build(l)
				if err != nil {
					return nil, err
				}
				return assoc.NewAdaptiveCache(l, idx, assoc.AdaptiveConfig{})
			},
			AMAT: func(ctr cache.Counters, penalty float64) float64 {
				return hier.AMATAdaptive(ctr, penalty)
			},
		})
	}

	// --- Reference points -------------------------------------------------
	for _, ways := range []int{2, 4, 8} {
		ways := ways
		name := map[int]string{2: "two_way", 4: "four_way", 8: "eight_way"}[ways]
		add(Scheme{
			Name: name, Kind: registry.FamilyReference,
			Description: fmt.Sprintf("%d-way set associative, LRU, same capacity", ways),
			Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
				shrunk, err := addr.NewLayout(l.BlockBytes(), l.Sets()/ways, l.AddressBits)
				if err != nil {
					return nil, err
				}
				return cache.New(cache.Config{Layout: shrunk, Ways: ways, WriteAllocate: true})
			},
		})
	}
	add(Scheme{
		Name: "pseudo_associative", Kind: registry.FamilyReference,
		Description: "hash-rehash pseudo-associative (§1.2)",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			return assoc.NewPseudoAssociative(l, nil)
		},
		AMAT: func(ctr cache.Counters, penalty float64) float64 {
			return hier.AMATColumnAssociative(ctr, penalty)
		},
	})
	add(Scheme{
		Name: "partner", Kind: registry.FamilyReference,
		Description: "partner-index linked lines (Figure 3)",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			return assoc.NewPartnerCache(l, nil, assoc.PartnerConfig{})
		},
		AMAT: func(ctr cache.Counters, penalty float64) float64 {
			return hier.AMATColumnAssociative(ctr, penalty)
		},
	})
	add(Scheme{
		Name: "victim", Kind: registry.FamilyReference,
		Description: "direct-mapped + 16-entry victim buffer [Jouppi]",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			primary, err := cache.New(cache.Config{Layout: l, Ways: 1, WriteAllocate: true})
			if err != nil {
				return nil, err
			}
			return cache.NewVictimCache(primary, 16)
		},
		AMAT: func(ctr cache.Counters, penalty float64) float64 {
			return hier.AMATColumnAssociative(ctr, penalty)
		},
	})
	add(Scheme{
		Name: "skewed", Kind: registry.FamilyReference,
		Description: "2-way skewed associative (modulo + XOR banks), same capacity",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			bank, err := addr.NewLayout(l.BlockBytes(), l.Sets()/2, l.AddressBits)
			if err != nil {
				return nil, err
			}
			return assoc.NewSkewedAssociative(bank, assoc.DefaultSkewFuncs(bank))
		},
	})
	add(Scheme{
		Name: "dynamic_index", Kind: registry.FamilyReference,
		Description: "runtime index selection over the paper's candidates (Figure-5 proposal, dynamic)",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			return assoc.NewDynamicIndexCache(l, assoc.DefaultDynamicCandidates(l), assoc.DynamicConfig{})
		},
	})
	add(Scheme{
		Name: "fully_associative", Kind: registry.FamilyReference,
		Description: "fully associative LRU, same capacity (lower envelope)",
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			return cache.NewFullyAssociative(l, l.Sets(), cache.LRU{})
		},
	})
	return out
}
