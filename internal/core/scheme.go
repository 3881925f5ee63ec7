// Package core is the paper's actual contribution: a side-by-side
// evaluation framework that puts every cache indexing scheme (Section II)
// and every programmable-associativity scheme (Section III) behind one
// interface, replays identical workloads through all of them, and reports
// the paper's metrics — miss rate reduction, AMAT, and the
// skewness/kurtosis uniformity statistics.
//
// The roster itself is data: every scheme is declared and built through
// internal/registry, and the default evaluation roster is the
// registry's compiled-in default declarations.  Custom rosters (files,
// request bodies) flow through the same machinery, so a declared scheme
// and its hand-coded equivalent are byte-identical under the grid engine.
package core

import (
	"fmt"
	"sort"

	"cacheuniformity/internal/registry"
)

// Kind classifies schemes the way the paper's sections do; it aliases the
// registry's Family so declared and compiled-in schemes share one
// vocabulary.
type Kind = registry.Family

// Scheme is a named, buildable cache organisation.
type Scheme = registry.Scheme

// Schemes returns the full default evaluation roster, instantiated from
// the registry's declarations.  The roster is built once; callers receive
// a fresh slice of the shared (immutable) Scheme values, so reordering or
// overwriting entries cannot corrupt other callers.
func Schemes() []Scheme {
	return registry.DefaultSchemes()
}

// SchemeByName finds a scheme in the default roster by map lookup; the
// roster is built once, not per call.
func SchemeByName(name string) (Scheme, error) {
	s, err := registry.DefaultSchemeByName(name)
	if err != nil {
		return Scheme{}, fmt.Errorf("core: %w", err)
	}
	return s, nil
}

// SchemeNames returns all roster names, sorted; filter by kind ("" = all).
func SchemeNames(kind Kind) []string {
	var out []string
	for _, s := range Schemes() {
		if kind == "" || s.Kind == kind {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// IndexingSchemes lists the Section-II schemes in the paper's figure order.
var IndexingSchemes = []string{"xor", "odd_multiplier", "prime_modulo", "givargis", "givargis_xor"}

// ProgrammableSchemes lists the Section-III schemes in the paper's order.
var ProgrammableSchemes = []string{"adaptive", "b_cache", "column_associative"}

// HybridSchemes lists the Figure-8 combinations.
var HybridSchemes = []string{"column_xor", "column_odd_multiplier", "column_prime_modulo"}

// AdaptiveHybridSchemes lists the adaptive-cache counterparts of Figure 8
// (the paper's stated but unevaluated exploration).
var AdaptiveHybridSchemes = []string{"adaptive_xor", "adaptive_odd_multiplier", "adaptive_prime_modulo"}
