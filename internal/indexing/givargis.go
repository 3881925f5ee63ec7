package indexing

import (
	"errors"
	"fmt"
	"io"
	mathbits "math/bits"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/trace"
)

// GivargisConfig controls the profile-driven bit-selection algorithm of
// Givargis (paper §II-A).
type GivargisConfig struct {
	// IncludeOffsetBits lets the selection consider byte-offset bit
	// positions.  The paper's experiments exclude them (the selected index
	// must be block-invariant), and attribute Givargis' poor 32-byte-line
	// results to the information those excluded bits carried.  We expose
	// the flag for the block-size ablation; when true, offset positions are
	// still skipped (they cannot be used for block-granular caches) but the
	// quality ranking is computed over *byte* addresses instead of block
	// addresses, reproducing the small-block behaviour.
	IncludeOffsetBits bool
	// FrequencyWeighted departs from Givargis' original formulation (and
	// the paper's): instead of counting each *unique* address once in the
	// quality and correlation statistics, every reference contributes, so
	// hot blocks dominate bit selection.  This is the natural extension
	// when the profile is a full trace rather than an address list; the
	// ablation bench quantifies the difference.
	FrequencyWeighted bool
}

// GivargisProfile holds the per-bit quality values and the pairwise
// correlation matrix computed from a trace's unique addresses (paper
// Eqs. 1–2).
type GivargisProfile struct {
	// AddressBits is the number of bit positions profiled.
	AddressBits uint
	// Quality[i] = min(Z_i, O_i) / max(Z_i, O_i).
	Quality []float64
	// Correlation[i][j] = min(E_ij, D_ij) / max(E_ij, D_ij).
	Correlation [][]float64
	// Candidates lists the bit positions eligible for selection.
	Candidates []uint
}

// ProfileGivargisStream computes quality and correlation statistics over
// the unique block addresses of a batched stream: one pass accumulates the
// unique-address population and weights, so memory is O(unique blocks) —
// the profile itself — rather than O(trace length).
func ProfileGivargisStream(r trace.BatchReader, l addr.Layout, cfg GivargisConfig) (*GivargisProfile, error) {
	var uniq []addr.Addr
	var weights []uint64
	pos := make(map[addr.Addr]int, 1<<12)
	buf := make([]trace.Access, trace.DefaultBatch)
	for {
		n, err := r.ReadBatch(buf)
		if n == 0 {
			trace.CloseBatch(r)
			if err != nil && !errors.Is(err, io.EOF) {
				return nil, err
			}
			break
		}
		for _, a := range buf[:n] {
			key := a.Addr
			if !cfg.IncludeOffsetBits {
				// Profile at block granularity, as index functions must be
				// block-invariant.  IncludeOffsetBits profiles byte addresses
				// instead: offset positions influence higher-bit statistics
				// through carries, the effect the paper's 8-byte-line
				// observation hinges on.
				key = l.BlockAddr(l.Block(a.Addr))
			}
			if i, ok := pos[key]; ok {
				weights[i]++
			} else {
				pos[key] = len(uniq)
				uniq = append(uniq, key)
				weights = append(weights, 1)
			}
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("indexing: givargis profile of empty trace")
	}
	if !cfg.FrequencyWeighted {
		// The paper's formulation: every unique address counts once.
		weights = nil
	}
	return givargisTables(uniq, weights, l), nil
}

// givargisTables computes the per-bit quality values and pairwise
// correlation matrix (paper Eqs. 1–2) over a profiled address population.
// weights == nil means every member counts once; that path transposes the
// population into per-bit planes and uses XOR+popcount for the pairwise
// equal counts, which is dramatically cheaper than the scalar loop and
// produces the same integers (so identical tables and bit selections).
// Non-nil weights take the general scalar path.
func givargisTables(population []addr.Addr, weights []uint64, l addr.Layout) *GivargisProfile {
	nbits := l.AddressBits
	p := &GivargisProfile{
		AddressBits: nbits,
		Quality:     make([]float64, nbits),
		Correlation: make([][]float64, nbits),
	}

	// Candidate positions: everything above the byte offset.  (Offset bits
	// can never distinguish blocks, so they are structurally excluded; see
	// GivargisConfig.IncludeOffsetBits for the ablation semantics.)
	for b := l.OffsetBits; b < nbits; b++ {
		p.Candidates = append(p.Candidates, b)
	}

	// Count zeros/ones per bit and pairwise equal/different over the
	// (possibly frequency-weighted) profile population.  E_ij + D_ij =
	// total weight, so we track E and derive D.
	ones := make([]uint64, nbits)
	equal := make([][]uint64, nbits)
	for i := range equal {
		equal[i] = make([]uint64, nbits)
	}
	var total uint64
	if weights == nil {
		total = uint64(len(population))
		// Bit-plane transpose: plane[i] holds bit i of every member, packed
		// 64 per word.  Unused high bits of the last word stay zero in every
		// plane, so they cancel in the XORs below.
		words := (len(population) + 63) / 64
		backing := make([]uint64, int(nbits)*words)
		planes := make([][]uint64, nbits)
		for i := range planes {
			planes[i], backing = backing[:words:words], backing[words:]
		}
		for ai, a := range population {
			w, bit := ai>>6, uint(ai&63)
			v := uint64(a)
			for i := uint(0); i < nbits; i++ {
				planes[i][w] |= ((v >> i) & 1) << bit
			}
		}
		for i := uint(0); i < nbits; i++ {
			var c uint64
			for _, word := range planes[i] {
				c += uint64(mathbits.OnesCount64(word))
			}
			ones[i] = c
		}
		for i := uint(0); i < nbits; i++ {
			for j := i + 1; j < nbits; j++ {
				var diff uint64
				pi, pj := planes[i], planes[j]
				for k := range pi {
					diff += uint64(mathbits.OnesCount64(pi[k] ^ pj[k]))
				}
				equal[i][j] = total - diff
			}
		}
	} else {
		for ai, a := range population {
			w := weights[ai]
			total += w
			var bits [addr.MaxAddressBits]uint64
			for i := uint(0); i < nbits; i++ {
				bits[i] = a.Bit(i)
				if bits[i] == 1 {
					ones[i] += w
				}
			}
			for i := uint(0); i < nbits; i++ {
				for j := i + 1; j < nbits; j++ {
					if bits[i] == bits[j] {
						equal[i][j] += w
					}
				}
			}
		}
	}
	for i := uint(0); i < nbits; i++ {
		z, o := total-ones[i], ones[i]
		p.Quality[i] = ratioMinMax(float64(z), float64(o))
		p.Correlation[i] = make([]float64, nbits)
	}
	for i := uint(0); i < nbits; i++ {
		for j := i + 1; j < nbits; j++ {
			e := equal[i][j]
			d := total - e
			c := ratioMinMax(float64(e), float64(d))
			p.Correlation[i][j] = c
			p.Correlation[j][i] = c
		}
		p.Correlation[i][i] = 1
	}
	return p
}

// ratioMinMax returns min(a,b)/max(a,b), with 0/0 defined as 0 (a bit that
// never varies has zero quality).
func ratioMinMax(a, b float64) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi == 0 {
		return 0
	}
	return lo / hi
}

// SelectBits runs the paper's greedy selection: repeatedly take the
// candidate with the highest quality, then multiply every remaining
// candidate's quality by its correlation value against the chosen bit (the
// "dot product" update), until m bits are chosen.  Note the direction of the
// paper's C metric (Eq. 2): C = min(E,D)/max(E,D) is 1 for *independent*
// bits and 0 for identical or complementary bits, so the multiplication
// zeroes out candidates that duplicate already-chosen information.  Ties
// break toward lower bit positions, which matches hardware preference for
// cheap low bits and keeps the algorithm deterministic.
func (p *GivargisProfile) SelectBits(m int) ([]uint, error) {
	if m <= 0 {
		return nil, fmt.Errorf("indexing: must select a positive number of bits, got %d", m)
	}
	if m > len(p.Candidates) {
		return nil, fmt.Errorf("indexing: cannot select %d bits from %d candidates", m, len(p.Candidates))
	}
	type cand struct {
		pos   uint
		score float64
	}
	remaining := make([]cand, len(p.Candidates))
	for i, b := range p.Candidates {
		remaining[i] = cand{pos: b, score: p.Quality[b]}
	}
	var chosen []uint
	for len(chosen) < m {
		best := 0
		for i := 1; i < len(remaining); i++ {
			if remaining[i].score > remaining[best].score {
				best = i
			}
		}
		sel := remaining[best]
		chosen = append(chosen, sel.pos)
		remaining = append(remaining[:best], remaining[best+1:]...)
		// Damp correlated candidates: C is 0 for bits identical or
		// complementary to the chosen one, so they drop out of contention.
		for i := range remaining {
			remaining[i].score *= p.Correlation[sel.pos][remaining[i].pos]
		}
	}
	return chosen, nil
}

// NewGivargisStream builds the Givargis index function for the layout by
// profiling a batched stream in one pass and selecting the layout's
// index-bit count.
func NewGivargisStream(r trace.BatchReader, l addr.Layout, cfg GivargisConfig) (BitSelection, error) {
	prof, err := ProfileGivargisStream(r, l, cfg)
	if err != nil {
		return BitSelection{}, err
	}
	bits, err := prof.SelectBits(int(l.IndexBits))
	if err != nil {
		return BitSelection{}, err
	}
	return NewBitSelection("givargis", bits)
}

// GivargisXOR is this paper's hybrid (§II-E): Givargis-quality-selected tag
// bits are XOR-ed with the conventional index bits.
type GivargisXOR struct {
	L addr.Layout
	// TagBits lists the selected tag-region bit positions (absolute
	// positions in the address), one per index bit.
	TagBits []uint
}

// NewGivargisXORStream profiles a batched stream in one pass, selects the
// highest-quality low-correlation bits from the tag region, and XORs them
// with the conventional index.
func NewGivargisXORStream(r trace.BatchReader, l addr.Layout, cfg GivargisConfig) (GivargisXOR, error) {
	prof, err := ProfileGivargisStream(r, l, cfg)
	if err != nil {
		return GivargisXOR{}, err
	}
	return givargisXORFromTables(prof, l)
}

// givargisXORFromTables restricts the profiled candidates to the tag
// region and selects the XOR partners; shared by the stream and
// shared-profile constructors so both choose identical bits.
func givargisXORFromTables(prof *GivargisProfile, l addr.Layout) (GivargisXOR, error) {
	tagStart := l.OffsetBits + l.IndexBits
	var tagCands []uint
	for _, b := range prof.Candidates {
		if b >= tagStart {
			tagCands = append(tagCands, b)
		}
	}
	m := int(l.IndexBits)
	if m > len(tagCands) {
		return GivargisXOR{}, fmt.Errorf("indexing: tag region has only %d bits, need %d", len(tagCands), m)
	}
	prof2 := &GivargisProfile{
		AddressBits: prof.AddressBits,
		Quality:     prof.Quality,
		Correlation: prof.Correlation,
		Candidates:  tagCands,
	}
	bits, err := prof2.SelectBits(m)
	if err != nil {
		return GivargisXOR{}, err
	}
	return GivargisXOR{L: l, TagBits: bits}, nil
}

// Name implements Func.
func (GivargisXOR) Name() string { return "givargis_xor" }

// Sets implements Func.
func (g GivargisXOR) Sets() int { return g.L.Sets() }

// Index implements Func.
func (g GivargisXOR) Index(a addr.Addr) int {
	idx := g.L.Index(a)
	var mask uint64
	for i, p := range g.TagBits {
		mask |= a.Bit(p) << i
	}
	return int((idx ^ mask) & (uint64(g.L.Sets()) - 1))
}
