// Package indexing implements the cache set-index functions evaluated in
// Section II of the paper.
//
// A cache index function maps a memory address to a set number.  The
// conventional ("modulo") function uses the low-order index bits above the
// byte offset; the alternatives redistribute conflicting addresses across
// sets:
//
//   - Modulo        — baseline, set = addr[offset : offset+m)
//   - XOR           — set = (tag_low XOR index) [Kharbutli et al.]
//   - OddMultiplier — set = (p·tag + index) mod S, p odd [Kharbutli et al.]
//   - PrimeModulo   — set = block mod p, p prime ≤ S [Kharbutli et al.]
//   - Givargis      — profile-driven address-bit selection [Givargis]
//   - GivargisXOR   — this paper's hybrid: Givargis-selected tag bits XOR index
//   - SandyBridge   — Intel LLC slice hash via parity masks [Maurice et al.]
//
// All functions operate at block granularity: two addresses in the same
// cache block always map to the same set.
package indexing

import (
	"fmt"

	"cacheuniformity/internal/addr"
)

// Func maps addresses to cache sets.
//
// Sets returns the number of set numbers the function can produce; for most
// functions this equals the layout's set count, but PrimeModulo reaches only
// p ≤ S sets (the paper's "cache fragmentation").  Implementations must be
// pure: the same address always yields the same set.
type Func interface {
	// Name identifies the scheme in reports (e.g. "xor", "odd_multiplier").
	Name() string
	// Sets returns the number of distinct indices the function may return.
	Sets() int
	// Index returns the set for the address, in [0, Sets()).
	Index(a addr.Addr) int
}

// Modulo is the conventional direct-mapped index: the m address bits right
// above the byte offset.  It is the baseline every scheme is compared to.
type Modulo struct {
	L addr.Layout
}

// NewModulo returns the conventional index function for the layout.
func NewModulo(l addr.Layout) Modulo { return Modulo{L: l} }

// Name implements Func.
func (Modulo) Name() string { return "modulo" }

// Sets implements Func.
func (m Modulo) Sets() int { return m.L.Sets() }

// Index implements Func.
func (m Modulo) Index(a addr.Addr) int { return int(m.L.Index(a)) }

// XOR implements exclusive-OR hashing (paper Eq. 5): the index bits are
// XOR-ed with an equally wide slice of low tag bits.
type XOR struct {
	L addr.Layout
}

// NewXOR returns the XOR index function for the layout.
func NewXOR(l addr.Layout) XOR { return XOR{L: l} }

// Name implements Func.
func (XOR) Name() string { return "xor" }

// Sets implements Func.
func (x XOR) Sets() int { return x.L.Sets() }

// Index implements Func.
func (x XOR) Index(a addr.Addr) int {
	idx := x.L.Index(a)
	tag := x.L.Tag(a)
	m := x.L.IndexBits
	tagLow := tag & ((1 << m) - 1)
	return int((idx ^ tagLow) & ((1 << m) - 1))
}

// OddMultiplier implements odd-multiplier displacement (paper Eq. 4):
// set = (p·tag + index) mod S.  The paper recommends multipliers 9, 21, 31
// and 61.
type OddMultiplier struct {
	L addr.Layout
	// P is the odd multiplier.
	P uint64
}

// RecommendedMultipliers is the paper's suggested odd multipliers.
var RecommendedMultipliers = []uint64{9, 21, 31, 61}

// NewOddMultiplier returns the odd-multiplier index function.  It returns
// an error if p is not odd (an even multiplier degenerates: p·tag sheds
// low-order entropy and the hash loses sets).
func NewOddMultiplier(l addr.Layout, p uint64) (OddMultiplier, error) {
	if p%2 == 0 {
		return OddMultiplier{}, fmt.Errorf("indexing: multiplier %d is not odd", p)
	}
	return OddMultiplier{L: l, P: p}, nil
}

// MustOddMultiplier is NewOddMultiplier but panics on error.
//
//lint:allow nopanic Must-prefixed variant documented to panic; callers with dynamic multipliers use NewOddMultiplier.
func MustOddMultiplier(l addr.Layout, p uint64) OddMultiplier {
	om, err := NewOddMultiplier(l, p)
	if err != nil {
		panic(err)
	}
	return om
}

// Name implements Func.
func (o OddMultiplier) Name() string { return fmt.Sprintf("odd_multiplier_%d", o.P) }

// Sets implements Func.
func (o OddMultiplier) Sets() int { return o.L.Sets() }

// Index implements Func.
func (o OddMultiplier) Index(a addr.Addr) int {
	s := uint64(o.L.Sets())
	return int((o.P*o.L.Tag(a) + o.L.Index(a)) % s)
}

// PrimeModulo implements prime-modulo hashing (paper Eq. 3): the block
// address modulo the largest prime p ≤ S.  Sets [p, S) are never used —
// the fragmentation the paper discusses.
type PrimeModulo struct {
	L addr.Layout
	// P is the prime modulus.
	P uint64
}

// NewPrimeModulo returns the prime-modulo function using the largest prime
// not exceeding the layout's set count.
func NewPrimeModulo(l addr.Layout) PrimeModulo {
	p := LargestPrimeLE(l.Sets())
	if p < 2 {
		p = 1 // single-set cache: degenerate but well defined
	}
	return PrimeModulo{L: l, P: uint64(p)}
}

// Name implements Func.
func (PrimeModulo) Name() string { return "prime_modulo" }

// Sets implements Func.
func (p PrimeModulo) Sets() int { return int(p.P) }

// Index implements Func.
func (p PrimeModulo) Index(a addr.Addr) int {
	return int(p.L.Block(a) % p.P)
}

// BitSelection indexes by concatenating arbitrary address bit positions:
// bit Positions[i] of the address becomes bit i of the set number.  It is
// the executable form produced by the Givargis algorithm, and is exported
// so callers can construct hand-picked indexes in ablations.
type BitSelection struct {
	// SchemeName is reported by Name.
	SchemeName string
	// Positions lists address bit positions, least significant index bit
	// first.  len(Positions) determines the number of sets (2^len).
	Positions []uint
}

// NewBitSelection validates and builds a bit-selection function.  Positions
// must be distinct and < addr.MaxAddressBits.
func NewBitSelection(name string, positions []uint) (BitSelection, error) {
	seen := map[uint]bool{}
	for _, p := range positions {
		if p >= addr.MaxAddressBits {
			return BitSelection{}, fmt.Errorf("indexing: bit position %d out of range", p)
		}
		if seen[p] {
			return BitSelection{}, fmt.Errorf("indexing: duplicate bit position %d", p)
		}
		seen[p] = true
	}
	return BitSelection{SchemeName: name, Positions: append([]uint(nil), positions...)}, nil
}

// Name implements Func.
func (b BitSelection) Name() string { return b.SchemeName }

// Sets implements Func.
func (b BitSelection) Sets() int { return 1 << len(b.Positions) }

// Index implements Func.
func (b BitSelection) Index(a addr.Addr) int {
	var idx int
	for i, p := range b.Positions {
		idx |= int(a.Bit(p)) << i
	}
	return idx
}
