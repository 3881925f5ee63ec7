package indexing

import (
	"fmt"
	"math/bits"

	"cacheuniformity/internal/addr"
)

// Polynomial implements polynomial-modulus hashing: the block address,
// read as a polynomial over GF(2), is reduced modulo an irreducible
// polynomial of degree m, and the m-bit remainder is the set index.  This
// is the hashing family of Rau's pseudo-randomly interleaved memories and
// Raghavan–Hayes RANDOM-H functions ([12] in the paper), which the paper's
// XOR and odd-multiplier schemes approximate cheaply; we include the exact
// construction as an extension so the approximations can be measured
// against it.
//
// Unlike prime-modulo, polynomial hashing reaches all 2^m sets (no
// fragmentation) and, with an irreducible modulus, maps any 2^m
// consecutive blocks conflict-free.
type Polynomial struct {
	L addr.Layout
	// Poly is the modulus with the leading term included, e.g.
	// x^10+x^3+1 = 0x409 for 1024 sets.
	Poly uint64
}

// defaultPolys maps degree → an irreducible polynomial over GF(2)
// (leading term included).  Degrees cover every practical L1 set count.
var defaultPolys = map[uint]uint64{
	3:  0xB,     // x^3+x+1
	4:  0x13,    // x^4+x+1
	5:  0x25,    // x^5+x^2+1
	6:  0x43,    // x^6+x+1
	7:  0x89,    // x^7+x^3+1
	8:  0x11D,   // x^8+x^4+x^3+x^2+1
	9:  0x211,   // x^9+x^4+1
	10: 0x409,   // x^10+x^3+1
	11: 0x805,   // x^11+x^2+1
	12: 0x1053,  // x^12+x^6+x^4+x+1
	13: 0x201B,  // x^13+x^4+x^3+x+1
	14: 0x402B,  // x^14+x^5+x^3+x+1
	15: 0x8003,  // x^15+x+1
	16: 0x1002D, // x^16+x^5+x^3+x^2+1
}

// NewPolynomial returns the polynomial hash for the layout using a stock
// irreducible modulus of the right degree.
func NewPolynomial(l addr.Layout) (Polynomial, error) {
	p, ok := defaultPolys[l.IndexBits]
	if !ok {
		return Polynomial{}, fmt.Errorf("indexing: no stock polynomial of degree %d", l.IndexBits)
	}
	return Polynomial{L: l, Poly: p}, nil
}

// Name implements Func.
func (Polynomial) Name() string { return "polynomial" }

// Sets implements Func.
func (p Polynomial) Sets() int { return p.L.Sets() }

// Index implements Func.
func (p Polynomial) Index(a addr.Addr) int {
	m := p.L.IndexBits
	v := p.L.Block(a)
	// Long division over GF(2): fold bits above degree m down into the
	// remainder, high bit first.
	for hi := uint(bits.Len64(v)); hi > m; hi-- {
		if v&(1<<(hi-1)) != 0 {
			v ^= p.Poly << (hi - 1 - m)
		}
	}
	return int(v)
}
