package indexing

import (
	"testing"

	"cacheuniformity/internal/addr"
)

func TestPolynomialBasics(t *testing.T) {
	p, err := NewPolynomial(layout)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "polynomial" || p.Sets() != 1024 {
		t.Errorf("identity: %q %d", p.Name(), p.Sets())
	}
	checkFuncContract(t, p, layout)
}

func TestPolynomialErrors(t *testing.T) {
	if _, err := NewPolynomial(addr.MustLayout(32, 4, 32)); err == nil {
		t.Error("degree without stock polynomial accepted")
	}
}

// mustPolynomial builds the stock polynomial hash for a layout that has
// one, panicking otherwise.
func mustPolynomial(l addr.Layout) Polynomial {
	p, err := NewPolynomial(l)
	if err != nil {
		panic(err)
	}
	return p
}

func TestPolynomialLowBlocksIdentity(t *testing.T) {
	// Blocks below 2^m are their own remainder: polynomial hashing agrees
	// with modulo on the first cache span.
	p := mustPolynomial(layout)
	m := NewModulo(layout)
	for a := addr.Addr(0); a < 1024*32; a += 32 {
		if p.Index(a) != m.Index(a) {
			t.Fatalf("low-block divergence at %v", a)
		}
	}
}

func TestPolynomialConflictFreeOnSpanStride(t *testing.T) {
	// The signature property of an irreducible modulus: addresses exactly
	// one cache span apart (deadly for modulo) map to distinct sets until
	// the sets are exhausted.
	p := mustPolynomial(layout)
	seen := map[int]bool{}
	for i := 0; i < 1024; i++ {
		set := p.Index(addr.Addr(uint64(i) * 0x8000))
		if seen[set] {
			t.Fatalf("span-stride collision after %d blocks", i)
		}
		seen[set] = true
	}
}

func TestPolynomialSpreadsAllSets(t *testing.T) {
	p := mustPolynomial(layout)
	seen := map[int]bool{}
	for i := uint64(0); i < 1<<16; i++ {
		seen[p.Index(addr.Addr(i*32))] = true
	}
	if len(seen) != 1024 {
		t.Errorf("polynomial reached %d of 1024 sets (no fragmentation expected)", len(seen))
	}
}

func TestPolynomialAllStockDegrees(t *testing.T) {
	for deg := uint(3); deg <= 16; deg++ {
		l, err := addr.NewLayout(32, 1<<deg, 32)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPolynomial(l)
		if err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
		// Spot-check range.
		for i := uint64(0); i < 4096; i++ {
			if s := p.Index(addr.Addr(i * 997 * 32)); s < 0 || s >= 1<<deg {
				t.Fatalf("degree %d: index %d out of range", deg, s)
			}
		}
	}
}
