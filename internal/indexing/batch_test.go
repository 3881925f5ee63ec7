package indexing

import (
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/rng"
	"cacheuniformity/internal/trace"
)

// maskIndex is a Func of no type IndexBatch knows, so it takes the
// per-access fallback.
type maskIndex struct{}

func (maskIndex) Name() string          { return "mask" }
func (maskIndex) Sets() int             { return 64 }
func (maskIndex) Index(a addr.Addr) int { return int(uint64(a)>>7) % 64 }

// TestIndexBatchMatchesIndex checks IndexBatch against f.Index for every
// case of its type switch, on 32-bit and wider addresses: the GF(2)
// tables, the direct loops, a SandyBridge whose slices do not split the
// sets evenly (not linear, so it must not take the tables), and the
// fallback.
func TestIndexBatchMatchesIndex(t *testing.T) {
	l := addr.MustLayout(32, 1024, 32)
	small := addr.MustLayout(16, 64, 12) // fewer tag bits than index bits
	sb, err := NewSandyBridge(l, 8)
	if err != nil {
		t.Fatal(err)
	}
	funcs := []Func{
		NewModulo(l), NewXOR(l), NewXOR(small),
		MustOddMultiplier(l, 61), NewPrimeModulo(l),
		BitSelection{SchemeName: "givargis", Positions: []uint{5, 6, 12, 33, 40, 41, 50, 63, 8, 9}},
		GivargisXOR{L: l, TagBits: []uint{15, 20, 21, 25, 31, 34, 47, 52, 60, 62}},
		MustPolynomial(l), sb, SandyBridge{L: l, Slices: 3},
		maskIndex{},
	}
	src := rng.New(11)
	for _, width := range []uint{32, 64} {
		batch := make([]trace.Access, 3000)
		for i := range batch {
			batch[i].Addr = addr.Addr(src.Uint64() >> (64 - width))
		}
		sets := make([]int32, len(batch))
		for _, f := range funcs {
			IndexBatch(f, batch, sets)
			for i, a := range batch {
				if want := f.Index(a.Addr); int(sets[i]) != want {
					t.Fatalf("%s, %d-bit addresses: IndexBatch(%v) = %d, Index = %d", f.Name(), width, a.Addr, sets[i], want)
				}
			}
		}
	}
}
