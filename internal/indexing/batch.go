package indexing

import (
	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/trace"
)

// IndexBatch writes f's set number for every access in batch to
// sets[:len(batch)]; sets must be at least as long as batch.  The set
// numbers are exactly f.Index's.  IndexBatch switches once per batch on
// the concrete type of the index functions this package defines, so
// their per-access work runs without an interface call; any other Func
// falls back to f.Index.
//
//lint:hotpath set numbers for the direct-mapped replay kernel
func IndexBatch(f Func, batch []trace.Access, sets []int32) {
	sets = sets[:len(batch)]
	switch g := f.(type) {
	case Modulo, XOR, BitSelection, GivargisXOR, Polynomial:
		// Each is linear over GF(2): a bit field, two bit fields XOR-ed,
		// a bit gather, a bit gather XOR-ed with the index field, and a
		// polynomial remainder.
		linearBatch(f, batch, sets)
	case SandyBridge:
		// Parity slice bits above a bit field: linear whenever the slices
		// split the sets evenly, as NewSandyBridge requires.
		if g.Slices > 0 && g.L.Sets()%g.Slices == 0 {
			linearBatch(f, batch, sets)
			return
		}
		for i, a := range batch {
			sets[i] = int32(g.Index(a.Addr))
		}
	case OddMultiplier:
		for i, a := range batch {
			sets[i] = int32(g.Index(a.Addr))
		}
	case PrimeModulo:
		for i, a := range batch {
			sets[i] = int32(g.Index(a.Addr))
		}
	default:
		for i, a := range batch {
			sets[i] = int32(f.Index(a.Addr))
		}
	}
}

// linearBatch is IndexBatch for an index function that is linear over
// GF(2), f(a^b) = f(a)^f(b): set(a) is then the XOR, over a's bytes, of
// the set that byte alone selects.  The byte tables are built from
// f.Index on single-bit addresses, so they hold f's own values, and
// only for the bytes the batch's addresses use.
//
//lint:hotpath set numbers of the GF(2)-linear index functions
func linearBatch(f Func, batch []trace.Access, sets []int32) {
	var used uint64
	for _, a := range batch {
		used |= uint64(a.Addr)
	}
	nbytes := 4
	if used>>32 != 0 {
		nbytes = 8
	}
	var tab [8][256]int32
	for k := 0; k < nbytes; k++ {
		t := &tab[k]
		for v := 1; v < 256; v++ {
			low := v & -v
			if v == low {
				t[v] = int32(f.Index(addr.Addr(v) << (8 * k)))
			} else {
				t[v] = t[v^low] ^ t[low]
			}
		}
	}
	if nbytes == 4 {
		for i, a := range batch {
			x := uint32(a.Addr)
			sets[i] = tab[0][x&0xff] ^ tab[1][x>>8&0xff] ^ tab[2][x>>16&0xff] ^ tab[3][x>>24]
		}
		return
	}
	for i, a := range batch {
		x := uint64(a.Addr)
		sets[i] = tab[0][x&0xff] ^ tab[1][x>>8&0xff] ^ tab[2][x>>16&0xff] ^ tab[3][x>>24&0xff] ^
			tab[4][x>>32&0xff] ^ tab[5][x>>40&0xff] ^ tab[6][x>>48&0xff] ^ tab[7][x>>56]
	}
}
