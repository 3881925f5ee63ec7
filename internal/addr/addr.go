// Package addr models memory addresses and the bit-level plumbing used by
// cache indexing schemes.
//
// Throughout the repository an address is an Addr (uint64), but the
// simulated machines follow the paper's setup: a 32-bit virtual address
// space (Alpha binaries compiled for SimpleScalar expose 32 significant
// bits to the L1 caches).  A Layout describes how an address splits into
// byte-offset, index and tag fields for a particular cache geometry, and
// provides the field extraction helpers every indexing scheme builds on.
package addr

import (
	"fmt"
	"math/bits"
)

// Addr is a byte address in the simulated machine.
type Addr uint64

// DefaultAddressBits is the number of significant address bits used when a
// workload or layout does not specify otherwise.  The paper simulates Alpha
// binaries whose data segments fit comfortably in a 32-bit space.
const DefaultAddressBits = 32

// MaxAddressBits bounds the address widths this package accepts.
const MaxAddressBits = 64

// Bit returns bit i of a (0 = least significant).
func (a Addr) Bit(i uint) uint64 {
	return (uint64(a) >> i) & 1
}

// Bits extracts the field a[lo : lo+width), i.e. width bits starting at bit
// lo.  A width of 0 returns 0; widths ≥ 64 return the whole shifted value.
func (a Addr) Bits(lo, width uint) uint64 {
	if width == 0 {
		return 0
	}
	v := uint64(a) >> lo
	if width >= 64 {
		return v
	}
	return v & ((1 << width) - 1)
}

// WithBit returns a copy of a with bit i forced to v (v must be 0 or 1).
func (a Addr) WithBit(i uint, v uint64) Addr {
	mask := uint64(1) << i
	if v&1 == 1 {
		return Addr(uint64(a) | mask)
	}
	return Addr(uint64(a) &^ mask)
}

// FlipBit returns a copy of a with bit i inverted.
func (a Addr) FlipBit(i uint) Addr {
	return Addr(uint64(a) ^ (1 << i))
}

// String formats the address as 0x-prefixed hexadecimal.
func (a Addr) String() string { return fmt.Sprintf("%#x", uint64(a)) }

// Layout describes how addresses decompose for one cache geometry.
//
//	| tag (TagBits) | index (IndexBits) | byte offset (OffsetBits) |
//
// The zero value is not valid; use NewLayout.
type Layout struct {
	// OffsetBits is log2(block size in bytes).
	OffsetBits uint
	// IndexBits is log2(number of sets).
	IndexBits uint
	// AddressBits is the total number of significant address bits.
	AddressBits uint
}

// NewLayout builds a Layout for a cache with the given block size and set
// count, within an addressBits-wide address space.  blockBytes and sets must
// be powers of two, and the three fields must fit in addressBits.
func NewLayout(blockBytes, sets int, addressBits uint) (Layout, error) {
	if blockBytes <= 0 || !IsPow2(blockBytes) {
		return Layout{}, fmt.Errorf("addr: block size %d is not a positive power of two", blockBytes)
	}
	if sets <= 0 || !IsPow2(sets) {
		return Layout{}, fmt.Errorf("addr: set count %d is not a positive power of two", sets)
	}
	if addressBits == 0 || addressBits > MaxAddressBits {
		return Layout{}, fmt.Errorf("addr: address width %d out of range (1..%d)", addressBits, MaxAddressBits)
	}
	l := Layout{
		OffsetBits:  uint(bits.TrailingZeros(uint(blockBytes))),
		IndexBits:   uint(bits.TrailingZeros(uint(sets))),
		AddressBits: addressBits,
	}
	if l.OffsetBits+l.IndexBits > addressBits {
		return Layout{}, fmt.Errorf("addr: offset (%d) + index (%d) bits exceed address width %d",
			l.OffsetBits, l.IndexBits, addressBits)
	}
	return l, nil
}

// MustLayout is NewLayout but panics on error; for tests and constants.
//
//lint:allow nopanic Must-prefixed variant documented to panic; callers with dynamic geometry use NewLayout.
func MustLayout(blockBytes, sets int, addressBits uint) Layout {
	l, err := NewLayout(blockBytes, sets, addressBits)
	if err != nil {
		panic(err)
	}
	return l
}

// TagBits returns the width of the tag field.
func (l Layout) TagBits() uint { return l.AddressBits - l.OffsetBits - l.IndexBits }

// Sets returns the number of sets the layout indexes (2^IndexBits).
func (l Layout) Sets() int { return 1 << l.IndexBits }

// BlockBytes returns the block size in bytes (2^OffsetBits).
func (l Layout) BlockBytes() int { return 1 << l.OffsetBits }

// Offset extracts the byte-offset field of a.
func (l Layout) Offset(a Addr) uint64 { return a.Bits(0, l.OffsetBits) }

// Index extracts the conventional (modulo) index field of a.
func (l Layout) Index(a Addr) uint64 { return a.Bits(l.OffsetBits, l.IndexBits) }

// Tag extracts the tag field of a.
func (l Layout) Tag(a Addr) uint64 { return a.Bits(l.OffsetBits+l.IndexBits, l.TagBits()) }

// Block returns the block address (address with the byte offset stripped),
// i.e. the unit of cache residency.  Two addresses in the same block always
// map to the same set under every scheme in this repository.
func (l Layout) Block(a Addr) uint64 { return uint64(a) >> l.OffsetBits }

// BlockAddr reconstructs the lowest byte address of block b.
func (l Layout) BlockAddr(b uint64) Addr { return Addr(b << l.OffsetBits) }

// Compose builds an address from tag, index and offset fields.  Fields wider
// than their slots are truncated, mirroring hardware wiring.
func (l Layout) Compose(tag, index, offset uint64) Addr {
	off := offset & maskBits(l.OffsetBits)
	idx := index & maskBits(l.IndexBits)
	tg := tag & maskBits(l.TagBits())
	return Addr(off | idx<<l.OffsetBits | tg<<(l.OffsetBits+l.IndexBits))
}

func maskBits(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (1 << w) - 1
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Log2 returns floor(log2(v)) for v > 0, and -1 for v <= 0.
func Log2(v int) int {
	if v <= 0 {
		return -1
	}
	return bits.Len(uint(v)) - 1
}
