package addr

import (
	"testing"
	"testing/quick"
)

func TestNewLayoutValid(t *testing.T) {
	l, err := NewLayout(32, 1024, 32)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	if l.OffsetBits != 5 {
		t.Errorf("OffsetBits = %d, want 5", l.OffsetBits)
	}
	if l.IndexBits != 10 {
		t.Errorf("IndexBits = %d, want 10", l.IndexBits)
	}
	if got := l.TagBits(); got != 17 {
		t.Errorf("TagBits = %d, want 17", got)
	}
	if got := l.Sets(); got != 1024 {
		t.Errorf("Sets = %d, want 1024", got)
	}
	if got := l.BlockBytes(); got != 32 {
		t.Errorf("BlockBytes = %d, want 32", got)
	}
}

func TestNewLayoutErrors(t *testing.T) {
	cases := []struct {
		name        string
		block, sets int
		bits        uint
	}{
		{"non-pow2 block", 33, 1024, 32},
		{"zero block", 0, 1024, 32},
		{"negative block", -32, 1024, 32},
		{"non-pow2 sets", 32, 1000, 32},
		{"zero sets", 32, 0, 32},
		{"zero address bits", 32, 1024, 0},
		{"too wide", 32, 1024, 65},
		{"fields exceed width", 1 << 20, 1 << 20, 32},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewLayout(c.block, c.sets, c.bits); err == nil {
				t.Errorf("NewLayout(%d, %d, %d) succeeded, want error", c.block, c.sets, c.bits)
			}
		})
	}
}

func TestMustLayoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLayout with bad geometry did not panic")
		}
	}()
	MustLayout(3, 1024, 32)
}

func TestFieldExtraction(t *testing.T) {
	l := MustLayout(32, 1024, 32)
	// addr = tag 0x1ABCD, index 0x2A5, offset 0x13
	a := l.Compose(0x1ABCD, 0x2A5, 0x13)
	if got := l.Offset(a); got != 0x13 {
		t.Errorf("Offset = %#x, want 0x13", got)
	}
	if got := l.Index(a); got != 0x2A5 {
		t.Errorf("Index = %#x, want 0x2a5", got)
	}
	if got := l.Tag(a); got != 0x1ABCD {
		t.Errorf("Tag = %#x, want 0x1abcd", got)
	}
}

func TestComposeTruncates(t *testing.T) {
	l := MustLayout(32, 1024, 32)
	a := l.Compose(^uint64(0), ^uint64(0), ^uint64(0))
	if uint64(a) >= 1<<32 {
		t.Errorf("Compose produced %#x, exceeds 32-bit space", uint64(a))
	}
	if got := l.Offset(a); got != 31 {
		t.Errorf("truncated offset = %d, want 31", got)
	}
	if got := l.Index(a); got != 1023 {
		t.Errorf("truncated index = %d, want 1023", got)
	}
}

func TestComposeRoundTrip(t *testing.T) {
	l := MustLayout(64, 512, 32)
	f := func(raw uint32) bool {
		a := Addr(raw)
		back := l.Compose(l.Tag(a), l.Index(a), l.Offset(a))
		return back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	l := MustLayout(32, 1024, 32)
	f := func(raw uint32) bool {
		a := Addr(raw)
		b := l.Block(a)
		base := l.BlockAddr(b)
		// base must be block-aligned and share the block number.
		return l.Offset(base) == 0 && l.Block(base) == b && uint64(base) <= uint64(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitOps(t *testing.T) {
	a := Addr(0b1010)
	if a.Bit(1) != 1 || a.Bit(0) != 0 {
		t.Errorf("Bit extraction wrong: %v %v", a.Bit(1), a.Bit(0))
	}
	if got := a.Bits(1, 3); got != 0b101 {
		t.Errorf("Bits(1,3) = %#b, want 0b101", got)
	}
	if got := a.Bits(0, 0); got != 0 {
		t.Errorf("Bits width 0 = %d, want 0", got)
	}
	if got := a.Bits(0, 64); got != 0b1010 {
		t.Errorf("Bits width 64 = %#b, want 0b1010", got)
	}
	if got := a.WithBit(0, 1); got != 0b1011 {
		t.Errorf("WithBit set = %#b", got)
	}
	if got := a.WithBit(1, 0); got != 0b1000 {
		t.Errorf("WithBit clear = %#b", got)
	}
	if got := a.FlipBit(3); got != 0b0010 {
		t.Errorf("FlipBit = %#b", got)
	}
}

func TestAddrString(t *testing.T) {
	if got := Addr(0xdeadbeef).String(); got != "0xdeadbeef" {
		t.Errorf("String = %q", got)
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []int{1, 2, 4, 1024, 1 << 30} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false", v)
		}
	}
	for _, v := range []int{0, -1, -2, 3, 6, 1000} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true", v)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 1024: 10, 0: -1, -5: -1}
	for in, want := range cases {
		if got := Log2(in); got != want {
			t.Errorf("Log2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPropertyIndexWithinRange(t *testing.T) {
	l := MustLayout(32, 1024, 32)
	f := func(raw uint32) bool {
		return l.Index(Addr(raw)) < uint64(l.Sets())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySameBlockSameIndex(t *testing.T) {
	l := MustLayout(32, 1024, 32)
	f := func(raw uint32, off uint8) bool {
		a := Addr(raw &^ 31) // block-aligned
		b := a + Addr(off%32)
		return l.Index(a) == l.Index(b) && l.Tag(a) == l.Tag(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
