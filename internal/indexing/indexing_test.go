package indexing

import (
	"testing"
	"testing/quick"

	"cacheuniformity/internal/addr"
)

var layout = addr.MustLayout(32, 1024, 32)

// checkFuncContract verifies the properties every Func must satisfy:
// indices in range, purity, and block invariance.
func checkFuncContract(t *testing.T, f Func, l addr.Layout) {
	t.Helper()
	prop := func(raw uint32, off uint8) bool {
		a := addr.Addr(raw)
		idx := f.Index(a)
		if idx < 0 || idx >= f.Sets() {
			return false
		}
		if f.Index(a) != idx { // pure
			return false
		}
		// Block invariance: same block ⇒ same set.
		base := addr.Addr(uint64(a) &^ uint64(l.BlockBytes()-1))
		other := base + addr.Addr(int(off)%l.BlockBytes())
		return f.Index(base) == f.Index(other)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("%s violates Func contract: %v", f.Name(), err)
	}
}

func TestModulo(t *testing.T) {
	m := NewModulo(layout)
	if m.Name() != "modulo" || m.Sets() != 1024 {
		t.Errorf("identity: %q %d", m.Name(), m.Sets())
	}
	// 0x8000 >> 5 = 0x400 → set 0 (wraps at 1024); 0x7FE0>>5 = 1023.
	if got := m.Index(0x7FE0); got != 1023 {
		t.Errorf("Index(0x7FE0) = %d, want 1023", got)
	}
	if got := m.Index(0x8000); got != 0 {
		t.Errorf("Index(0x8000) = %d, want 0", got)
	}
	checkFuncContract(t, m, layout)
}

func TestXOR(t *testing.T) {
	x := NewXOR(layout)
	if x.Sets() != 1024 {
		t.Fatalf("Sets = %d", x.Sets())
	}
	// With zero tag, XOR must equal modulo.
	m := NewModulo(layout)
	for a := addr.Addr(0); a < 0x8000; a += 32 {
		if x.Index(a) != m.Index(a) {
			t.Fatalf("zero-tag XOR != modulo at %v", a)
		}
	}
	// Two addresses with equal index bits but different low tag bits must
	// land in different sets — the conflict-breaking property.
	a1 := layout.Compose(1, 5, 0)
	a2 := layout.Compose(2, 5, 0)
	if x.Index(a1) == x.Index(a2) {
		t.Error("XOR failed to separate same-index different-tag addresses")
	}
	checkFuncContract(t, x, layout)
}

func TestOddMultiplier(t *testing.T) {
	if _, err := NewOddMultiplier(layout, 8); err == nil {
		t.Error("even multiplier accepted")
	}
	om := MustOddMultiplier(layout, 21)
	if om.Name() != "odd_multiplier_21" {
		t.Errorf("Name = %q", om.Name())
	}
	// Zero tag degenerates to modulo.
	m := NewModulo(layout)
	for a := addr.Addr(0); a < 0x8000; a += 32 {
		if om.Index(a) != m.Index(a) {
			t.Fatalf("zero-tag odd-multiplier != modulo at %v", a)
		}
	}
	// Same index, consecutive tags must be displaced by p mod s.
	a1 := layout.Compose(1, 0, 0)
	a2 := layout.Compose(2, 0, 0)
	d := (om.Index(a2) - om.Index(a1) + 1024) % 1024
	if d != 21 {
		t.Errorf("tag displacement = %d, want 21", d)
	}
	checkFuncContract(t, om, layout)
	for _, p := range RecommendedMultipliers {
		checkFuncContract(t, MustOddMultiplier(layout, p), layout)
	}
}

func TestMustOddMultiplierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustOddMultiplier(even) did not panic")
		}
	}()
	MustOddMultiplier(layout, 10)
}

func TestPrimeModulo(t *testing.T) {
	pm := NewPrimeModulo(layout)
	if pm.P != 1021 {
		t.Errorf("prime for 1024 sets = %d, want 1021", pm.P)
	}
	if pm.Sets() != 1021 {
		t.Errorf("Sets = %d", pm.Sets())
	}
	// Fragmentation: indices 1021..1023 unreachable.
	seen := make([]bool, 1024)
	for a := addr.Addr(0); a < 1<<22; a += 32 {
		seen[pm.Index(a)] = true
	}
	for s := 1021; s < 1024; s++ {
		if seen[s] {
			t.Errorf("set %d reachable under prime modulo", s)
		}
	}
	checkFuncContract(t, pm, layout)
}

func TestPrimeModuloSmallerPrime(t *testing.T) {
	// A smaller prime than the largest ≤ S fragments further but keeps the
	// contract.
	pm := PrimeModulo{L: layout, P: 509}
	if pm.Sets() != 509 {
		t.Errorf("Sets = %d", pm.Sets())
	}
	checkFuncContract(t, pm, layout)
}

func TestBitSelection(t *testing.T) {
	if _, err := NewBitSelection("x", []uint{5, 5}); err == nil {
		t.Error("duplicate positions accepted")
	}
	if _, err := NewBitSelection("x", []uint{64}); err == nil {
		t.Error("out-of-range position accepted")
	}
	bs, err := NewBitSelection("custom", []uint{5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Sets() != 8 || bs.Name() != "custom" {
		t.Errorf("Sets=%d Name=%q", bs.Sets(), bs.Name())
	}
	// Address with bits 5 and 7 set → index 0b101 = 5.
	if got := bs.Index(addr.Addr(1<<5 | 1<<7)); got != 5 {
		t.Errorf("Index = %d, want 5", got)
	}
	// BitSelection over the conventional index bits equals modulo.
	conv, err := NewBitSelection("conv", []uint{5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	if err != nil {
		t.Fatal(err)
	}
	m := NewModulo(layout)
	f := func(raw uint32) bool { return conv.Index(addr.Addr(raw)) == m.Index(addr.Addr(raw)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXORBreaksPowerOfTwoStride(t *testing.T) {
	// A stride of exactly the cache span (sets × block) hammers one set
	// under modulo indexing but spreads under XOR.
	span := addr.Addr(1024 * 32)
	m, x := NewModulo(layout), NewXOR(layout)
	modSets := map[int]bool{}
	xorSets := map[int]bool{}
	for i := 0; i < 64; i++ {
		a := addr.Addr(i) * span
		modSets[m.Index(a)] = true
		xorSets[x.Index(a)] = true
	}
	if len(modSets) != 1 {
		t.Fatalf("modulo spread %d sets, want 1", len(modSets))
	}
	if len(xorSets) < 32 {
		t.Errorf("xor spread only %d sets over conflicting stride", len(xorSets))
	}
}
