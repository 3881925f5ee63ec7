package indexing

import (
	"math"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/trace"
)

// traceOf builds a read trace over the given addresses.
func traceOf(addrs ...uint64) trace.Trace {
	tr := make(trace.Trace, len(addrs))
	for i, a := range addrs {
		tr[i] = trace.Access{Addr: addr.Addr(a), Kind: trace.Read}
	}
	return tr
}

func TestProfileGivargisEmpty(t *testing.T) {
	if _, err := ProfileGivargisStream(traceOf().NewBatchReader(), layout, GivargisConfig{}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestGivargisQuality(t *testing.T) {
	// Four unique blocks where bit 5 alternates evenly (quality 1) and
	// bit 6 is constant (quality 0).
	tr := traceOf(0<<5, 1<<5, 2<<7, 2<<7|1<<5)
	p, err := ProfileGivargisStream(tr.NewBatchReader(), layout, GivargisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if q := p.Quality[5]; math.Abs(q-1) > 1e-12 {
		t.Errorf("quality of balanced bit = %v, want 1", q)
	}
	if q := p.Quality[6]; q != 0 {
		t.Errorf("quality of constant bit = %v, want 0", q)
	}
}

func TestGivargisCorrelation(t *testing.T) {
	// Blocks where bits 5 and 6 always equal → correlation min(E,D)/max = 0
	// (D=0).  Bits 5 and 7 half-equal → correlation 1.
	tr := traceOf(
		0,
		1<<5|1<<6,
		1<<7,
		1<<5|1<<6|1<<7,
	)
	p, err := ProfileGivargisStream(tr.NewBatchReader(), layout, GivargisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if c := p.Correlation[5][6]; c != 0 {
		t.Errorf("correlation of identical bits = %v, want 0", c)
	}
	if c := p.Correlation[5][7]; math.Abs(c-1) > 1e-12 {
		t.Errorf("correlation of independent bits = %v, want 1", c)
	}
	if p.Correlation[6][5] != p.Correlation[5][6] {
		t.Error("correlation matrix not symmetric")
	}
}

func TestSelectBitsPrefersQualityAndDecorrelates(t *testing.T) {
	// Construct unique blocks so that bits 5 and 6 are perfectly balanced
	// but identical (E=n → correlation ratio min(D,E)/max = 0 means *low*
	// correlation value... note the paper's C metric: min(E,D)/max(E,D);
	// identical bits have D=0 ⇒ C=0).  To exercise the damping we instead
	// check the selector never picks a zero-quality bit while positive-
	// quality candidates remain.
	tr := traceOf(0, 1<<5, 1<<6, 1<<5|1<<6, 1<<8, 1<<8|1<<5)
	p, err := ProfileGivargisStream(tr.NewBatchReader(), layout, GivargisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bits, err := p.SelectBits(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bits {
		if p.Quality[b] == 0 {
			// only allowed if every candidate with quality > 0 was taken
			positive := 0
			for _, c := range p.Candidates {
				if p.Quality[c] > 0 {
					positive++
				}
			}
			if positive >= 3 {
				t.Errorf("selected zero-quality bit %d; quality bits available", b)
			}
		}
	}
}

func TestSelectBitsErrors(t *testing.T) {
	tr := traceOf(0, 1<<5)
	p, err := ProfileGivargisStream(tr.NewBatchReader(), layout, GivargisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SelectBits(0); err == nil {
		t.Error("SelectBits(0) accepted")
	}
	if _, err := p.SelectBits(len(p.Candidates) + 1); err == nil {
		t.Error("SelectBits beyond candidates accepted")
	}
}

func TestNewGivargisContract(t *testing.T) {
	// A varied trace must produce a valid Func with 1024 sets.
	var addrs []uint64
	for i := uint64(0); i < 4000; i++ {
		addrs = append(addrs, i*96+(i%7)*4096)
	}
	g, err := NewGivargisStream(traceOf(addrs...).NewBatchReader(), layout, GivargisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "givargis" || g.Sets() != 1024 {
		t.Errorf("Name=%q Sets=%d", g.Name(), g.Sets())
	}
	checkFuncContract(t, g, layout)
	// Selected bits must be block-invariant positions (≥ offset bits).
	for _, b := range g.Positions {
		if b < layout.OffsetBits {
			t.Errorf("selected offset bit %d", b)
		}
	}
}

func TestNewGivargisXORContract(t *testing.T) {
	var addrs []uint64
	for i := uint64(0); i < 4000; i++ {
		addrs = append(addrs, i*32+(i%13)*65536)
	}
	g, err := NewGivargisXORStream(traceOf(addrs...).NewBatchReader(), layout, GivargisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "givargis_xor" || g.Sets() != 1024 {
		t.Errorf("Name=%q Sets=%d", g.Name(), g.Sets())
	}
	if len(g.TagBits) != int(layout.IndexBits) {
		t.Fatalf("selected %d tag bits, want %d", len(g.TagBits), layout.IndexBits)
	}
	tagStart := layout.OffsetBits + layout.IndexBits
	for _, b := range g.TagBits {
		if b < tagStart {
			t.Errorf("selected non-tag bit %d", b)
		}
	}
	checkFuncContract(t, g, layout)
	// With zero tag, GivargisXOR degenerates to modulo.
	m := NewModulo(layout)
	for a := addr.Addr(0); a < 0x8000; a += 32 {
		if g.Index(a) != m.Index(a) {
			t.Fatalf("zero-tag givargis-xor != modulo at %v", a)
		}
	}
}

func TestGivargisIncludeOffsetBits(t *testing.T) {
	// The flag changes the profiling population (byte vs block addresses);
	// the function must still be block-invariant and valid.
	var addrs []uint64
	for i := uint64(0); i < 2000; i++ {
		addrs = append(addrs, i*36+1)
	}
	g, err := NewGivargisStream(traceOf(addrs...).NewBatchReader(), layout, GivargisConfig{IncludeOffsetBits: true})
	if err != nil {
		t.Fatal(err)
	}
	checkFuncContract(t, g, layout)
}
