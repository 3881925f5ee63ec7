package indexing

import (
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/trace"
)

func TestFrequencyWeightedQualityDiffers(t *testing.T) {
	// One block at 1<<8 referenced 99 times, 99 distinct blocks with bit 8
	// clear referenced once each.  Unweighted: bit 8 splits 1/99 unique
	// addresses → quality 1/99.  Weighted: 99/99 references either side →
	// quality 1.
	var tr trace.Trace
	for i := 0; i < 99; i++ {
		tr = append(tr, trace.Access{Addr: 1 << 8, Kind: trace.Read})
		tr = append(tr, trace.Access{Addr: addr.Addr(addrOf(i)), Kind: trace.Read})
	}
	uw, err := ProfileGivargisStream(tr.NewBatchReader(), layout, GivargisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := ProfileGivargisStream(tr.NewBatchReader(), layout, GivargisConfig{FrequencyWeighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if uw.Quality[8] > 0.05 {
		t.Errorf("unweighted quality of rare-set bit = %v, want ≈ 1/99", uw.Quality[8])
	}
	if fw.Quality[8] < 0.9 {
		t.Errorf("weighted quality of hot bit = %v, want ≈ 1", fw.Quality[8])
	}
}

// addrOf spreads i over blocks with bit 8 clear (block stride 512 bytes,
// skipping any address with bit 8 set).
func addrOf(i int) uint64 { return uint64(i) * 512 }

func TestFrequencyWeightedStillValidFunc(t *testing.T) {
	var addrs []uint64
	for i := uint64(0); i < 3000; i++ {
		addrs = append(addrs, i*44+(i%9)*32768)
	}
	g, err := NewGivargisStream(traceOf(addrs...).NewBatchReader(), layout, GivargisConfig{FrequencyWeighted: true})
	if err != nil {
		t.Fatal(err)
	}
	checkFuncContract(t, g, layout)
}

func TestWeightedAndUnweightedAgreeOnUniformTrace(t *testing.T) {
	// When every block is referenced exactly once, the two modes must
	// produce identical profiles.
	var addrs []uint64
	for i := uint64(0); i < 2048; i++ {
		addrs = append(addrs, i*32)
	}
	tr := traceOf(addrs...)
	uw, err := ProfileGivargisStream(tr.NewBatchReader(), layout, GivargisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := ProfileGivargisStream(tr.NewBatchReader(), layout, GivargisConfig{FrequencyWeighted: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range uw.Quality {
		if uw.Quality[i] != fw.Quality[i] {
			t.Fatalf("quality[%d] differs: %v vs %v", i, uw.Quality[i], fw.Quality[i])
		}
	}
	for i := range uw.Correlation {
		for j := range uw.Correlation[i] {
			if uw.Correlation[i][j] != fw.Correlation[i][j] {
				t.Fatalf("correlation[%d][%d] differs", i, j)
			}
		}
	}
}
