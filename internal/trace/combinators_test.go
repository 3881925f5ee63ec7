package trace

import (
	"io"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/rng"
)

func drain(t *testing.T, r BatchReader) Trace {
	t.Helper()
	tr, err := CollectBatch(r, 0)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return tr
}

func TestLimit(t *testing.T) {
	tr := mkTrace(1, 2, 3, 4, 5)
	got := drain(t, LimitBatch(tr.NewBatchReader(), 2))
	if len(got) != 2 || got[1].Addr != 2 {
		t.Errorf("LimitBatch(2) = %v", got)
	}
	got = drain(t, LimitBatch(tr.NewBatchReader(), 100))
	if len(got) != 5 {
		t.Errorf("LimitBatch(100) len = %d", len(got))
	}
}

func TestFilter(t *testing.T) {
	tr := Trace{
		{Addr: 1, Kind: Read},
		{Addr: 2, Kind: Write},
		{Addr: 3, Kind: Read},
	}
	got := drain(t, FilterBatch(tr.NewBatchReader(), func(a Access) bool { return a.Kind == Read }))
	if len(got) != 2 || got[0].Addr != 1 || got[1].Addr != 3 {
		t.Errorf("FilterBatch = %v", got)
	}
}

func TestMap(t *testing.T) {
	tr := mkTrace(0x10, 0x20)
	got := drain(t, MapBatch(tr.NewBatchReader(), func(a Access) Access {
		a.Addr += 1
		return a
	}))
	if len(got) != 2 || got[0].Addr != 0x11 || got[1].Addr != 0x21 {
		t.Errorf("MapBatch = %v", got)
	}
}

func TestConcat(t *testing.T) {
	a, b := mkTrace(1, 2), mkTrace(3)
	got := drain(t, ConcatBatch(a.NewBatchReader(), b.NewBatchReader()))
	if len(got) != 3 || got[2].Addr != 3 {
		t.Errorf("ConcatBatch = %v", got)
	}
}

func TestRoundRobin(t *testing.T) {
	a, b := mkTrace(1, 2, 3), mkTrace(10, 20)
	got := drain(t, RoundRobinBatch(a.NewBatchReader(), b.NewBatchReader()))
	wantAddrs := []uint64{1, 10, 2, 20, 3}
	wantThreads := []uint8{0, 1, 0, 1, 0}
	if len(got) != len(wantAddrs) {
		t.Fatalf("RoundRobinBatch len = %d, want %d", len(got), len(wantAddrs))
	}
	for i := range got {
		if uint64(got[i].Addr) != wantAddrs[i] || got[i].Thread != wantThreads[i] {
			t.Errorf("access %d = %+v, want addr %d thread %d", i, got[i], wantAddrs[i], wantThreads[i])
		}
	}
}

func TestRoundRobinSkipsExhausted(t *testing.T) {
	a, b, c := mkTrace(1), mkTrace(10, 20, 30), Trace{}
	got := drain(t, RoundRobinBatch(a.NewBatchReader(), b.NewBatchReader(), c.NewBatchReader()))
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	// After stream 0 and 2 end, thread 1 continues alone.
	if got[3].Thread != 1 || uint64(got[3].Addr) != 30 {
		t.Errorf("tail access = %+v", got[3])
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	r := RoundRobinBatch()
	if n, err := r.ReadBatch(make([]Access, 4)); n != 0 || err != io.EOF {
		t.Errorf("empty RoundRobinBatch = (%d, %v), want (0, io.EOF)", n, err)
	}
}

func TestStochasticCoversAllStreams(t *testing.T) {
	a := make(Trace, 500)
	b := make(Trace, 500)
	for i := range a {
		a[i] = Access{Addr: addr.Addr(i)}
		b[i] = Access{Addr: addr.Addr(1000 + i)}
	}
	got := drain(t, StochasticBatch(rng.New(1), a.NewBatchReader(), b.NewBatchReader()))
	if len(got) != 1000 {
		t.Fatalf("len = %d", len(got))
	}
	counts := map[uint8]int{}
	for _, acc := range got {
		counts[acc.Thread]++
	}
	if counts[0] != 500 || counts[1] != 500 {
		t.Errorf("thread counts = %v", counts)
	}
	// Per-stream order must be preserved.
	last := -1
	for _, acc := range got {
		if acc.Thread == 0 {
			if int(acc.Addr) <= last {
				t.Fatal("stream 0 order violated")
			}
			last = int(acc.Addr)
		}
	}
}

func TestStochasticDeterministic(t *testing.T) {
	mk := func() BatchReader {
		return StochasticBatch(rng.New(42), mkTrace(1, 2, 3).NewBatchReader(), mkTrace(4, 5, 6).NewBatchReader())
	}
	a, b := drain(t, mk()), drain(t, mk())
	if len(a) != 6 || len(b) != 6 {
		t.Fatalf("lengths %d and %d, want 6", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stochastic interleave not deterministic at %d", i)
		}
	}
}

// TestStochasticBatchAllocsPerAccess pins that the interleave allocates
// only at construction: the draw must not build a fresh live-stream list
// for every access.
func TestStochasticBatchAllocsPerAccess(t *testing.T) {
	const n = 10_000
	a, b := batchSample(n), batchSample(n)
	dst := make([]Access, DefaultBatch)
	allocs := testing.AllocsPerRun(5, func() {
		r := StochasticBatch(rng.New(3), a.NewBatchReader(), b.NewBatchReader())
		for {
			if k, _ := r.ReadBatch(dst); k == 0 {
				return
			}
		}
	})
	if allocs > 32 {
		t.Fatalf("StochasticBatch over %d accesses made %.0f allocations, want O(inputs)", 2*n, allocs)
	}
}
