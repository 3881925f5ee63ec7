package trace

import (
	"io"
	"testing"
)

func drain(t *testing.T, r BatchReader) Trace {
	t.Helper()
	tr, err := CollectBatch(r, 0)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return tr
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
