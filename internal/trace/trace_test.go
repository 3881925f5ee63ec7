package trace

import (
	"errors"
	"reflect"
	"testing"

	"cacheuniformity/internal/addr"
)

var testLayout = addr.MustLayout(32, 1024, 32)

func mkTrace(addrs ...uint64) Trace {
	t := make(Trace, len(addrs))
	for i, a := range addrs {
		t[i] = Access{Addr: addr.Addr(a), Kind: Read}
	}
	return t
}

func TestKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" || Fetch.String() != "F" {
		t.Error("kind mnemonics wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind string = %q", Kind(9).String())
	}
	if !Read.Valid() || !Fetch.Valid() || Kind(3).Valid() {
		t.Error("Valid wrong")
	}
}

// errBatchReader fails every read with err.
type errBatchReader struct{ err error }

func (e errBatchReader) ReadBatch([]Access) (int, error) { return 0, e.err }

// TestCollectError checks that CollectBatch hands back a stream error
// together with the accesses read before it.
func TestCollectError(t *testing.T) {
	sentinel := errors.New("boom")
	if _, err := CollectBatch(errBatchReader{sentinel}, 0); !errors.Is(err, sentinel) {
		t.Errorf("CollectBatch error = %v", err)
	}
	r := ConcatBatch(mkTrace(1, 2).NewBatchReader(), errBatchReader{sentinel})
	got, err := CollectBatch(r, 0)
	if !errors.Is(err, sentinel) || len(got) != 2 {
		t.Errorf("CollectBatch after 2 accesses = (%v, %v), want the 2 accesses and the error", got, err)
	}
}

func TestUniqueBlocks(t *testing.T) {
	// 0x100 and 0x11F share a 32-byte block; 0x120 is the next block.
	tr := mkTrace(0x100, 0x11F, 0x120, 0x100)
	blocks := tr.UniqueBlocks(testLayout)
	if len(blocks) != 2 {
		t.Fatalf("unique blocks = %d, want 2", len(blocks))
	}
	if blocks[0] != 0x100 || blocks[1] != 0x120 {
		t.Errorf("blocks = %v (first-touch order expected)", blocks)
	}
}

func TestThreadsAndFilter(t *testing.T) {
	tr := Trace{
		{Addr: 1, Thread: 0},
		{Addr: 2, Thread: 2},
		{Addr: 3, Thread: 0},
	}
	if got := tr.Threads(); !reflect.DeepEqual(got, []uint8{0, 2}) {
		t.Errorf("Threads = %v", got)
	}
	t0 := tr.FilterThread(0)
	if len(t0) != 2 || t0[0].Addr != 1 || t0[1].Addr != 3 {
		t.Errorf("FilterThread(0) = %v", t0)
	}
	if got := tr.FilterThread(7); len(got) != 0 {
		t.Errorf("FilterThread(7) = %v", got)
	}
	rel := tr.WithThread(5)
	for _, a := range rel {
		if a.Thread != 5 {
			t.Errorf("WithThread left %v", a)
		}
	}
	// original untouched
	if tr[1].Thread != 2 {
		t.Error("WithThread mutated the receiver")
	}
}

func TestSummarize(t *testing.T) {
	tr := Trace{
		{Addr: 0x100, Kind: Read},
		{Addr: 0x104, Kind: Write},
		{Addr: 0x200, Kind: Fetch},
		{Addr: 0x50, Kind: Read},
	}
	s := tr.Summarize(testLayout)
	if s.Accesses != 4 || s.Reads != 2 || s.Writes != 1 || s.Fetches != 1 {
		t.Errorf("counts: %+v", s)
	}
	if s.MinAddr != 0x50 || s.MaxAddr != 0x200 {
		t.Errorf("range: %+v", s)
	}
	if s.UniqueBlocks != 3 { // 0x100/0x104 share a block
		t.Errorf("UniqueBlocks = %d, want 3", s.UniqueBlocks)
	}
	empty := Trace{}.Summarize(testLayout)
	if empty.Accesses != 0 || empty.UniqueBlocks != 0 {
		t.Errorf("empty summary: %+v", empty)
	}
}
