package trace

import (
	"bytes"
	"io"
	"testing"

	"cacheuniformity/internal/addr"
)

func batchSample(n int) Trace {
	tr := make(Trace, n)
	for i := range tr {
		tr[i] = Access{Addr: addr.Addr(0x1000 + uint64(i*7%97)*32), Kind: Kind(i % 3), Thread: uint8(i % 4)}
	}
	return tr
}

func TestSliceBatchReaderContract(t *testing.T) {
	tr := batchSample(10)
	r := tr.NewBatchReader()
	buf := make([]Access, 4)
	var got Trace
	for {
		n, err := r.ReadBatch(buf)
		if n > 0 && err != nil {
			t.Fatalf("n=%d with err=%v", n, err)
		}
		got = append(got, buf[:n]...)
		if n == 0 {
			if err != io.EOF {
				t.Fatalf("exhausted reader returned %v, want io.EOF", err)
			}
			break
		}
	}
	if len(got) != len(tr) {
		t.Fatalf("read %d accesses, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("access %d = %v, want %v", i, got[i], tr[i])
		}
	}
	// Empty dst is the one case allowed to return (0, nil), even mid-stream.
	r2 := tr.NewBatchReader()
	if n, err := r2.ReadBatch(nil); n != 0 || err != nil {
		t.Fatalf("ReadBatch(nil) = (%d, %v), want (0, nil)", n, err)
	}
	if n, err := r2.ReadBatch(buf); n != 4 || err != nil {
		t.Fatalf("read after empty dst = (%d, %v)", n, err)
	}
}

func TestCollectBatchLimits(t *testing.T) {
	tr := batchSample(100)
	// max <= 0 means unlimited.
	for _, max := range []int{0, -5} {
		got, err := CollectBatch(tr.NewBatchReader(), max)
		if err != nil || len(got) != 100 {
			t.Fatalf("CollectBatch(max=%d) = %d accesses, %v", max, len(got), err)
		}
	}
	got, err := CollectBatch(tr.NewBatchReader(), 7)
	if err != nil || len(got) != 7 {
		t.Fatalf("CollectBatch(max=7) = %d accesses, %v", len(got), err)
	}
	// Collecting an empty stream yields an empty trace, not an error.
	got, err = CollectBatch(Trace{}.NewBatchReader(), 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("CollectBatch(empty) = %d accesses, %v", len(got), err)
	}
}

func TestLimitBatchNonPositive(t *testing.T) {
	tr := batchSample(10)
	for _, n := range []int{0, -1} {
		r := LimitBatch(tr.NewBatchReader(), n)
		buf := make([]Access, 4)
		if got, err := r.ReadBatch(buf); got != 0 || err != io.EOF {
			t.Fatalf("LimitBatch(%d).ReadBatch = (%d, %v), want (0, io.EOF)", n, got, err)
		}
	}
}

func TestBatchCombinatorsOnEmptySources(t *testing.T) {
	empty := Trace{}
	buf := make([]Access, 4)
	cases := []struct {
		name string
		r    BatchReader
	}{
		{"limit", LimitBatch(empty.NewBatchReader(), 10)},
		{"filter", FilterBatch(empty.NewBatchReader(), func(Access) bool { return true })},
		{"map", MapBatch(empty.NewBatchReader(), func(a Access) Access { return a })},
		{"concat_none", ConcatBatch()},
		{"concat_empty", ConcatBatch(empty.NewBatchReader(), empty.NewBatchReader())},
		{"roundrobin", RoundRobinBatch(empty.NewBatchReader(), empty.NewBatchReader())},
	}
	for _, c := range cases {
		if n, err := c.r.ReadBatch(buf); n != 0 || err != io.EOF {
			t.Errorf("%s over empty sources: ReadBatch = (%d, %v), want (0, io.EOF)", c.name, n, err)
		}
	}
	// FilterBatch that rejects everything must also terminate with EOF.
	fr := FilterBatch(batchSample(50).NewBatchReader(), func(Access) bool { return false })
	if n, err := fr.ReadBatch(buf); n != 0 || err != io.EOF {
		t.Errorf("all-rejecting filter: ReadBatch = (%d, %v), want (0, io.EOF)", n, err)
	}
}

func TestTraceStreamReplays(t *testing.T) {
	tr := batchSample(33)
	sf := tr.Stream()
	for pass := 0; pass < 2; pass++ {
		got, err := CollectBatch(sf(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tr) {
			t.Fatalf("pass %d: %d accesses, want %d", pass, len(got), len(tr))
		}
		for i := range tr {
			if got[i] != tr[i] {
				t.Fatalf("pass %d: access %d differs", pass, i)
			}
		}
	}
}

func TestCursorRoundTrip(t *testing.T) {
	tr := batchSample(b3)
	cur := NewCursor(tr.NewBatchReader())
	for i := range tr {
		a, err := cur.Next()
		if err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		if a != tr[i] {
			t.Fatalf("access %d = %v, want %v", i, a, tr[i])
		}
	}
	if _, err := cur.Next(); err != io.EOF {
		t.Fatalf("post-end Next: %v, want io.EOF", err)
	}
	if _, err := cur.Next(); err != io.EOF {
		t.Fatalf("second post-end Next: %v, want io.EOF", err)
	}
}

const b3 = 3*DefaultBatch + 17 // forces several internal refills plus a partial batch

// TestStreamCodecsRoundTrip checks the v2 streaming encoders against the
// batch decoders, and that the decoders still accept v1 counted files.
func TestStreamCodecsRoundTrip(t *testing.T) {
	tr := batchSample(500)
	type codec struct {
		name  string
		magic string
		enc   func(io.Writer, BatchReader) (int, error)
		dec   func(io.Reader) (BatchReader, error)
	}
	codecs := []codec{
		{"binary", binaryMagic, EncodeBinary, NewBinaryBatchReader},
		{"compact", compactMagic, EncodeCompact, NewCompactBatchReader},
	}
	for _, c := range codecs {
		v2 := encode(t, c.enc, tr)
		for version, data := range map[string][]byte{
			"v2": v2,
			"v1": v1File(c.magic, len(tr), v2[headerSize:]),
		} {
			got, err := decode(c.dec, data)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, version, err)
			}
			diffTraces(t, c.name+" "+version, tr, got)
		}
	}

	// Text has no version header; just check stream-encode → batch-decode.
	got, err := CollectBatch(NewTextBatchReader(bytes.NewReader(encode(t, EncodeText, tr))), 0)
	if err != nil {
		t.Fatalf("text: decode: %v", err)
	}
	diffTraces(t, "text", tr, got)
}

// TestStreamCodecsEmpty pins the zero-access behaviour of the streaming
// writers: a valid header, zero records, immediate EOF on decode.
func TestStreamCodecsEmpty(t *testing.T) {
	var bin bytes.Buffer
	if n, err := EncodeBinary(&bin, Trace{}.NewBatchReader()); n != 0 || err != nil {
		t.Fatalf("encode empty: (%d, %v)", n, err)
	}
	dec, err := NewBinaryBatchReader(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := dec.ReadBatch(make([]Access, 4)); n != 0 || err != io.EOF {
		t.Fatalf("decode empty: (%d, %v), want (0, io.EOF)", n, err)
	}
}

func diffTraces(t *testing.T, name string, want, got Trace) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d accesses, want %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: access %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}
