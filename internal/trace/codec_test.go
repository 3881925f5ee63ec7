package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cacheuniformity/internal/addr"
)

func sampleTrace() Trace {
	return Trace{
		{Addr: 0xdeadbeef, Kind: Read, Thread: 0},
		{Addr: 0x1000, Kind: Write, Thread: 1},
		{Addr: 0xffffffff, Kind: Fetch, Thread: 3},
	}
}

// v1File builds a version-1 counted file by hand: the 16-byte header
// (magic, version 1, record count, pad) followed by raw record bytes.
// Record encodings are the same in v1 and v2, so records may come from a
// v2 stream with its header stripped.
func v1File(magic string, count int, records []byte) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint16(hdr[4:6], 1)
	binary.LittleEndian.PutUint64(hdr[6:14], uint64(count))
	return append(hdr, records...)
}

// encode runs a streaming encoder over tr and returns the bytes.
func encode(t testing.TB, enc func(io.Writer, BatchReader) (int, error), tr Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if n, err := enc(&buf, tr.NewBatchReader()); err != nil || n != len(tr) {
		t.Fatalf("encode = (%d, %v), want (%d, nil)", n, err, len(tr))
	}
	return buf.Bytes()
}

// decode opens data with a header-validating reader and drains it; the
// error is the header's or the stream's.
func decode(open func(io.Reader) (BatchReader, error), data []byte) (Trace, error) {
	r, err := open(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return CollectBatch(r, 0)
}

// v1Binary and v1Compact are v1 counted files holding tr.
func v1Binary(t testing.TB, tr Trace) []byte {
	return v1File(binaryMagic, len(tr), encode(t, EncodeBinary, tr)[headerSize:])
}

func v1Compact(t testing.TB, tr Trace) []byte {
	return v1File(compactMagic, len(tr), encode(t, EncodeCompact, tr)[headerSize:])
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, data := range map[string][]byte{
		"v2": encode(t, EncodeBinary, sampleTrace()),
		"v1": v1Binary(t, sampleTrace()),
	} {
		got, err := decode(NewBinaryBatchReader, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, sampleTrace()) {
			t.Errorf("%s round trip = %v", name, got)
		}
	}
}

// TestBinaryEmptyTrace pins a v1 file with a zero count; the v2 empty
// stream is TestStreamCodecsEmpty.
func TestBinaryEmptyTrace(t *testing.T) {
	got, err := decode(NewBinaryBatchReader, v1File(binaryMagic, 0, nil))
	if err != nil || len(got) != 0 {
		t.Errorf("empty v1 file = (%v, %v)", got, err)
	}
	// A zero count ends the stream even when bytes follow.
	got, err = decode(NewBinaryBatchReader, v1File(binaryMagic, 0, make([]byte, recordSize)))
	if err != nil || len(got) != 0 {
		t.Errorf("zero-count v1 file with trailing bytes = (%v, %v)", got, err)
	}
}

func TestBinaryQuickRoundTrip(t *testing.T) {
	f := func(addrs []uint32, kinds []uint8) bool {
		tr := make(Trace, len(addrs))
		for i, a := range addrs {
			k := Read
			if i < len(kinds) {
				k = Kind(kinds[i] % 3)
			}
			tr[i] = Access{Addr: addr.Addr(a), Kind: k, Thread: uint8(i % 4)}
		}
		got, err := decode(NewBinaryBatchReader, encode(t, EncodeBinary, tr))
		return err == nil && len(got) == len(tr) && (len(tr) == 0 || reflect.DeepEqual(got, tr))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinaryBadInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short":       []byte("CU"),
		"bad magic":   append([]byte("XXXX"), make([]byte, 12)...),
		"bad version": append([]byte("CUTR\xff\xff"), make([]byte, 10)...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := NewBinaryBatchReader(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
				t.Errorf("err = %v, want ErrBadFormat", err)
			}
		})
	}
}

// TestBinaryTruncatedRecords cuts a file mid-record: a v1 file whose
// count promises more records than it holds, and a v2 stream that ends
// inside a record.
func TestBinaryTruncatedRecords(t *testing.T) {
	for name, data := range map[string][]byte{
		"v1": v1Binary(t, sampleTrace()),
		"v2": encode(t, EncodeBinary, sampleTrace()),
	} {
		got, err := decode(NewBinaryBatchReader, data[:len(data)-5])
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s truncated err = %v", name, err)
		}
		if len(got) != len(sampleTrace())-1 {
			t.Errorf("%s truncated: %d whole records decoded, want %d", name, len(got), len(sampleTrace())-1)
		}
	}
	// A v1 count larger than the record bytes is truncation too, even at
	// a record boundary.
	short := v1File(binaryMagic, 4, encode(t, EncodeBinary, sampleTrace())[headerSize:])
	if _, err := decode(NewBinaryBatchReader, short); !errors.Is(err, ErrBadFormat) {
		t.Errorf("v1 count beyond records err = %v", err)
	}
}

func TestBinaryInvalidKind(t *testing.T) {
	rec := []byte{1, 0, 0, 0, 0, 0, 0, 0, 7, 0} // addr 1, kind 7, thread 0
	if _, err := decode(NewBinaryBatchReader, v1File(binaryMagic, 1, rec)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("invalid kind err = %v", err)
	}
}

func TestBinaryHugeCountRejected(t *testing.T) {
	hdr := make([]byte, 16)
	copy(hdr, "CUTR")
	hdr[4] = 1 // version
	for i := 6; i < 14; i++ {
		hdr[i] = 0xff
	}
	if _, err := NewBinaryBatchReader(bytes.NewReader(hdr)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("huge count err = %v", err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	got, err := CollectBatch(NewTextBatchReader(bytes.NewReader(encode(t, EncodeText, sampleTrace()))), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleTrace()) {
		t.Errorf("text round trip = %v\nwant %v", got, sampleTrace())
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\nR 0x10 0\n  \nW 16 1\n"
	got, err := CollectBatch(NewTextBatchReader(strings.NewReader(in)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Addr != 0x10 || got[1].Addr != 16 {
		t.Errorf("parsed = %v", got)
	}
}

func TestTextErrors(t *testing.T) {
	cases := map[string]string{
		"bad fields": "R 0x10\n",
		"bad kind":   "Q 0x10 0\n",
		"bad addr":   "R zz 0\n",
		"bad thread": "R 0x10 900\n",
		"neg thread": "R 0x10 -1\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := CollectBatch(NewTextBatchReader(strings.NewReader(in)), 0); !errors.Is(err, ErrBadFormat) {
				t.Errorf("decoding %q: err = %v, want ErrBadFormat", in, err)
			}
		})
	}
}

func TestCompactRoundTrip(t *testing.T) {
	for name, data := range map[string][]byte{
		"v2": encode(t, EncodeCompact, sampleTrace()),
		"v1": v1Compact(t, sampleTrace()),
	} {
		got, err := decode(NewCompactBatchReader, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, sampleTrace()) {
			t.Errorf("%s round trip = %v", name, got)
		}
	}
}

func TestCompactEmpty(t *testing.T) {
	for name, data := range map[string][]byte{
		"v2": encode(t, EncodeCompact, nil),
		"v1": v1File(compactMagic, 0, nil),
	} {
		got, err := decode(NewCompactBatchReader, data)
		if err != nil || len(got) != 0 {
			t.Errorf("%s empty round trip: %v %v", name, got, err)
		}
	}
}

func TestCompactQuickRoundTrip(t *testing.T) {
	f := func(addrs []uint32, kinds []uint8, threads []uint8) bool {
		tr := make(Trace, len(addrs))
		for i, a := range addrs {
			k := Read
			if i < len(kinds) {
				k = Kind(kinds[i] % 3)
			}
			var th uint8
			if i < len(threads) {
				th = threads[i] % 8
			}
			tr[i] = Access{Addr: addr.Addr(a), Kind: k, Thread: th}
		}
		got, err := decode(NewCompactBatchReader, encode(t, EncodeCompact, tr))
		return err == nil && len(got) == len(tr) && (len(tr) == 0 || reflect.DeepEqual(got, tr))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompactLargeDeltas(t *testing.T) {
	tr := Trace{
		{Addr: 0, Kind: Read},
		{Addr: 1<<63 - 1, Kind: Write},
		{Addr: 4, Kind: Read},
		{Addr: 1 << 62, Kind: Fetch, Thread: 200},
	}
	got, err := decode(NewCompactBatchReader, encode(t, EncodeCompact, tr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("large-delta round trip = %v", got)
	}
}

func TestCompactSmallerThanBinaryOnSequentialTrace(t *testing.T) {
	var tr Trace
	for i := 0; i < 10000; i++ {
		tr = append(tr, Access{Addr: addr.Addr(0x10000000 + i*4), Kind: Read})
	}
	bin, compact := encode(t, EncodeBinary, tr), encode(t, EncodeCompact, tr)
	if len(compact)*3 > len(bin) {
		t.Errorf("compact %dB not ≪ binary %dB", len(compact), len(bin))
	}
}

func TestCompactBadInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), make([]byte, 12)...),
		"bad version": append([]byte("CUTZ\xff\xff"), make([]byte, 10)...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := NewCompactBatchReader(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
				t.Errorf("err = %v", err)
			}
		})
	}
	// Truncated record.
	v1 := v1Compact(t, sampleTrace())
	if _, err := decode(NewCompactBatchReader, v1[:len(v1)-2]); !errors.Is(err, ErrBadFormat) {
		t.Errorf("truncated err = %v", err)
	}
	// Reserved control bits.
	bad := v1File(compactMagic, 1, []byte{0xF0, 0x00})
	if _, err := decode(NewCompactBatchReader, bad); !errors.Is(err, ErrBadFormat) {
		t.Errorf("reserved-bits err = %v", err)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), 1<<63 - 1, -(1 << 62)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip of %d = %d", v, got)
		}
	}
}
