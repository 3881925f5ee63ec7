package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/rng"
)

// The codec fuzzers assert the parsers never panic on arbitrary input and
// that anything they accept round-trips exactly.

// Slice-level reference implementations of the stream combinators: the
// specification FuzzBatchDifferential holds the streaming forms to.

func refLimit(tr Trace, n int) Trace {
	if n <= 0 {
		return nil
	}
	return tr[:min(n, len(tr))]
}

func refFilter(tr Trace, keep func(Access) bool) Trace {
	var out Trace
	for _, a := range tr {
		if keep(a) {
			out = append(out, a)
		}
	}
	return out
}

func refMap(tr Trace, fn func(Access) Access) Trace {
	var out Trace
	for _, a := range tr {
		out = append(out, fn(a))
	}
	return out
}

func refConcat(trs ...Trace) Trace {
	var out Trace
	for _, tr := range trs {
		out = append(out, tr...)
	}
	return out
}

// refRoundRobin takes one access from each input in turn, skipping
// exhausted inputs, and tags input i's accesses with thread i.
func refRoundRobin(trs ...Trace) Trace {
	var out Trace
	for k := 0; ; k++ {
		took := false
		for i, tr := range trs {
			if k < len(tr) {
				a := tr[k]
				a.Thread = uint8(i)
				out = append(out, a)
				took = true
			}
		}
		if !took {
			return out
		}
	}
}

// refStochastic draws inputs with src.Intn over the ascending list of
// inputs not yet found exhausted; a draw that lands on an exhausted input
// removes it and draws again.
func refStochastic(src *rng.Source, trs ...Trace) Trace {
	var out Trace
	pos := make([]int, len(trs))
	live := make([]int, len(trs))
	for i := range live {
		live[i] = i
	}
	for len(live) > 0 {
		j := src.Intn(len(live))
		i := live[j]
		if pos[i] == len(trs[i]) {
			live = append(live[:j], live[j+1:]...)
			continue
		}
		a := trs[i][pos[i]]
		a.Thread = uint8(i)
		out = append(out, a)
		pos[i]++
	}
	return out
}

// FuzzBatchDifferential is the streaming layer's core invariant, fuzzed:
// every combinator stack must yield exactly what the slice-level reference
// implementations above compute, for arbitrary source data, seeds, limits
// and batch sizes, and must keep the strict EOF contract.  Cursor, the
// per-access view, is checked the same way.
func FuzzBatchDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint64(42), 7, 3)
	f.Add([]byte{}, uint64(1), 0, 1)
	f.Add([]byte{0xff, 0x00, 0x7f}, uint64(99), -3, 1000)
	f.Add([]byte{5, 5, 5, 5}, uint64(7), 2, 1)
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, limit int, batch int) {
		if batch <= 0 {
			batch = 1
		}
		if batch > DefaultBatch {
			batch = DefaultBatch
		}
		if len(data) > 512 {
			data = data[:512]
		}
		// Derive three small source traces from the fuzz bytes.
		mk := func(salt byte) Trace {
			var tr Trace
			for i, b := range data {
				tr = append(tr, Access{
					Addr: addr.Addr(uint64(b^salt)<<5 | uint64(i&31)),
					Kind: Kind((int(b) + int(salt)) % 3),
				})
			}
			return tr
		}
		t1, t2, t3 := mk(0), mk(0x55), mk(0xaa)
		keep := func(a Access) bool { return a.Addr&(1<<5) == 0 }
		double := func(a Access) Access { a.Addr <<= 1; return a }

		// drain reads a stream at the fuzzed batch size and checks the
		// strict EOF contract on the way out.
		drain := func(r BatchReader) Trace {
			t.Helper()
			var out Trace
			buf := make([]Access, batch)
			for {
				n, err := r.ReadBatch(buf)
				if n > 0 && err != nil {
					t.Fatalf("ReadBatch returned n=%d with err=%v", n, err)
				}
				out = append(out, buf[:n]...)
				if n == 0 {
					if err != io.EOF {
						t.Fatalf("exhausted stream returned %v, want io.EOF", err)
					}
					// A second call must keep returning io.EOF.
					if n2, err2 := r.ReadBatch(buf); n2 != 0 || err2 != io.EOF {
						t.Fatalf("post-EOF ReadBatch = (%d, %v)", n2, err2)
					}
					return out
				}
			}
		}
		same := func(name string, want, got Trace) {
			t.Helper()
			if len(want) != len(got) {
				t.Fatalf("%s: reference yields %d accesses, stream %d", name, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s: sequences diverge at %d: %v vs %v", name, i, want[i], got[i])
				}
			}
		}

		// The full stack: every combinator appears at least once, and the
		// stochastic interleave forces identical rng call order.
		want := refStochastic(rng.New(seed),
			refLimit(refConcat(t1, refFilter(t2, keep)), limit),
			refMap(t3, double),
			refRoundRobin(t1, t2),
		)
		got := drain(StochasticBatch(rng.New(seed),
			LimitBatch(ConcatBatch(t1.NewBatchReader(), FilterBatch(t2.NewBatchReader(), keep)), limit),
			MapBatch(t3.NewBatchReader(), double),
			RoundRobinBatch(t1.NewBatchReader(), t2.NewBatchReader()),
		))
		same("stack", want, got)

		// Round-robin over inputs of different lengths, one possibly
		// empty, exercises the skip-exhausted path.
		short := refLimit(t3, limit)
		same("roundrobin", refRoundRobin(t1, short, t2),
			drain(RoundRobinBatch(t1.NewBatchReader(), LimitBatch(t3.NewBatchReader(), limit), t2.NewBatchReader())))

		// Cursor must replay a stream access by access, then stick at EOF.
		cur := NewCursor(LimitBatch(t2.NewBatchReader(), limit))
		var viaCursor Trace
		for {
			a, err := cur.Next()
			if err != nil {
				if err != io.EOF {
					t.Fatalf("Cursor.Next: %v", err)
				}
				if _, err := cur.Next(); err != io.EOF {
					t.Fatalf("post-EOF Cursor.Next: %v", err)
				}
				break
			}
			viaCursor = append(viaCursor, a)
		}
		same("cursor", refLimit(t2, limit), viaCursor)
	})
}

// The v1 counted files these fuzzers seed with are built by hand (see
// v1File); accepted inputs are re-encoded by the streaming encoder, whose
// v2 output must decode to the same trace.

func FuzzReadBinary(f *testing.F) {
	f.Add(v1Binary(f, sampleTrace()))
	f.Add([]byte("CUTR"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decode(NewBinaryBatchReader, data)
		if err != nil {
			return
		}
		back, err := decode(NewBinaryBatchReader, encode(t, EncodeBinary, tr))
		if err != nil || !reflect.DeepEqual(back, tr) {
			t.Fatalf("accepted trace did not round-trip: %v", err)
		}
	})
}

func FuzzReadCompact(f *testing.F) {
	f.Add(v1Compact(f, sampleTrace()))
	f.Add([]byte("CUTZ"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decode(NewCompactBatchReader, data)
		if err != nil {
			return
		}
		back, err := decode(NewCompactBatchReader, encode(t, EncodeCompact, tr))
		if err != nil || !reflect.DeepEqual(back, tr) {
			t.Fatalf("accepted trace did not round-trip: %v", err)
		}
	})
}

// FuzzStreamCodecCorruption attacks the v2 streaming decoders with the
// two corruptions a real trace file suffers: truncation at an arbitrary
// byte offset and a flipped byte anywhere in the stream.  The decoder
// contract under attack: ReadBatch must never panic, never loop without
// progress, never deliver accesses alongside an error, and must end every
// stream in either io.EOF or a descriptive error.  (A flip may also yield
// a different valid trace — that is acceptable; silent misbehaviour is
// not.)
func FuzzStreamCodecCorruption(f *testing.F) {
	f.Add(10, 5, byte(0x01), false)
	f.Add(0, 0, byte(0xff), true)
	f.Add(1<<20, 14, byte(0x80), false) // cut beyond length = intact stream
	f.Add(13, 3, byte(0x00), true)      // header-field flip
	f.Fuzz(func(t *testing.T, cut, flipPos int, flipMask byte, compact bool) {
		var enc bytes.Buffer
		var err error
		if compact {
			_, err = EncodeCompact(&enc, sampleTrace().NewBatchReader())
		} else {
			_, err = EncodeBinary(&enc, sampleTrace().NewBatchReader())
		}
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		data := enc.Bytes()
		if cut >= 0 && cut < len(data) {
			data = data[:cut]
		}
		if len(data) > 0 && flipPos >= 0 {
			data = append([]byte(nil), data...) // unshare before mutating
			data[flipPos%len(data)] ^= flipMask
		}

		var r BatchReader
		if compact {
			r, err = NewCompactBatchReader(bytes.NewReader(data))
		} else {
			r, err = NewBinaryBatchReader(bytes.NewReader(data))
		}
		if err != nil {
			return // rejected at the header: a valid outcome
		}
		buf := make([]Access, 64)
		total := 0
		for i := 0; ; i++ {
			if i > len(sampleTrace())+10 {
				t.Fatalf("decoder made no terminal progress after %d reads", i)
			}
			n, rerr := r.ReadBatch(buf)
			if n > 0 && rerr != nil {
				t.Fatalf("ReadBatch returned n=%d with err=%v", n, rerr)
			}
			total += n
			if n == 0 {
				if rerr == nil {
					t.Fatal("exhausted decoder returned (0, nil)")
				}
				// The error must be sticky.
				if n2, rerr2 := r.ReadBatch(buf); n2 != 0 || rerr2 == nil {
					t.Fatalf("post-terminal ReadBatch = (%d, %v)", n2, rerr2)
				}
				break
			}
		}
		if total > len(sampleTrace()) {
			t.Fatalf("corrupted stream yielded %d accesses, original had %d",
				total, len(sampleTrace()))
		}
	})
}

func FuzzReadText(f *testing.F) {
	f.Add("R 0x10 0\nW 16 1\n")
	f.Add("# comment\n\nF 0xdeadbeef 3\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := CollectBatch(NewTextBatchReader(strings.NewReader(s)), 0)
		if err != nil {
			return
		}
		back, err := CollectBatch(NewTextBatchReader(bytes.NewReader(encode(t, EncodeText, tr))), 0)
		if err != nil || !reflect.DeepEqual(back, tr) {
			t.Fatalf("accepted text did not round-trip: %v", err)
		}
	})
}
