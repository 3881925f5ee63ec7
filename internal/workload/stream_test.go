package workload

import (
	"io"
	"runtime"
	"testing"
	"time"

	"cacheuniformity/internal/trace"
)

// TestStreamMatchesGenerate is the streaming refactor's ground truth: for
// every registered benchmark, the batched stream must yield byte-for-byte
// the sequence Generate materializes, and a second stream from the same
// seed must replay it identically.
func TestStreamMatchesGenerate(t *testing.T) {
	for _, name := range Names("") {
		spec := MustLookup(name)
		want := spec.Generate(11, 5_000)
		for pass := 0; pass < 2; pass++ {
			got, err := trace.CollectBatch(spec.Stream(11, 5_000), 0)
			if err != nil {
				t.Fatalf("%s pass %d: %v", name, pass, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s pass %d: stream yields %d accesses, Generate %d", name, pass, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s pass %d: access %d = %v, want %v", name, pass, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamBatchSizeInvariance checks the generator pump delivers the same
// sequence whatever buffer size the consumer reads with.
func TestStreamBatchSizeInvariance(t *testing.T) {
	spec := MustLookup("fft")
	want := spec.Generate(3, 2_000)
	for _, size := range []int{1, 7, 256, 4096, 10_000} {
		r := spec.Stream(3, 2_000)
		buf := make([]trace.Access, size)
		var got trace.Trace
		for {
			n, err := r.ReadBatch(buf)
			got = append(got, buf[:n]...)
			if n == 0 {
				if err != io.EOF {
					t.Fatalf("size %d: %v", size, err)
				}
				break
			}
		}
		if len(got) != len(want) {
			t.Fatalf("size %d: %d accesses, want %d", size, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("size %d: access %d differs", size, i)
			}
		}
	}
}

// TestStreamNonPositiveLength pins the degenerate lengths: an empty stream,
// not a panic or a hang.
func TestStreamNonPositiveLength(t *testing.T) {
	spec := MustLookup("qsort")
	for _, n := range []int{0, -4} {
		got, err := trace.CollectBatch(spec.Stream(1, n), 0)
		if err != nil || len(got) != 0 {
			t.Fatalf("Stream(len=%d) = %d accesses, %v", n, len(got), err)
		}
		if tr := spec.Generate(1, n); len(tr) != 0 {
			t.Fatalf("Generate(len=%d) = %d accesses", n, len(tr))
		}
	}
}

// TestStreamEarlyClose verifies an abandoned stream releases its generator
// goroutine: Close unblocks the pump, and the goroutine count returns to
// its baseline.
func TestStreamEarlyClose(t *testing.T) {
	base := runtime.NumGoroutine()
	spec := MustLookup("mcf")
	for i := 0; i < 50; i++ {
		r := spec.Stream(uint64(i+1), 1_000_000)
		buf := make([]trace.Access, 64)
		if _, err := r.ReadBatch(buf); err != nil {
			t.Fatal(err)
		}
		trace.CloseBatch(r)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
}

// TestMixedBatchReplays checks that the fetch/data interleave is a pure
// function of its arguments: two streams with the same seed are identical.
func TestMixedBatchReplays(t *testing.T) {
	spec := MustLookup("dijkstra")
	want := collectMixed(t, spec, 9, 12_000, 3)
	got := collectMixed(t, spec, 9, 12_000, 3)
	if len(got) != 12_000 || len(got) != len(want) {
		t.Fatalf("%d and %d accesses, want 12000", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d = %v, want %v", i, got[i], want[i])
		}
	}
}
