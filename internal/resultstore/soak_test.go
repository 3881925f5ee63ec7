package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cacheuniformity/internal/testutil"
)

// The store soak: many distinct cells pushed through a quota-bounded
// store from concurrent writers, with read-back verification strong
// enough to distinguish a wrong answer from an eviction.  Each cell's
// AMAT encodes its index, so a hit that returns the wrong payload is
// caught, while a miss is the quota doing its job.
//
// `go test` runs a small configuration; `make soak-store` scales it to
// >= 1M cells via the environment and gates the emitted benchmark line
// with benchjson:
//
//	STORE_SOAK_CELLS   total distinct cells (default 4000)
//	STORE_SOAK_QUOTA   byte quota           (default 262144)

// soakEnvInt reads a positive integer knob from the environment.
func soakEnvInt(t *testing.T, name string, def int64) int64 {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n <= 0 {
		t.Fatalf("%s=%q: want a positive integer", name, v)
	}
	return n
}

// soakKey is the cell key of soak index i — recomputable by readers, so
// verification needs no shared index->key table.
func soakKey(i int64) string {
	sum := sha256.Sum256([]byte("soak-" + strconv.FormatInt(i, 10)))
	return hex.EncodeToString(sum[:])
}

func TestStoreSoak(t *testing.T) {
	defer testutil.CheckLeaks(t)
	cells := soakEnvInt(t, "STORE_SOAK_CELLS", 4000)
	quota := soakEnvInt(t, "STORE_SOAK_QUOTA", 256<<10)
	dir := t.TempDir()
	// The memory tier is disabled: the soak measures the disk lifecycle,
	// and a bounded RSS must come from the store's design, not from an
	// LRU absorbing the working set.
	s := openTemp(t, Options{Dir: dir, QuotaBytes: quota, MemoryEntries: -1, TouchInterval: time.Millisecond})
	cfg := tinyConfig()

	var (
		wrong          atomic.Int64
		verifyHits     atomic.Int64
		ledgerOver     atomic.Int64
		diskOverQuota  int64
		diskOverLedger int64
		heapPeak       uint64
	)
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= cells {
					return
				}
				res := synthResult(int(i % (1 << 30)))
				res.AMAT = float64(i)
				if err := s.Fill(soakKey(i), cfg, res); err != nil {
					t.Errorf("fill %d: %v", i, err)
					return
				}
				if s.ledger.bytes.Load() > quota {
					ledgerOver.Add(1)
				}
				// Read back an earlier cell: a hit must carry the exact
				// payload written for it; a miss is a legal eviction.
				if i%64 == 0 && i > 0 {
					j := (i * 2654435761) % i
					if got, _, ok := s.Peek(soakKey(j)); ok {
						verifyHits.Add(1)
						if got.AMAT != float64(j) {
							wrong.Add(1)
						}
					}
				}
			}
		}()
	}

	// The monitor samples physical disk usage and heap while the writers
	// run, so "disk <= quota" and "RSS bounded" are checked under load,
	// not only at the finish line.  Each disk sample is taken under the
	// store's locks, so it is one instant's usage, and is also checked
	// against the ledger of that instant.
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-monitorDone:
				return
			case <-tick.C:
				used, ledger := lockedDiskUsage(t, s)
				if used > quota {
					diskOverQuota++
				}
				if used > ledger {
					diskOverLedger++
				}
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > heapPeak {
					heapPeak = ms.HeapAlloc
				}
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	monitorDone <- struct{}{}
	<-monitorDone

	// Final sweep: physical usage, ledger consistency, a fresh scrub walk
	// agreeing with the live ledger.
	finalUsed := diskUsage(t, dir)
	if finalUsed > quota {
		diskOverQuota++
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > heapPeak {
		heapPeak = ms.HeapAlloc
	}
	st := s.Stats()
	c := s.Counters()

	if wrong.Load() != 0 {
		t.Errorf("%d wrong answers out of %d verification hits", wrong.Load(), verifyHits.Load())
	}
	if ledgerOver.Load() != 0 {
		t.Errorf("ledger exceeded the quota %d times", ledgerOver.Load())
	}
	if diskOverQuota != 0 {
		t.Errorf("disk usage exceeded the quota in %d samples", diskOverQuota)
	}
	if diskOverLedger != 0 {
		t.Errorf("disk usage exceeded the ledger in %d samples", diskOverLedger)
	}
	if finalUsed > st.BytesUsed {
		t.Errorf("physical %d exceeds ledger %d", finalUsed, st.BytesUsed)
	}
	if c.Stores != uint64(cells) {
		t.Errorf("Stores = %d, want %d", c.Stores, cells)
	}
	if c.GCRuns == 0 {
		t.Error("soak never pressured GC; the quota is too large for the cell count")
	}

	nsPerFill := elapsed.Nanoseconds() / cells
	// The benchjson-gated soak line (make soak-store): zero wrong
	// answers, zero over-quota samples, bounded heap.
	fmt.Printf("BenchmarkStoreSoak %d %d ns/op %d wrong_total %d disk_over_quota %d heap_peak_mb %d gc_runs %d gc_evictions %d verify_hits %.1f fills/s\n",
		cells, nsPerFill, wrong.Load(), diskOverQuota+ledgerOver.Load(), heapPeak>>20,
		c.GCRuns, c.GCEvictions, verifyHits.Load(), float64(cells)/elapsed.Seconds())
}

// TestLifecycleConcurrencyChaos hammers every lifecycle entry point at
// once — fills, reads, admin deletes, on-demand GC, and a live re-scrub
// — under the race detector and the leak checker.  The invariant is the
// soak's: any hit is the right payload, and nothing errors.  The chaos
// runs in rounds, and the store's structural invariants are checked at
// each quiescent point between them.
func TestLifecycleConcurrencyChaos(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	const quota = int64(64 << 10)
	s := openTemp(t, Options{Dir: dir, QuotaBytes: quota, MemoryEntries: 64, TouchInterval: time.Nanosecond})
	checkInvariants(t, s)

	const n, rounds = 400, 4
	var wrong atomic.Int64
	for r := 0; r < rounds; r++ {
		chaosRound(t, s, r*n/rounds, (r+1)*n/rounds, &wrong)
		checkInvariants(t, s)
	}

	if wrong.Load() != 0 {
		t.Errorf("%d wrong answers under concurrent lifecycle chaos", wrong.Load())
	}
	if used := diskUsage(t, dir); used > quota {
		t.Errorf("disk usage %d exceeds quota %d", used, quota)
	}
	// The surviving store is coherent: a restart rebuilds the same ledger.
	st := s.Stats()
	s2 := openTemp(t, Options{Dir: dir})
	if st2 := s2.Stats(); st2.BytesUsed != st.BytesUsed || st2.Manifests != st.Manifests {
		t.Errorf("restart ledger %+v != live ledger %+v", st2, st)
	}
	checkInvariants(t, s2)
}

// chaosRound runs four workers over cells [lo, hi): each fills its
// cells, reads back older ones, and mixes in deletes, GC and a live
// re-scrub.  It returns once every worker has finished.
func chaosRound(t *testing.T, s *Store, lo, hi int, wrong *atomic.Int64) {
	cfg := tinyConfig()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := lo + w; i < hi; i += 4 {
				res := synthResult(i)
				if err := s.Fill(synthKey(i), cfg, res); err != nil {
					t.Errorf("fill: %v", err)
				}
				if got, _, ok := s.Peek(synthKey(i / 2)); ok && got.AMAT != float64(i/2) {
					wrong.Add(1)
				}
				switch i % 16 {
				case 3:
					if _, err := s.DeleteCell(synthKey(i)); err != nil {
						t.Errorf("delete: %v", err)
					}
				case 7:
					s.GC(s.quota / 2)
				case 11:
					s.Scrub()
				}
			}
		}(w)
	}
	wg.Wait()
}
