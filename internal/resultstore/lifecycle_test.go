package resultstore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/testutil"
	"cacheuniformity/internal/workload"
)

// synthKey derives a distinct, well-formed cell key for synthetic fills.
func synthKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("lifecycle-%d", i)))
	return hex.EncodeToString(sum[:])
}

// synthResult builds a fillable result whose AMAT encodes its index, so
// a read-back can detect a wrong answer (not just a stale one).
func synthResult(i int) core.Result {
	return core.Result{
		Scheme:    "soak",
		Benchmark: "soak",
		MissRate:  0.25,
		AMAT:      float64(i),
	}
}

// diskUsage sums every file byte under dir — the physical truth the
// ledger must upper-bound.  Files vanishing mid-walk (a concurrent GC)
// are skipped; uses t.Error, not Fatal, so monitor goroutines may call
// it.
func diskUsage(t *testing.T, dir string) int64 {
	var total int64
	werr := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if werr != nil {
		t.Error(werr)
	}
	return total
}

// lockedDiskUsage is diskUsage over s's directory taken while s can
// neither publish nor unlink: it holds gcMu and then every disk stripe in
// index order (the store's lock order), and every write or removal of an
// artifact happens under a stripe, so the walk sums one instant's file
// set.  An unlocked walk under concurrent writers is no snapshot: it can
// count a file GC has since unlinked beside one published after it, which
// never coexisted.  It also returns the ledger's bytes at that instant:
// writers reserve before they write, so physical ≤ ledger holds under the
// locks even while reservations are in flight.
func lockedDiskUsage(t *testing.T, s *Store) (physical, ledger int64) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	for i := range s.locks {
		s.locks[i].disk.Lock()
	}
	defer func() {
		for i := range s.locks {
			s.locks[i].disk.Unlock()
		}
	}()
	return diskUsage(t, s.dir), s.ledger.bytes.Load()
}

// TestQuotaNeverExceeded: filling far past the quota must trigger GC and
// keep physical disk usage at or below the quota after every single
// write — the reservation accounting's core invariant.
func TestQuotaNeverExceeded(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	const quota = int64(16 << 10)
	s := openTemp(t, Options{Dir: dir, QuotaBytes: quota, MemoryEntries: -1})
	cfg := tinyConfig()

	const n = 120
	for i := 0; i < n; i++ {
		if err := s.Fill(synthKey(i), cfg, synthResult(i)); err != nil {
			t.Fatal(err)
		}
		if used := diskUsage(t, dir); used > quota {
			t.Fatalf("after fill %d: disk usage %d exceeds quota %d", i, used, quota)
		}
		checkInvariants(t, s)
	}
	c := s.Counters()
	if c.GCRuns == 0 {
		t.Error("no GC runs despite writes far past the quota")
	}
	if c.GCEvictions == 0 || c.GCReclaimedBytes == 0 {
		t.Errorf("GC evicted %d artifacts / %d bytes, want > 0", c.GCEvictions, c.GCReclaimedBytes)
	}
	if c.PersistErrors != 0 {
		t.Errorf("PersistErrors = %d, want 0 (every artifact fits the quota)", c.PersistErrors)
	}
	st := s.Stats()
	if st.BytesUsed > quota {
		t.Errorf("ledger %d exceeds quota %d", st.BytesUsed, quota)
	}
	if used := diskUsage(t, dir); used > st.BytesUsed {
		t.Errorf("physical %d exceeds ledger %d", used, st.BytesUsed)
	}

	// The newest cell survived; reading it returns the right answer.
	res, _, ok := s.Peek(synthKey(n - 1))
	if !ok {
		t.Fatal("newest fill evicted immediately")
	}
	checkInvariants(t, s)
	if res.AMAT != float64(n-1) {
		t.Fatalf("read-back AMAT = %g, want %d — a wrong answer, not a miss", res.AMAT, n-1)
	}
	// Some cold cell was evicted and reads as a clean miss.
	evicted := false
	for i := 0; i < n && !evicted; i++ {
		if _, _, ok := s.Peek(synthKey(i)); !ok {
			evicted = true
		}
	}
	checkInvariants(t, s)
	if !evicted {
		t.Error("no cell evicted despite 120 fills into a 16 KiB quota")
	}
	if s.Counters().CorruptManifests != 0 {
		t.Error("evictions were counted as corruption")
	}
}

// TestOversizedArtifactRejected: an artifact that alone exceeds the
// quota must be refused (counted as a persist error), not written.
func TestOversizedArtifactRejected(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, QuotaBytes: 64, MemoryEntries: -1})
	if err := s.Fill(synthKey(0), tinyConfig(), synthResult(0)); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.PersistErrors != 1 {
		t.Fatalf("PersistErrors = %d, want 1", c.PersistErrors)
	}
	if used := diskUsage(t, dir); used != 0 {
		t.Fatalf("disk usage %d after a rejected write, want 0", used)
	}
}

// TestGCOnDemand exercises the admin-facing GC entry point: a target
// below current usage evicts down to it; an unbounded store's default
// run is a usage-reporting no-op.
func TestGCOnDemand(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, MemoryEntries: -1})
	cfg := tinyConfig()
	for i := 0; i < 20; i++ {
		if err := s.Fill(synthKey(i), cfg, synthResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	used := s.Stats().BytesUsed
	if used == 0 {
		t.Fatal("no bytes accounted after 20 fills")
	}

	noop := s.GC(0)
	if noop.Evicted != 0 || noop.BytesUsed != used {
		t.Fatalf("unbounded default GC = %+v, want a no-op report of %d bytes", noop, used)
	}

	target := used / 2
	rep := s.GC(target)
	if rep.Evicted == 0 || rep.ReclaimedBytes == 0 {
		t.Fatalf("GC(%d) evicted nothing: %+v", target, rep)
	}
	if rep.BytesUsed > target {
		t.Errorf("GC left %d bytes, target %d", rep.BytesUsed, target)
	}
	if got := diskUsage(t, dir); got != rep.BytesUsed {
		t.Errorf("physical %d != ledger %d after GC", got, rep.BytesUsed)
	}
	// The unbounded default run is a report, not a collection; only the
	// targeted run counts.
	if s.Counters().GCRuns != 1 {
		t.Errorf("GCRuns = %d, want 1", s.Counters().GCRuns)
	}
}

// TestTouchKeepsHotArtifactsAlive: a read refreshes AccessedAt, so GC
// evicts the cold artifact even though it was written later.
func TestTouchKeepsHotArtifactsAlive(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, MemoryEntries: -1, TouchInterval: time.Nanosecond})
	cfg := tinyConfig()
	hot, cold := synthKey(0), synthKey(1)
	if err := s.Fill(hot, cfg, synthResult(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Fill(cold, cfg, synthResult(1)); err != nil {
		t.Fatal(err)
	}
	// Backdate both, then read the hot one: its mtime comes back to now.
	past := time.Now().Add(-time.Hour)
	for _, k := range []string{hot, cold} {
		if err := os.Chtimes(s.manifestPath(k), past, past); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := s.Peek(hot); !ok {
		t.Fatal("hot cell missing before GC")
	}
	if s.Counters().TouchWrites == 0 {
		t.Fatal("read did not touch the artifact")
	}

	// Evict exactly one artifact's worth.
	st := s.Stats()
	rep := s.GC(st.BytesUsed - 1)
	if rep.Evicted != 1 {
		t.Fatalf("GC evicted %d artifacts, want 1: %+v", rep.Evicted, rep)
	}
	if _, _, ok := s.Peek(hot); !ok {
		t.Error("GC evicted the recently read artifact")
	}
	if _, _, ok := s.Peek(cold); ok {
		t.Error("GC kept the cold artifact over the hot one")
	}
}

// TestTouchThrottle: under the default interval a fresh artifact is
// never touched, and a negative interval disables touching entirely.
func TestTouchThrottle(t *testing.T) {
	defer testutil.CheckLeaks(t)
	s := openTemp(t, Options{MemoryEntries: -1})
	if err := s.Fill(synthKey(0), tinyConfig(), synthResult(0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, ok := s.Peek(synthKey(0)); !ok {
			t.Fatal("fill not readable")
		}
	}
	if got := s.Counters().TouchWrites; got != 0 {
		t.Errorf("TouchWrites = %d for a seconds-old artifact under a 5m throttle", got)
	}

	s2 := openTemp(t, Options{MemoryEntries: -1, TouchInterval: -1})
	if err := s2.Fill(synthKey(1), tinyConfig(), synthResult(1)); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(s2.manifestPath(synthKey(1)), past, past); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s2.Peek(synthKey(1)); !ok {
		t.Fatal("fill not readable")
	}
	if got := s2.Counters().TouchWrites; got != 0 {
		t.Errorf("TouchWrites = %d with touching disabled", got)
	}
}

// TestDeleteCell: the admin delete empties every tier for the key,
// validates key shape, and is idempotent.
func TestDeleteCell(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir})
	key := synthKey(0)
	if err := s.Fill(key, tinyConfig(), synthResult(0)); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s)
	if _, _, ok := s.Peek(key); !ok {
		t.Fatal("fill not readable")
	}
	checkInvariants(t, s)

	removed, err := s.DeleteCell(key)
	if err != nil || !removed {
		t.Fatalf("DeleteCell = (%t, %v), want (true, nil)", removed, err)
	}
	checkInvariants(t, s)
	if _, _, ok := s.Peek(key); ok {
		t.Fatal("cell readable after delete")
	}
	if st := s.Stats(); st.Manifests != 0 || st.MemoryEntries != 0 {
		t.Errorf("stats after delete = %+v, want empty store", st)
	}
	if c := s.Counters(); c.AdminDeletes != 1 {
		t.Errorf("AdminDeletes = %d, want 1", c.AdminDeletes)
	}

	removed, err = s.DeleteCell(key)
	if err != nil || removed {
		t.Fatalf("second DeleteCell = (%t, %v), want (false, nil)", removed, err)
	}
	checkInvariants(t, s)
	for _, bad := range []string{"", "abc", "../../etc/passwd", synthKey(0)[:63] + "Z"} {
		if _, err := s.DeleteCell(bad); err == nil {
			t.Errorf("DeleteCell(%q) accepted a malformed key", bad)
		}
		checkInvariants(t, s)
	}
}

// TestStatsTracksLedger: Stats mirrors what is physically on disk.
func TestStatsTracksLedger(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, QuotaBytes: 1 << 20})
	cfg := tinyConfig()
	for i := 0; i < 10; i++ {
		if err := s.Fill(synthKey(i), cfg, synthResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Manifests != 10 {
		t.Errorf("Manifests = %d, want 10", st.Manifests)
	}
	if st.QuotaBytes != 1<<20 {
		t.Errorf("QuotaBytes = %d, want %d", st.QuotaBytes, 1<<20)
	}
	if got := diskUsage(t, dir); got != st.BytesUsed {
		t.Errorf("physical %d != ledger %d", got, st.BytesUsed)
	}
	if st.MemoryEntries != 10 {
		t.Errorf("MemoryEntries = %d, want 10", st.MemoryEntries)
	}

	// A fresh store rebuilds the identical ledger from the scrub walk.
	s2 := openTemp(t, Options{Dir: dir})
	if st2 := s2.Stats(); st2.BytesUsed != st.BytesUsed || st2.Manifests != 10 {
		t.Errorf("rebuilt ledger %+v, want bytes %d / 10 manifests", st2, st.BytesUsed)
	}
}

// scanned is one artifact in GC order: its path and mtime.
type scanned struct {
	path  string
	mtime int64
}

// scanArtifacts is the test oracle for the GC order: the collection's
// original disk scan, which read every shard directory and statted each
// recognised artifact — compressed and legacy manifests under the 256
// manifest shards, compiled traces under traces/ — and sorted them by
// mtime, then path.
func scanArtifacts(s *Store) []scanned {
	var out []scanned
	s.walk(func(dir, shard string, trace bool, e os.DirEntry) {
		if !isShardName(shard) {
			return
		}
		ref, ok := artifactIdentity(e.Name(), shard)
		if !ok || (ref.tier == tierTrace) != trace {
			return
		}
		info, err := e.Info()
		if err != nil {
			return
		}
		out = append(out, scanned{filepath.Join(dir, e.Name()), info.ModTime().UnixNano()})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].mtime != out[j].mtime {
			return out[i].mtime < out[j].mtime
		}
		return out[i].path < out[j].path
	})
	return out
}

// indexOrder is the recency index's GC snapshot in the oracle's terms.
func indexOrder(s *Store) []scanned {
	var out []scanned
	for _, a := range s.index.coldestFirst() {
		out = append(out, scanned{s.artifactPath(a.artifactRef), a.mtime})
	}
	return out
}

// TestGCOrderMatchesScan: over a random history of fills, trace
// publishes, touching reads, admin deletes, legacy migrations, GCs and
// restarts, the recency index's eviction order before every GC is the
// one the disk scan it replaces would have produced.  Restarts plant
// legacy manifests and give several artifacts one shared mtime, so the
// path tie-break is exercised across all three tiers.
func TestGCOrderMatchesScan(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	cfg := tinyConfig()
	ct, err := workload.MustLookup("crc").Compile(context.Background(), 1, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	traceData := ct.Marshal()
	opts := Options{Dir: dir, QuotaBytes: 12 << 10, MemoryEntries: -1, TouchInterval: time.Nanosecond}
	s := openTemp(t, opts)
	rng := rand.New(rand.NewPCG(35, 1))
	const cells, traces = 32, 8
	cellKey := func() (int, string) { i := rng.IntN(cells); return i, synthKey(i) }
	traceKey := func() string { return synthKey(cells + rng.IntN(traces)) }

	var gcs, ties, restarts int
	var evictions, touches, migrations uint64
	tally := func() {
		c := s.Counters()
		evictions += c.GCEvictions
		touches += c.TouchWrites
		migrations += c.Migrations
	}
	var step int
	gc := func(target int64) {
		want := scanArtifacts(s)
		if got := indexOrder(s); !slices.Equal(got, want) {
			t.Fatalf("step %d: GC order from the index\n%v\nwant the scan's\n%v", step, got, want)
		}
		for i := 1; i < len(want); i++ {
			if want[i].mtime == want[i-1].mtime {
				ties++
			}
		}
		s.GC(target)
		gcs++
	}
	for ; step < 800; step++ {
		switch op := rng.IntN(40); {
		case op < 15:
			i, key := cellKey()
			if err := s.Fill(key, cfg, synthResult(i)); err != nil {
				t.Fatal(err)
			}
		case op < 18:
			if err := s.publish(artifactRef{traceKey(), tierTrace}, traceData); err != nil {
				t.Fatal(err)
			}
		case op < 29:
			_, key := cellKey()
			s.Peek(key)
		case op < 32:
			s.loadTrace(traceKey())
		case op < 34:
			_, key := cellKey()
			if _, err := s.DeleteCell(key); err != nil {
				t.Fatal(err)
			}
		case op < 38:
			gc(s.Stats().BytesUsed * int64(8+rng.IntN(2)) / 10)
		default:
			tally()
			restart(t, s, rng, cfg)
			// The planted legacy manifests may overfill the quota; the
			// store's default collection brings it back under.
			s = openTemp(t, opts)
			gc(0)
			restarts++
		}
		checkInvariants(t, s)
	}
	tally()
	if gcs == 0 || ties == 0 || restarts == 0 || evictions == 0 || touches == 0 || migrations == 0 {
		t.Errorf("history too thin: %d GCs, %d mtime ties, %d restarts, %d evictions, %d touches, %d migrations",
			gcs, ties, restarts, evictions, touches, migrations)
	}
}

// restart prepares s's directory for the next Open while s is idle:
// legacy manifests for a few cells, beside a compressed one or alone,
// and several artifacts — each planted legacy manifest with its
// compressed form, and a few at random — re-timed to one shared instant.
func restart(t *testing.T, s *Store, rng *rand.Rand, cfg core.Config) {
	t.Helper()
	at := time.Now().Add(-time.Minute)
	retime := func(path string) {
		if err := os.Chtimes(path, at, at); err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
	}
	for n := 0; n < 3; n++ {
		i := rng.IntN(32)
		key := synthKey(i)
		data, _, err := encodeManifest(key, s.version, cfg, synthResult(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFileAtomic(s.legacyManifestPath(key), data); err != nil {
			t.Fatal(err)
		}
		retime(s.legacyManifestPath(key))
		retime(s.manifestPath(key))
	}
	arts := scanArtifacts(s)
	for n := 0; n < 4 && len(arts) > 0; n++ {
		retime(arts[rng.IntN(len(arts))].path)
	}
}

// TestLiveScrubRacesWriters: a live Scrub leaves the recency index to
// the publish, touch and unlink paths, so a walk that races admin
// deletes, fills and GC cannot re-index an artifact they removed.
func TestLiveScrubRacesWriters(t *testing.T) {
	defer testutil.CheckLeaks(t)
	s := openTemp(t, Options{Dir: t.TempDir(), QuotaBytes: 32 << 10, MemoryEntries: -1, TouchInterval: time.Nanosecond})
	cfg := tinyConfig()
	stop := make(chan struct{})
	scrubbed := make(chan struct{})
	go func() {
		defer close(scrubbed)
		for {
			select {
			case <-stop:
				return
			default:
				s.Scrub()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 300; i += 3 {
				if err := s.Fill(synthKey(i%100), cfg, synthResult(i%100)); err != nil {
					t.Errorf("fill: %v", err)
				}
				switch i % 5 {
				case 1:
					if _, err := s.DeleteCell(synthKey(i * 7 % 100)); err != nil {
						t.Errorf("delete: %v", err)
					}
				case 3:
					s.GC(s.Stats().BytesUsed / 2)
				case 4:
					s.Peek(synthKey(i * 3 % 100))
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scrubbed
	checkInvariants(t, s)
}
