package resultstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cacheuniformity/internal/testutil"
)

// Crash-safety tests.  osRemove is the swappable unlink every lifecycle
// path funnels through, so a test can make "the process died between the
// unlink and the ledger update" or "the scrub died halfway" real, then
// assert the restart invariant: a fresh Open converges to a consistent
// store — garbage counted and removed, ledger matching disk — never an
// error.  checkInvariants runs after every operation except on a store
// left in an injected crash state: that state is exactly what the
// invariants exclude until the next Open.  Tests that swap osRemove
// must not run in parallel.

// swapRemove installs fn as the store's unlink and restores os.Remove on
// cleanup.
func swapRemove(t *testing.T, fn func(string) error) {
	t.Helper()
	osRemove = fn
	t.Cleanup(func() { osRemove = os.Remove })
}

// TestCrashBetweenUnlinkAndLedgerConverges: artifacts vanish from disk
// without the ledger hearing about it (exactly the state a crash after
// unlink leaves).  The live store serves misses, never errors; a restart
// rebuilds an accurate ledger.
func TestCrashBetweenUnlinkAndLedgerConverges(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	cfg := tinyConfig()
	s1 := openTemp(t, Options{Dir: dir, QuotaBytes: 1 << 20, MemoryEntries: -1})
	checkInvariants(t, s1)
	const n = 12
	for i := 0; i < n; i++ {
		if err := s1.Fill(synthKey(i), cfg, synthResult(i)); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, s1)
	}
	// The "crash": five unlinks land on disk, no ledger settle.
	for i := 0; i < 5; i++ {
		if err := os.Remove(s1.manifestPath(synthKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := s1.Stats(); st.Manifests != n {
		t.Fatalf("precondition: live ledger should still claim %d manifests, has %d", n, st.Manifests)
	}
	for i := 0; i < 5; i++ {
		if _, _, ok := s1.Peek(synthKey(i)); ok {
			t.Fatalf("unlinked cell %d still readable", i)
		}
	}
	if c := s1.Counters(); c.CorruptManifests != 0 {
		t.Errorf("vanished artifacts counted as corruption: %d", c.CorruptManifests)
	}

	// Restart: the scrub walk is the source of truth.
	s2 := openTemp(t, Options{Dir: dir, QuotaBytes: 1 << 20, MemoryEntries: -1})
	checkInvariants(t, s2)
	st := s2.Stats()
	if st.Manifests != n-5 {
		t.Errorf("rebuilt ledger counts %d manifests, want %d", st.Manifests, n-5)
	}
	if got := diskUsage(t, dir); got != st.BytesUsed {
		t.Errorf("physical %d != rebuilt ledger %d", got, st.BytesUsed)
	}
	for i := 5; i < n; i++ {
		res, _, ok := s2.Peek(synthKey(i))
		if !ok || res.AMAT != float64(i) {
			t.Fatalf("surviving cell %d: ok=%t AMAT=%g", i, ok, res.AMAT)
		}
	}
	checkInvariants(t, s2)
}

// TestCrashMidScrubConverges: the scrub dies after its first removal,
// leaving garbage half-swept.  That Open still yields a working store,
// and the next restart finishes the sweep.
func TestCrashMidScrubConverges(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	cfg := tinyConfig()
	seedStore := openTemp(t, Options{Dir: dir, MemoryEntries: -1})
	for i := 0; i < 4; i++ {
		if err := seedStore.Fill(synthKey(i), cfg, synthResult(i)); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, seedStore)
	}
	// Garbage a crashed writer could leave: temp files at top level and
	// in a shard, plus artifacts copied into the wrong directory.
	shard := filepath.Join(dir, synthKey(0)[:2])
	garbage := []string{
		filepath.Join(dir, tmpPrefix+"123"),
		filepath.Join(shard, tmpPrefix+"456"),
	}
	for _, p := range garbage {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wrongShard := synthKey(0)
	if wrongShard[:2] == "ff" {
		t.Fatal("synthetic key landed in shard ff; adjust the test seed")
	}
	misplaced := filepath.Join(dir, "ff", wrongShard+manifestExt)
	if err := os.MkdirAll(filepath.Dir(misplaced), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(misplaced, []byte("misplaced"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A trace under a directory that is not a shard name, though its key
	// starts with it: no read or eviction would ever find it there.
	nonShard := filepath.Join(dir, traceDirName, wrongShard[:3], wrongShard+traceExt)
	if err := os.MkdirAll(filepath.Dir(nonShard), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(nonShard, []byte("non-shard"), 0o644); err != nil {
		t.Fatal(err)
	}

	// First restart: the scrub's unlink dies after one removal.
	calls := 0
	swapRemove(t, func(p string) error {
		calls++
		if calls > 1 {
			return errors.New("inject: process died mid-scrub")
		}
		return os.Remove(p)
	})
	s1 := openTemp(t, Options{Dir: dir, MemoryEntries: -1})
	if calls < 2 {
		t.Fatalf("scrub attempted %d removals, injection never fired", calls)
	}
	// Half-swept, but fully functional.
	for i := 0; i < 4; i++ {
		if _, _, ok := s1.Peek(synthKey(i)); !ok {
			t.Fatalf("cell %d unreadable after interrupted scrub", i)
		}
	}

	// Second restart with a healthy unlink: the sweep completes.
	swapRemove(t, os.Remove)
	s2 := openTemp(t, Options{Dir: dir, MemoryEntries: -1})
	checkInvariants(t, s2)
	for _, p := range append(garbage, misplaced, nonShard) {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("garbage %s survived the second scrub", p)
		}
	}
	st := s2.Stats()
	if st.Manifests != 4 {
		t.Errorf("rebuilt ledger counts %d manifests, want 4", st.Manifests)
	}
	if got := diskUsage(t, dir); got != st.BytesUsed {
		t.Errorf("physical %d != ledger %d after recovery", got, st.BytesUsed)
	}
	if s2.Counters().ScrubRepairs == 0 {
		t.Error("recovery scrub repaired nothing")
	}
}

// TestGCUnlinkFailureIsSafe: when eviction cannot unlink anything, a
// write that needs the room fails as a counted persist error — the store
// keeps serving, the quota holds, and recovery resumes once unlinks work.
func TestGCUnlinkFailureIsSafe(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	cfg := tinyConfig()
	s := openTemp(t, Options{Dir: dir, QuotaBytes: 2 << 10, MemoryEntries: -1})
	// Fill until at least one artifact exists and the next write needs GC.
	var filled int
	for filled = 0; filled < 64; filled++ {
		if err := s.Fill(synthKey(filled), cfg, synthResult(filled)); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, s)
		if s.Counters().GCRuns > 0 {
			break
		}
	}
	if s.Counters().GCRuns == 0 {
		t.Fatal("quota never pressured GC; shrink the quota")
	}

	swapRemove(t, func(string) error { return errors.New("inject: unlink refused") })
	base := s.Counters()
	for i := 0; i < 8; i++ {
		if err := s.Fill(synthKey(1000+i), cfg, synthResult(1000+i)); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, s)
	}
	c := s.Counters()
	if c.PersistErrors == base.PersistErrors {
		t.Error("writes under a failing GC were not surfaced as persist errors")
	}
	if used := diskUsage(t, dir); used > 2<<10 {
		t.Errorf("disk usage %d exceeds quota while unlinks fail", used)
	}

	// Unlinks recover; the next write evicts and lands.
	swapRemove(t, os.Remove)
	if err := s.Fill(synthKey(2000), cfg, synthResult(2000)); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s)
	if res, _, ok := s.Peek(synthKey(2000)); !ok || res.AMAT != 2000 {
		t.Fatalf("post-recovery fill unreadable: ok=%t AMAT=%g", ok, res.AMAT)
	}
	checkInvariants(t, s)
}
