package resultstore

import (
	"context"
	"reflect"
	"testing"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/testutil"
)

// TestFillPeekRoundTrip walks the peer-fill path: a result computed
// elsewhere is Filled under its cell key, Peek serves it from memory,
// and a fresh store over the same directory serves it from the
// persisted manifest — so a peer fill survives a restart like any
// locally computed cell.
func TestFillPeekRoundTrip(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	cfg := tinyConfig()
	ctx := context.Background()

	// "The peer": computes the cell the normal way.
	donor := openTemp(t, Options{})
	res, _, err := donor.Cell(ctx, cfg, "xor", "crc")
	if err != nil {
		t.Fatal(err)
	}
	key, err := cellKey(cfg, "xor", "crc", donor.Version())
	if err != nil {
		t.Fatal(err)
	}

	// "The forwarder": never computed the cell, fills it from the peer.
	s := openTemp(t, Options{Dir: dir})
	if _, _, ok := s.Peek(key); ok {
		t.Fatal("Peek found a cell that was never stored")
	}
	if err := s.Fill(key, cfg, res); err != nil {
		t.Fatal(err)
	}
	got, origin, ok := s.Peek(key)
	if !ok {
		t.Fatal("Peek missed a just-filled cell")
	}
	if origin != OriginMemory {
		t.Fatalf("origin = %s, want %s", origin, OriginMemory)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("filled result drifted through the memory tier")
	}

	// A fresh store over the same directory: the fill persisted.
	s2 := openTemp(t, Options{Dir: dir})
	fromDisk, origin, ok := s2.Peek(key)
	if !ok {
		t.Fatal("peer fill did not survive a store reopen")
	}
	if origin != OriginDisk {
		t.Fatalf("reopened origin = %s, want %s", origin, OriginDisk)
	}
	if !reflect.DeepEqual(fromDisk, res) {
		t.Fatal("filled result drifted through the manifest round trip")
	}

	c := s.Counters()
	if c.PeerFills != 1 {
		t.Fatalf("PeerFills = %d, want 1", c.PeerFills)
	}
	if c.Misses != 0 {
		t.Fatalf("Misses = %d; Peek must never count a miss", c.Misses)
	}
}

// TestFillRejectsBadResults: the store's cache-only-successes invariant
// holds on the fill path too — a failed or nameless result is refused
// before it can poison either tier.
func TestFillRejectsBadResults(t *testing.T) {
	defer testutil.CheckLeaks(t)
	cfg := tinyConfig()
	s := openTemp(t, Options{})

	failed := core.Result{Scheme: "xor", Benchmark: "crc", Err: context.Canceled}
	if err := s.Fill("deadbeef", cfg, failed); err == nil {
		t.Error("Fill accepted a failed result")
	}
	nameless := core.Result{MissRate: 0.5}
	if err := s.Fill("deadbeef", cfg, nameless); err == nil {
		t.Error("Fill accepted a result without scheme and benchmark names")
	}
	if _, _, ok := s.Peek("deadbeef"); ok {
		t.Fatal("a rejected fill landed in the store anyway")
	}
	if c := s.Counters(); c.PeerFills != 0 {
		t.Fatalf("PeerFills = %d after only rejected fills, want 0", c.PeerFills)
	}
}
