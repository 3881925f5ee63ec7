package indexing

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// The shared-profile contract: schemes built from one indexing.Profile
// must choose exactly the bits the stream-consuming constructors choose,
// for every registered workload — otherwise the generate-once grid would
// not be byte-identical to the per-cell grid.

const (
	profTestSeed = 20110913
	profTestLen  = 40_000
)

func TestProfileEquivalenceAllWorkloads(t *testing.T) {
	l := addr.MustLayout(32, 1024, 32)
	for _, name := range workload.Names("") {
		spec := workload.MustLookup(name)
		sf := spec.StreamFunc(profTestSeed, profTestLen)

		prof, err := profileStream(sf(), l)
		if err != nil {
			t.Fatalf("%s: profileStream: %v", name, err)
		}

		fromStream, err := NewGivargisStream(sf(), l, GivargisConfig{})
		if err != nil {
			t.Fatalf("%s: NewGivargisStream: %v", name, err)
		}
		fromProfile, err := NewGivargisFromProfile(prof, GivargisConfig{})
		if err != nil {
			t.Fatalf("%s: NewGivargisFromProfile: %v", name, err)
		}
		if !reflect.DeepEqual(fromStream.Positions, fromProfile.Positions) {
			t.Errorf("%s: givargis bits diverge: stream %v, profile %v",
				name, fromStream.Positions, fromProfile.Positions)
		}

		xorStream, err := NewGivargisXORStream(sf(), l, GivargisConfig{})
		if err != nil {
			t.Fatalf("%s: NewGivargisXORStream: %v", name, err)
		}
		xorProfile, err := NewGivargisXORFromProfile(prof, GivargisConfig{})
		if err != nil {
			t.Fatalf("%s: NewGivargisXORFromProfile: %v", name, err)
		}
		if !reflect.DeepEqual(xorStream.TagBits, xorProfile.TagBits) {
			t.Errorf("%s: givargis_xor bits diverge: stream %v, profile %v",
				name, xorStream.TagBits, xorProfile.TagBits)
		}
	}
}

func TestProfileTablesMatchStreamProfile(t *testing.T) {
	l := addr.MustLayout(32, 1024, 32)
	for _, name := range []string{"fft", "mcf", "susan"} {
		spec := workload.MustLookup(name)
		sf := spec.StreamFunc(profTestSeed, profTestLen)

		want, err := ProfileGivargisStream(sf(), l, GivargisConfig{})
		if err != nil {
			t.Fatalf("%s: ProfileGivargisStream: %v", name, err)
		}
		prof, err := profileStream(sf(), l)
		if err != nil {
			t.Fatalf("%s: profileStream: %v", name, err)
		}
		got, err := prof.Givargis(GivargisConfig{})
		if err != nil {
			t.Fatalf("%s: Givargis: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: quality/correlation tables diverge between stream and shared profile", name)
		}
	}
}

func TestProfileGivargisRejectsOffsetBits(t *testing.T) {
	l := addr.MustLayout(32, 1024, 32)
	sf := workload.MustLookup("fft").StreamFunc(profTestSeed, 1000)
	prof, err := profileStream(sf(), l)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prof.Givargis(GivargisConfig{IncludeOffsetBits: true}); err == nil {
		t.Error("block-granular profile accepted IncludeOffsetBits")
	}
}

// profileStream collects a Profile in one pass over a batched stream.
func profileStream(r trace.BatchReader, l addr.Layout) (*Profile, error) {
	pr := NewProfiler(l, false)
	defer trace.CloseBatch(r)
	buf := make([]trace.Access, trace.DefaultBatch)
	for {
		n, err := r.ReadBatch(buf)
		if n == 0 {
			if err != nil && !errors.Is(err, io.EOF) {
				return nil, err
			}
			return pr.Profile(), nil
		}
		if err := pr.ConsumeBatch(buf[:n]); err != nil {
			return nil, err
		}
	}
}
