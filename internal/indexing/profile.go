package indexing

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/trace"
)

// The shared profiling stage of the generate-once evaluation grid.  A
// Profile is everything the profile-driven index schemes need from a
// workload, extracted in ONE pass over the stream: the unique-block
// population with reference weights (Givargis' quality/correlation
// statistics are functions of exactly this), and optionally the compact
// block-level access sequence.  One Profile per benchmark replaces the
// private profiling replay every profile-driven scheme used to run — the
// grid's pass count per benchmark drops to the floor of two (profile +
// replay).

// Profile is the reusable profiling artifact of one workload under one
// cache layout.
type Profile struct {
	// Layout is the geometry the profile was taken at; block granularity
	// and candidate bit positions derive from it.
	Layout addr.Layout
	// Blocks lists the unique block addresses (addr.Addr form, low offset
	// bits zero) in first-seen order.
	Blocks []addr.Addr
	// Weights[i] is the number of references to Blocks[i].
	Weights []uint64
	// Accesses is the total number of accesses profiled.
	Accesses uint64
	// BlockSeq, when the profile was collected with keepSeq, is the
	// block-level access sequence as indices into Blocks, with consecutive
	// duplicates collapsed.  A repeat of the immediately preceding block is
	// a guaranteed hit under every index function (same block, same set,
	// still resident) and changes no replay state, so collapsing preserves
	// the miss count of any direct-mapped replay exactly while shrinking
	// the retained sequence.  Nil when the profile was collected without
	// the sequence (O(unique blocks) memory instead of O(trace)).
	BlockSeq []uint32
}

// UniqueBlocks returns the size of the profiled working set.
func (p *Profile) UniqueBlocks() int { return len(p.Blocks) }

// Profiler accumulates a Profile from batches; it implements
// trace.BatchSink so one trace.Broadcast leg can build the profile while
// (or instead of) models replay.
type Profiler struct {
	layout  addr.Layout
	pos     map[addr.Addr]int32
	blocks  []addr.Addr
	weights []uint64
	total   uint64
	keepSeq bool
	seq     []uint32
	last    int32 // index of the previous access's block; -1 initially
}

// NewProfiler returns an empty profiler for the layout.  keepSeq retains
// the collapsed block sequence at the cost of O(trace)-bounded memory;
// without it the profiler holds only the unique-block population.
func NewProfiler(l addr.Layout, keepSeq bool) *Profiler {
	return &Profiler{
		layout:  l,
		pos:     make(map[addr.Addr]int32, 1<<12),
		keepSeq: keepSeq,
		last:    -1,
	}
}

// ConsumeBatch implements trace.BatchSink; it never returns an error.
func (pr *Profiler) ConsumeBatch(batch []trace.Access) error {
	l := pr.layout
	for _, a := range batch {
		key := l.BlockAddr(l.Block(a.Addr))
		i, ok := pr.pos[key]
		if ok {
			pr.weights[i]++
		} else {
			i = int32(len(pr.blocks))
			pr.pos[key] = i
			pr.blocks = append(pr.blocks, key)
			pr.weights = append(pr.weights, 1)
		}
		if pr.keepSeq && i != pr.last {
			pr.seq = append(pr.seq, uint32(i))
		}
		pr.last = i
	}
	pr.total += uint64(len(batch))
	return nil
}

// Profile returns the accumulated profile.  The profiler must not be used
// afterwards.
func (pr *Profiler) Profile() *Profile {
	return &Profile{
		Layout:   pr.layout,
		Blocks:   pr.blocks,
		Weights:  pr.weights,
		Accesses: pr.total,
		BlockSeq: pr.seq,
	}
}

// Givargis computes the quality/correlation tables (paper Eqs. 1–2) from
// the profile's unique-block population.  IncludeOffsetBits is
// unsupported here: that ablation profiles byte addresses, which a
// block-granular profile cannot reconstruct — use ProfileGivargisStream
// with a fresh stream for it.
func (p *Profile) Givargis(cfg GivargisConfig) (*GivargisProfile, error) {
	if cfg.IncludeOffsetBits {
		return nil, fmt.Errorf("indexing: IncludeOffsetBits needs a byte-granular profiling pass, not a shared block profile")
	}
	if len(p.Blocks) == 0 {
		return nil, fmt.Errorf("indexing: givargis profile of empty trace")
	}
	weights := p.Weights
	if !cfg.FrequencyWeighted {
		weights = nil // the paper's formulation: every unique address counts once
	}
	return givargisTables(p.Blocks, weights, p.Layout), nil
}

// NewGivargisFromProfile builds the Givargis index function from a shared
// profile, choosing exactly the bits NewGivargisStream would choose from a
// stream of the same workload.
func NewGivargisFromProfile(p *Profile, cfg GivargisConfig) (BitSelection, error) {
	gp, err := p.Givargis(cfg)
	if err != nil {
		return BitSelection{}, err
	}
	bits, err := gp.SelectBits(int(p.Layout.IndexBits))
	if err != nil {
		return BitSelection{}, err
	}
	return NewBitSelection("givargis", bits)
}

// NewGivargisXORFromProfile builds the Givargis-XOR hybrid from a shared
// profile; the tag-region restriction and selection mirror
// NewGivargisXORStream exactly.
func NewGivargisXORFromProfile(p *Profile, cfg GivargisConfig) (GivargisXOR, error) {
	gp, err := p.Givargis(cfg)
	if err != nil {
		return GivargisXOR{}, err
	}
	return givargisXORFromTables(gp, p.Layout)
}
