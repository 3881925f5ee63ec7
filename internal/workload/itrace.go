package workload

import (
	"context"
	"io"

	"cacheuniformity/internal/rng"
	"cacheuniformity/internal/trace"
)

// InstructionBatchCtx streams a synthetic instruction-fetch trace
// (Kind=Fetch) for the L1I side of the paper's split-cache configuration:
// sequential 4-byte fetch runs inside loop bodies, backward branches
// re-entering the loop, and calls into a Zipf-popular set of functions.
// The paper's headline experiments report D-cache behaviour, but its
// setup simulates "32kB direct mapped L1 data and instruction caches" —
// this generator lets the hierarchy exercise both.  The generator pump
// stops when ctx is cancelled and ReadBatch surfaces the context's error.
func InstructionBatchCtx(ctx context.Context, seed uint64, n int) trace.BatchReader {
	return newGenStream(ctx, seed, n, 0, instructionRun)
}

func instructionRun(g *gen) {
	const (
		funcCount = 64   // distinct functions
		funcSize  = 2048 // bytes of code each
	)
	z := rng.NewZipf(g.src, 1.1, funcCount)
	for !g.full() {
		fn := z.Next()
		base := uint64(TextBase) + uint64(fn*funcSize)
		// A function activation: a few loop iterations over a body.
		bodyLen := 16 + g.src.Intn(48) // instructions per loop body
		iters := 1 + g.src.Intn(8)
		for it := 0; it < iters && !g.full(); it++ {
			for pc := 0; pc < bodyLen && !g.full(); pc++ {
				g.emit(base+uint64(pc*4), trace.Fetch)
			}
		}
		// Fall-through epilogue.
		for pc := bodyLen; pc < bodyLen+8 && !g.full(); pc++ {
			g.emit(base+uint64(pc*4), trace.Fetch)
		}
	}
}

// MixedBatchCtx streams an instruction stream interleaved with a data
// benchmark at the given fetches-per-data-access ratio (real integer
// codes run ≈ 3-4 fetches per memory operand).  The result drives a split
// L1I/L1D hierarchy; hier.Hierarchy routes Fetch accesses to the L1I.
// Both interleaved generator pumps are bound to ctx, so cancelling it
// releases the fetch and data goroutines even mid-send.
func MixedBatchCtx(ctx context.Context, spec Spec, seed uint64, n int, fetchesPerData int) trace.BatchReader {
	if fetchesPerData < 1 {
		fetchesPerData = 3
	}
	dataN := n / (fetchesPerData + 1)
	fetchN := n - dataN
	return &mixedReader{
		fetch: trace.NewCursor(InstructionBatchCtx(ctx, seed+1, fetchN)),
		data:  trace.NewCursor(spec.StreamCtx(ctx, seed, dataN)),
		fpd:   fetchesPerData,
		n:     n,
	}
}

// MixedStreamFuncCtx returns a replayable factory for MixedBatchCtx
// streams, every produced reader bound to ctx — the form sim.RunContext
// uses so a cancelled run stops its mixed-stream pumps.
func MixedStreamFuncCtx(ctx context.Context, spec Spec, seed uint64, n int, fetchesPerData int) trace.StreamFunc {
	return func() trace.BatchReader { return MixedBatchCtx(ctx, spec, seed, n, fetchesPerData) }
}

// mixedReader interleaves a fetch cursor with a data cursor: up to fpd
// fetches, then one data access, ending after n accesses or when both
// inputs are exhausted (whichever comes first).  A read error ends the
// current batch and is returned, sticky, by the next ReadBatch.
type mixedReader struct {
	fetch, data         *trace.Cursor
	fpd                 int
	n, emitted          int
	k                   int // fetch slots used in the current cycle
	fetchDone, dataDone bool
	err                 error
}

func (m *mixedReader) ReadBatch(dst []trace.Access) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	i := 0
	for i < len(dst) && m.err == nil {
		dst[i], m.err = m.next()
		if m.err == nil {
			i++
		}
	}
	if i == 0 {
		return 0, m.err
	}
	return i, nil
}

// next yields the interleave's next access, or io.EOF once it is over.
func (m *mixedReader) next() (trace.Access, error) {
	for {
		if m.emitted >= m.n || (m.fetchDone && m.dataDone) {
			return trace.Access{}, io.EOF
		}
		if m.k < m.fpd && !m.fetchDone {
			a, err := m.fetch.Next()
			if err == io.EOF {
				m.fetchDone = true
				continue
			}
			if err != nil {
				return trace.Access{}, err
			}
			m.k++
			m.emitted++
			return a, nil
		}
		// Data slot: one access, then a new fetch cycle.
		m.k = 0
		if m.dataDone {
			continue
		}
		a, err := m.data.Next()
		if err == io.EOF {
			m.dataDone = true
			continue
		}
		if err != nil {
			return trace.Access{}, err
		}
		m.emitted++
		return a, nil
	}
}

func (m *mixedReader) Close() error {
	ferr, derr := m.fetch.Close(), m.data.Close()
	if ferr != nil {
		return ferr
	}
	return derr
}
