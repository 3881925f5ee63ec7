// Package workload synthesises memory-reference traces whose structure
// models the MiBench and SPEC CPU2006 programs the paper measures.
//
// The paper drives its cache simulations with SimpleScalar/M-Sim running
// Alpha binaries; that toolchain and those traces are not reproducible
// here, so each benchmark is replaced by a generator that composes the
// access-pattern kernels below (sequential streams, strided sweeps,
// Zipf-weighted tables, pointer chases, 2-D array walks, stack frames)
// with parameters chosen to reflect the published memory behaviour of the
// original program: working-set size, stride structure, hot-set
// concentration, and read/write mix.  What the studied techniques react to
// — which cache sets the stream hammers and how — is carried entirely by
// this structure.  See DESIGN.md §2 for the substitution argument.
//
// All generators are deterministic functions of (seed, length).
package workload

import (
	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/rng"
	"cacheuniformity/internal/trace"
)

// Region bases spread the synthetic segments across a 32-bit space the way
// a SimpleScalar Alpha process lays out text, data, heap and stack.
const (
	TextBase  = 0x0012_0000
	DataBase  = 0x1000_0000
	HeapBase  = 0x2000_0000
	StackBase = 0x7FFF_0000
)

// gen is the builder shared by all kernels: it accumulates accesses and
// owns the random source.  A flush hook hands off each filled batch so
// only one batch is ever resident (see stream.go); the kernels consume the
// rng in the same order whatever the batch size, so every stream from the
// same seed is identical.
type gen struct {
	src     *rng.Source
	out     trace.Trace
	max     int
	emitted int
	// flush is called with the full batch and returns the buffer to
	// continue emitting into.
	flush func(trace.Trace) trace.Trace
}

func (g *gen) full() bool { return g.emitted >= g.max }

func (g *gen) emit(a uint64, k trace.Kind) {
	if g.full() {
		return
	}
	g.out = append(g.out, trace.Access{Addr: addr.Addr(a), Kind: k})
	g.emitted++
	if len(g.out) == cap(g.out) {
		g.out = g.flush(g.out)
	}
}

// seq emits a sequential element-wise scan of count elements of elemSize
// bytes starting at base; writeEvery > 0 makes every writeEvery-th access
// a store.
func (g *gen) seq(base uint64, count, elemSize int, writeEvery int) {
	for i := 0; i < count && !g.full(); i++ {
		k := trace.Read
		if writeEvery > 0 && i%writeEvery == writeEvery-1 {
			k = trace.Write
		}
		g.emit(base+uint64(i*elemSize), k)
	}
}

// strided emits count accesses with a fixed byte stride — the kernel
// behind FFT butterflies and column-major matrix walks.  Power-of-two
// strides are the classic conflict generator.
func (g *gen) strided(base uint64, count int, stride uint64, k trace.Kind) {
	for i := 0; i < count && !g.full(); i++ {
		g.emit(base+uint64(i)*stride, k)
	}
}

// zipfTable emits count lookups into a table of entries elements,
// popularity-ranked by a Zipf(s) law over a fixed random permutation —
// hash tables, sboxes, symbol tables.
func (g *gen) zipfTable(base uint64, entries, elemSize, count int, s float64, writeFrac float64) {
	z := rng.NewZipf(g.src, s, entries)
	perm := g.src.Perm(entries) // rank → slot, so hot entries scatter
	for i := 0; i < count && !g.full(); i++ {
		slot := perm[z.Next()]
		k := trace.Read
		if writeFrac > 0 && g.src.Float64() < writeFrac {
			k = trace.Write
		}
		g.emit(base+uint64(slot*elemSize), k)
	}
}

// chaser is a persistent pointer-chase state: a random permutation over
// nodes (built once — it is the dominant setup cost for the big-graph
// workloads) walked incrementally across calls.
type chaser struct {
	base     uint64
	nodeSize int
	next     []int
	cur      int
}

// newChaser builds the chase graph: a random permutation (union of
// cycles), so the walk never gets stuck and revisits have the reuse
// distance of the cycle length.
func (g *gen) newChaser(base uint64, nodes, nodeSize int) *chaser {
	return &chaser{base: base, nodeSize: nodeSize, next: g.src.Perm(nodes)}
}

// walk emits count chase steps.  Each step reads the node header (the
// "next" pointer) and optionally a payload word.
func (c *chaser) walk(g *gen, count int, payload bool) {
	for i := 0; i < count && !g.full(); i++ {
		g.emit(c.base+uint64(c.cur*c.nodeSize), trace.Read)
		if payload && !g.full() {
			g.emit(c.base+uint64(c.cur*c.nodeSize+8), trace.Read)
		}
		c.cur = c.next[c.cur]
	}
}

// chase emits a one-shot pointer chase (see chaser for repeated walks).
func (g *gen) chase(base uint64, nodes, nodeSize, count int, payload bool) {
	g.newChaser(base, nodes, nodeSize).walk(g, count, payload)
}

// matrix2D walks an rows×cols matrix of elemSize-byte elements.  rowMajor
// selects traversal order; column-major on power-of-two row pitches is a
// classic set-conflict pattern.
func (g *gen) matrix2D(base uint64, rows, cols, elemSize int, rowMajor bool, k trace.Kind) {
	pitch := uint64(cols * elemSize)
	if rowMajor {
		for r := 0; r < rows && !g.full(); r++ {
			for c := 0; c < cols && !g.full(); c++ {
				g.emit(base+uint64(r)*pitch+uint64(c*elemSize), k)
			}
		}
		return
	}
	for c := 0; c < cols && !g.full(); c++ {
		for r := 0; r < rows && !g.full(); r++ {
			g.emit(base+uint64(r)*pitch+uint64(c*elemSize), k)
		}
	}
}

// stackFrames models call/return bursts: descending frame pushes, local
// touches, then pops.  depth frames of frameSize bytes below StackBase.
func (g *gen) stackFrames(depth, frameSize, localTouches int) {
	for d := 0; d < depth && !g.full(); d++ {
		frame := uint64(StackBase) - uint64((d+1)*frameSize)
		g.emit(frame, trace.Write) // push return address
		for t := 0; t < localTouches && !g.full(); t++ {
			off := uint64(g.src.Intn(frameSize/8) * 8)
			k := trace.Read
			if g.src.Bool() {
				k = trace.Write
			}
			g.emit(frame+off, k)
		}
	}
	for d := depth - 1; d >= 0 && !g.full(); d-- {
		frame := uint64(StackBase) - uint64((d+1)*frameSize)
		g.emit(frame, trace.Read) // pop
	}
}

// butterfly emits one radix-2 FFT stage over n complex elements (elemSize
// bytes each) with the given half-distance: pairs (i, i+half) are read and
// written — power-of-two strides throughout, the source of Figure 1's
// extreme non-uniformity.
func (g *gen) butterfly(base uint64, n, elemSize, half int) {
	for i := 0; i < n-half && !g.full(); i += 2 * half {
		for j := i; j < i+half && !g.full(); j++ {
			a := base + uint64(j*elemSize)
			b := base + uint64((j+half)*elemSize)
			g.emit(a, trace.Read)
			g.emit(b, trace.Read)
			g.emit(a, trace.Write)
			g.emit(b, trace.Write)
		}
	}
}

// gather emits count accesses at uniformly random element offsets within
// a region of elements entries — cold, unstructured traffic.
func (g *gen) gather(base uint64, elements, elemSize, count int, writeFrac float64) {
	for i := 0; i < count && !g.full(); i++ {
		k := trace.Read
		if writeFrac > 0 && g.src.Float64() < writeFrac {
			k = trace.Write
		}
		g.emit(base+uint64(g.src.Intn(elements)*elemSize), k)
	}
}
