// Package trace defines the memory-reference stream that drives every
// simulation in this repository.
//
// The paper's experiments run MiBench/SPEC binaries under SimpleScalar and
// M-Sim and observe the resulting L1 reference streams.  Our substitute is
// trace-driven simulation: workload generators (package workload) emit
// Access records, and the cache models consume them.  This package holds
// the record type, in-memory traces, the batched streaming interface
// (BatchReader), codecs for storing traces on disk, and stream
// combinators (filtering, limiting, interleaving) used by the SMT
// experiments.
package trace

import (
	"fmt"

	"cacheuniformity/internal/addr"
)

// Kind distinguishes reference types.  The studied techniques treat loads
// and stores identically at the indexing level, but the hierarchy model
// uses Kind for write policies, and instruction fetches go to the L1I.
type Kind uint8

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
	// Fetch is an instruction fetch.
	Fetch
)

// String returns a one-letter mnemonic (R/W/F).
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case Fetch:
		return "F"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is one of the defined kinds.
func (k Kind) Valid() bool { return k <= Fetch }

// Access is one memory reference.
type Access struct {
	Addr   addr.Addr // byte address referenced
	Kind   Kind
	Thread uint8 // hardware thread id for SMT experiments (0 for single-thread)
}

// Trace is an in-memory access sequence.
type Trace []Access

// UniqueBlocks returns the distinct block addresses in the trace under the
// given layout, in first-touch order.  The Givargis and Patel index
// construction algorithms operate on this set.
func (t Trace) UniqueBlocks(l addr.Layout) []addr.Addr {
	seen := make(map[uint64]struct{}, len(t)/4+1)
	var out []addr.Addr
	for _, a := range t {
		b := l.Block(a.Addr)
		if _, ok := seen[b]; !ok {
			seen[b] = struct{}{}
			out = append(out, l.BlockAddr(b))
		}
	}
	return out
}

// Threads returns the set of thread ids present, ascending.
func (t Trace) Threads() []uint8 {
	var present [256]bool
	for _, a := range t {
		present[a.Thread] = true
	}
	var out []uint8
	for i, p := range present {
		if p {
			out = append(out, uint8(i))
		}
	}
	return out
}

// FilterThread returns the sub-trace belonging to one thread.
func (t Trace) FilterThread(id uint8) Trace {
	var out Trace
	for _, a := range t {
		if a.Thread == id {
			out = append(out, a)
		}
	}
	return out
}

// WithThread returns a copy of the trace with every access relabelled to
// the given thread id.
func (t Trace) WithThread(id uint8) Trace {
	out := make(Trace, len(t))
	for i, a := range t {
		a.Thread = id
		out[i] = a
	}
	return out
}

// Stats summarises a trace.
type Stats struct {
	Accesses     int
	Reads        int
	Writes       int
	Fetches      int
	UniqueBlocks int
	MinAddr      addr.Addr
	MaxAddr      addr.Addr
}

// Summarize computes trace statistics under the given layout (the layout
// determines block granularity for UniqueBlocks).
func (t Trace) Summarize(l addr.Layout) Stats {
	s := Stats{Accesses: len(t)}
	if len(t) == 0 {
		return s
	}
	s.MinAddr, s.MaxAddr = t[0].Addr, t[0].Addr
	blocks := make(map[uint64]struct{})
	for _, a := range t {
		switch a.Kind {
		case Read:
			s.Reads++
		case Write:
			s.Writes++
		case Fetch:
			s.Fetches++
		}
		if a.Addr < s.MinAddr {
			s.MinAddr = a.Addr
		}
		if a.Addr > s.MaxAddr {
			s.MaxAddr = a.Addr
		}
		blocks[l.Block(a.Addr)] = struct{}{}
	}
	s.UniqueBlocks = len(blocks)
	return s
}
