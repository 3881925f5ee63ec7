package trace

import (
	"io"

	"cacheuniformity/internal/rng"
)

// Stream combinators.  LimitBatch, FilterBatch, MapBatch and ConcatBatch
// operate on whole batches; RoundRobinBatch and StochasticBatch advance
// their inputs one access at a time through Cursors, so the interleave
// order (and for StochasticBatch, the rng call sequence) does not depend
// on batch sizes.  Every combinator forwards Close to its inputs so
// abandoning a composite stream releases any generator goroutines
// underneath.

// LimitBatch wraps r, ending the stream after n accesses (n <= 0 yields an
// immediately-empty stream).
func LimitBatch(r BatchReader, n int) BatchReader {
	return &limitBatch{r: r, left: n}
}

type limitBatch struct {
	r    BatchReader
	left int
}

//lint:hotpath stream combinator on the batch path
func (l *limitBatch) ReadBatch(dst []Access) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if l.left <= 0 {
		return 0, io.EOF
	}
	if l.left < len(dst) {
		dst = dst[:l.left]
	}
	n, err := l.r.ReadBatch(dst)
	l.left -= n
	return n, err
}

func (l *limitBatch) Close() error {
	CloseBatch(l.r)
	return nil
}

// FilterBatch wraps r, passing through only accesses for which keep
// returns true.
func FilterBatch(r BatchReader, keep func(Access) bool) BatchReader {
	return &filterBatch{r: r, keep: keep}
}

type filterBatch struct {
	r    BatchReader
	keep func(Access) bool
}

//lint:hotpath stream combinator on the batch path
func (f *filterBatch) ReadBatch(dst []Access) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	for {
		n, err := f.r.ReadBatch(dst)
		if n == 0 {
			return 0, err
		}
		// Compact the kept accesses in place.
		kept := 0
		for _, a := range dst[:n] {
			if f.keep(a) {
				dst[kept] = a
				kept++
			}
		}
		if kept > 0 {
			return kept, nil
		}
	}
}

func (f *filterBatch) Close() error {
	CloseBatch(f.r)
	return nil
}

// MapBatch wraps r, transforming each access.
func MapBatch(r BatchReader, fn func(Access) Access) BatchReader {
	return &mapBatch{r: r, fn: fn}
}

type mapBatch struct {
	r  BatchReader
	fn func(Access) Access
}

//lint:hotpath stream combinator on the batch path
func (m *mapBatch) ReadBatch(dst []Access) (int, error) {
	n, err := m.r.ReadBatch(dst)
	for i := range dst[:n] {
		dst[i] = m.fn(dst[i])
	}
	return n, err
}

func (m *mapBatch) Close() error {
	CloseBatch(m.r)
	return nil
}

// ConcatBatch returns the readers' streams back to back.
func ConcatBatch(rs ...BatchReader) BatchReader {
	return &concatBatch{rs: append([]BatchReader(nil), rs...)}
}

type concatBatch struct {
	rs []BatchReader
}

//lint:hotpath stream combinator on the batch path
func (c *concatBatch) ReadBatch(dst []Access) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	for len(c.rs) > 0 {
		n, err := c.rs[0].ReadBatch(dst)
		if n > 0 {
			return n, nil
		}
		if err == nil || err == io.EOF {
			c.rs = c.rs[1:]
			continue
		}
		return 0, err
	}
	return 0, io.EOF
}

func (c *concatBatch) Close() error {
	for _, r := range c.rs {
		CloseBatch(r)
	}
	c.rs = nil
	return nil
}

// RoundRobinBatch interleaves the readers one access at a time, tagging
// stream i with thread id i.  A stream that ends is skipped; the combined
// stream ends when all inputs end.  This models an SMT fetch policy that
// alternates between threads every cycle (the paper's M-Sim setup).
func RoundRobinBatch(rs ...BatchReader) BatchReader {
	cur := make([]*Cursor, len(rs))
	live := make([]bool, len(rs))
	for i, r := range rs {
		cur[i] = NewCursor(r)
		live[i] = true
	}
	return &rrBatch{cur: cur, live: live, remaining: len(rs)}
}

type rrBatch struct {
	cur       []*Cursor
	live      []bool
	remaining int
	next      int
}

func (r *rrBatch) readOne() (Access, error) {
	for r.remaining > 0 {
		for !r.live[r.next] {
			r.next = (r.next + 1) % len(r.cur)
		}
		i := r.next
		r.next = (r.next + 1) % len(r.cur)
		a, err := r.cur[i].Next()
		if err == io.EOF {
			r.live[i] = false
			r.remaining--
			continue
		}
		if err != nil {
			return Access{}, err
		}
		a.Thread = uint8(i)
		return a, nil
	}
	return Access{}, io.EOF
}

//lint:hotpath stream combinator on the batch path
func (r *rrBatch) ReadBatch(dst []Access) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	n := 0
	for n < len(dst) {
		a, err := r.readOne()
		if err != nil {
			if n > 0 && err == io.EOF {
				return n, nil
			}
			return n, err
		}
		dst[n] = a
		n++
	}
	return n, nil
}

func (r *rrBatch) Close() error {
	var first error
	for _, c := range r.cur {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StochasticBatch interleaves the readers by drawing the next stream
// uniformly at random from those still live, tagging stream i with thread
// id i.  It models SMT co-scheduling where per-thread issue rates vary.
// A stream stays live until a draw finds it exhausted, so the sequence of
// draws depends only on src and the input lengths.
func StochasticBatch(src *rng.Source, rs ...BatchReader) BatchReader {
	cur := make([]*Cursor, len(rs))
	live := make([]int, len(rs))
	for i, r := range rs {
		cur[i] = NewCursor(r)
		live[i] = i
	}
	return &stochBatch{src: src, cur: cur, live: live}
}

type stochBatch struct {
	src  *rng.Source
	cur  []*Cursor
	live []int // indices of the streams not yet seen at EOF, ascending
}

func (s *stochBatch) readOne() (Access, error) {
	for len(s.live) > 0 {
		j := s.src.Intn(len(s.live))
		i := s.live[j]
		a, err := s.cur[i].Next()
		if err == io.EOF {
			s.live = append(s.live[:j], s.live[j+1:]...)
			continue
		}
		if err != nil {
			return Access{}, err
		}
		a.Thread = uint8(i)
		return a, nil
	}
	return Access{}, io.EOF
}

//lint:hotpath stream combinator on the batch path
func (s *stochBatch) ReadBatch(dst []Access) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	n := 0
	for n < len(dst) {
		a, err := s.readOne()
		if err != nil {
			if n > 0 && err == io.EOF {
				return n, nil
			}
			return n, err
		}
		dst[n] = a
		n++
	}
	return n, nil
}

func (s *stochBatch) Close() error {
	var first error
	for _, c := range s.cur {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
