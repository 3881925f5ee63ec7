package trace

import "io"

// RoundRobinBatch advances its inputs one access at a time through
// Cursors, so the interleave order does not depend on batch sizes, and
// forwards Close to its inputs so abandoning the combined stream releases
// any generator goroutines underneath.

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
