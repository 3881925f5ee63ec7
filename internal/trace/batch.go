package trace

import (
	"errors"
	"io"
)

// The batched streaming layer.  A BatchReader delivers accesses in slices
// instead of one interface call per reference, which keeps the replay hot
// loop out of virtual dispatch and — combined with the workload package's
// generator streams — bounds simulator memory to O(batch size) per
// pipeline regardless of trace length.  It is the io.Reader of this
// repository: readers fill a caller-owned buffer and are single-use.

// DefaultBatch is the batch size used whenever a caller does not supply
// its own buffer: 4096 accesses ≈ 64 KiB, large enough to amortise
// per-batch overheads and small enough to stay cache- and memory-friendly.
const DefaultBatch = 4096

// BatchReader is a stream of accesses delivered in batches.
//
// ReadBatch fills dst with up to len(dst) accesses and returns the number
// written.  The contract mirrors a strict io.Reader: n > 0 implies
// err == nil, and an exhausted stream returns (0, io.EOF) on every
// subsequent call.  (0, nil) is returned only for len(dst) == 0.
// Readers are single-use and not safe for concurrent use.
type BatchReader interface {
	ReadBatch(dst []Access) (int, error)
}

// StreamFunc returns a fresh BatchReader replaying the same access
// sequence on every call.  It is the repository's handle for a
// *replayable* stream: profile-driven schemes (Givargis, Patel, the
// Figure-5 selector) consume one stream to profile and a second to
// replay, instead of holding a materialized trace between the passes.
type StreamFunc func() BatchReader

// CloseBatch releases any resources held by a BatchReader (generator
// goroutine, open file).  It is safe to call on any reader; streams that
// hold nothing simply ignore it.  Fully drained streams release their
// resources on their own, so CloseBatch matters only when a consumer
// abandons a stream early.
func CloseBatch(r BatchReader) {
	if c, ok := r.(io.Closer); ok {
		_ = c.Close()
	}
}

// NewBatchReader returns a BatchReader over the in-memory trace.
func (t Trace) NewBatchReader() BatchReader { return &sliceBatchReader{t: t} }

// Stream returns a StreamFunc replaying the in-memory trace, the adapter
// that lets materialized traces flow through the streaming pipeline.
func (t Trace) Stream() StreamFunc {
	return func() BatchReader { return t.NewBatchReader() }
}

type sliceBatchReader struct {
	t Trace
	i int
}

func (r *sliceBatchReader) ReadBatch(dst []Access) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if r.i >= len(r.t) {
		return 0, io.EOF
	}
	n := copy(dst, r.t[r.i:])
	r.i += n
	return n, nil
}

// CollectBatch drains a BatchReader into a Trace, up to max accesses
// (max <= 0 means unlimited).  Errors other than io.EOF are returned with
// the partial trace.
func CollectBatch(r BatchReader, max int) (Trace, error) {
	var t Trace
	buf := make([]Access, DefaultBatch)
	for {
		want := buf
		if max > 0 {
			left := max - len(t)
			if left <= 0 {
				return t, nil
			}
			if left < len(want) {
				want = want[:left]
			}
		}
		n, err := r.ReadBatch(want)
		t = append(t, want[:n]...)
		if n == 0 {
			if err == nil || errors.Is(err, io.EOF) {
				return t, nil
			}
			return t, err
		}
	}
}

// Cursor adapts a BatchReader to per-access iteration: it buffers one
// batch internally and serves Next from it.  It is the one per-access view
// of a stream, for consumers that must interleave several streams access
// by access (RoundRobinBatch, StochasticBatch, workload.MixedBatch) or
// inspect accesses one at a time.
type Cursor struct {
	r   BatchReader
	buf []Access
	pos int
	n   int
	err error
}

// NewCursor returns a per-access view over a batched stream.
func NewCursor(r BatchReader) *Cursor {
	return &Cursor{r: r, buf: make([]Access, DefaultBatch)}
}

// Next returns the next access.  An exhausted stream returns io.EOF, and a
// failed one its error, on this and every later call.
func (c *Cursor) Next() (Access, error) {
	if c.pos >= c.n {
		if c.err != nil {
			return Access{}, c.err
		}
		n, err := c.r.ReadBatch(c.buf)
		if n == 0 {
			if err == nil {
				err = io.EOF
			}
			c.err = err
			return Access{}, err
		}
		c.pos, c.n = 0, n
	}
	a := c.buf[c.pos]
	c.pos++
	return a, nil
}

// Close releases the underlying stream.
func (c *Cursor) Close() error {
	CloseBatch(c.r)
	return nil
}
