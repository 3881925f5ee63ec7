package core

import (
	"fmt"
)

// PanicError records a panic recovered inside the evaluation engine — a
// scheme constructor or replay hot path that blew up on one cell.  RunOne
// and Grid convert such panics into per-cell errors so a single
// faulty model cannot tear down a multi-benchmark run: the cell carries
// the panic (with its captured stack) in Result.Err and every other cell
// completes normally.
type PanicError struct {
	// Op names the operation that panicked ("build b_cache",
	// "benchmark fft", ...).
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the recovery point.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: %s panicked: %v", e.Op, e.Value)
}

// Unwrap exposes the panic value when it was itself an error, so callers
// can classify a recovered panic with errors.Is/As just like a returned
// error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}
