// Command tracegen writes a synthetic benchmark trace to disk in the
// binary, compact or text format of package trace, for replay by cmd/uniformity or
// external tools.  The trace is streamed from the generator straight into
// the encoder in batches, so files of any -len are produced in constant
// memory.
//
// Usage:
//
//	tracegen -bench fft -len 1000000 -o fft.trace
//	tracegen -bench sha -format text -o sha.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"cacheuniformity/internal/cli"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

func main() {
	bench := flag.String("bench", "fft", "benchmark name")
	length := flag.Int("len", 300_000, "trace length")
	seed := flag.Uint64("seed", 1, "workload seed")
	out := flag.String("o", "", "output file (default <bench>.trace)")
	format := flag.String("format", "binary", "output format: binary, compact or text")
	timeout := flag.Duration("timeout", 0, "abort generation after this duration (0 = none); a partial file is removed")
	flag.Parse()

	ctx, cancel := cli.RunContext(*timeout)
	defer cancel()

	spec, err := workload.Lookup(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}
	path := *out
	if path == "" {
		path = *bench + ".trace"
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	defer f.Close()
	var n int
	r := spec.StreamCtx(ctx, *seed, *length)
	switch *format {
	case "binary":
		n, err = trace.EncodeBinary(f, r)
	case "compact":
		n, err = trace.EncodeCompact(f, r)
	case "text":
		n, err = trace.EncodeText(f, r)
	default:
		err = fmt.Errorf("unknown format %q (want binary, compact or text)", *format)
	}
	if err != nil {
		// An interrupted encode leaves a truncated file: remove it rather
		// than leave a trace that silently replays short.
		_ = f.Close()
		_ = os.Remove(path)
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		if ctx.Err() != nil {
			os.Exit(130)
		}
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d accesses to %s (%s)\n", n, path, *format)
}
