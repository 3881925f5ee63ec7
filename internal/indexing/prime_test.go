package indexing

import (
	"testing"
	"testing/quick"
)

func TestIsPrime(t *testing.T) {
	primes := []int{2, 3, 5, 7, 11, 13, 127, 509, 1021, 65521}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false", p)
		}
	}
	composites := []int{-7, 0, 1, 4, 6, 9, 1000, 1024, 65519 * 3}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true", c)
		}
	}
}

func TestLargestPrimeLE(t *testing.T) {
	cases := map[int]int{
		1024: 1021, 512: 509, 256: 251, 128: 127, 64: 61,
		2: 2, 3: 3, 4: 3, 1: 0, 0: 0, -5: 0,
	}
	for in, want := range cases {
		if got := LargestPrimeLE(in); got != want {
			t.Errorf("LargestPrimeLE(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPrimesLE(t *testing.T) {
	got := primesLE(30)
	want := []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
	if len(got) != len(want) {
		t.Fatalf("primesLE(30) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("primesLE(30) = %v", got)
		}
	}
	if primesLE(1) != nil {
		t.Error("primesLE(1) non-nil")
	}
}

func TestPrimesConsistency(t *testing.T) {
	f := func(n uint8) bool {
		ps := primesLE(int(n))
		for _, p := range ps {
			if !IsPrime(p) {
				return false
			}
		}
		// count primes ≤ n by trial division and compare
		count := 0
		for i := 2; i <= int(n); i++ {
			if IsPrime(i) {
				count++
			}
		}
		return count == len(ps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// primesLE returns all primes ≤ n ascending (sieve of Eratosthenes): an
// oracle for IsPrime independent of trial division.
func primesLE(n int) []int {
	if n < 2 {
		return nil
	}
	composite := make([]bool, n+1)
	var out []int
	for p := 2; p <= n; p++ {
		if composite[p] {
			continue
		}
		out = append(out, p)
		for q := p * p; q <= n; q += p {
			composite[q] = true
		}
	}
	return out
}
