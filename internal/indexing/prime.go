package indexing

// IsPrime reports whether n is prime (deterministic trial division; inputs
// here are cache set counts, at most a few million).
func IsPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := 3; d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// LargestPrimeLE returns the largest prime ≤ n, or 0 if n < 2.  The paper's
// prime-modulo scheme picks this prime for an S-set cache (e.g. 1021 for
// 1024 sets), trading a little fragmentation for conflict spreading.
func LargestPrimeLE(n int) int {
	for p := n; p >= 2; p-- {
		if IsPrime(p) {
			return p
		}
	}
	return 0
}
