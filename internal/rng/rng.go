// Package rng provides a small deterministic pseudorandom generator used
// across the repository wherever reproducible randomness is needed (UXS
// generation, random graph construction, randomized baselines).
//
// The generator is an xorshift64* variant. It is deliberately independent of
// math/rand so that generated artifacts (universal exploration sequences,
// benchmark graphs) are stable across Go releases: the experiment tables
// recorded in experiments/testdata/tables.md depend on these streams being
// reproducible bit-for-bit.
package rng

// RNG is a deterministic xorshift64* pseudorandom generator.
// The zero value is not valid; use New.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. A zero seed is mapped to a
// fixed non-zero constant, since xorshift has a fixed point at zero.
func New(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 // golden-ratio constant
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64-bit pseudorandom value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudorandom integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a pseudorandom permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
