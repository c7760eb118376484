// Package rng provides deterministic, splittable pseudo-randomness for
// every stochastic component of VEXUS (data generation, simulated
// explorers, layout jitter). Every experiment vexus-bench prints is
// reproducible because every random draw flows from an explicit seed
// through this package.
//
// The generator is xorshift64* — tiny, fast, and good enough for
// simulation workloads (not cryptographic).
package rng

import "math"

// RNG is a deterministic pseudo-random generator. The zero value is not
// usable; construct with New.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has a zero fixed point.
func New(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r := &RNG{state: seed}
	// Warm up so that small consecutive seeds decorrelate.
	for i := 0; i < 4; i++ {
		r.Uint64()
	}
	return r
}

// Split derives an independent child generator. Children with distinct
// labels from the same parent produce decorrelated streams, which lets
// each experiment component own its stream without global sequencing.
func (r *RNG) Split(label uint64) *RNG {
	return New(r.Uint64() ^ (label * 0xBF58476D1CE4E5B9))
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a uniform non-negative int64.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 <= 1e-300 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns a uniformly random index into a slice of length n.
func (r *RNG) Choice(n int) int { return r.Intn(n) }

// WeightedChoice returns index i with probability weights[i]/sum(weights).
// Negative weights are treated as zero. If all weights are zero it falls
// back to a uniform choice. It panics on an empty slice.
func (r *RNG) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: WeightedChoice with empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}

// SampleWithoutReplacement returns k distinct uniform indices from [0, n)
// in random order. If k >= n it returns a permutation of [0, n).
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	// Partial Fisher–Yates over an index table; O(n) memory, O(k) swaps.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
