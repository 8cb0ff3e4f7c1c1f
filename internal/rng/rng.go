// Package rng provides deterministic, splittable pseudo-random number
// generation for the orfdisk simulators and learners.
//
// Every stochastic component in the repository (fleet simulation, bootstrap
// sampling, online bagging, random test generation) draws from an rng.Source
// seeded explicitly, so whole experiments are reproducible from a single
// seed. Sources are cheap to split: a parent source can derive independent
// child streams (one per tree, per disk, per worker) that can then be used
// concurrently without locking.
//
// The generator is xoshiro256** seeded through SplitMix64, following the
// reference constructions by Blackman and Vigna. Both are small, fast and
// well tested; neither is cryptographically secure, which is fine for
// simulation.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator. It is NOT safe
// for concurrent use; derive one Source per goroutine with Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances the state and returns the next SplitMix64 output.
// It is used for seeding so that nearby seeds yield unrelated streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed via SplitMix64.
func New(seed uint64) *Source {
	r := &Source{}
	r.Reseed(seed)
	return r
}

// Reseed resets the Source to the stream defined by seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
	// xoshiro must not start from the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives an independent child Source. The child's stream is a pure
// function of the parent's state at the time of the call, so a fixed
// sequence of Split calls yields a fixed set of streams.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits → [0,1) with full double precision.
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Poisson returns a Poisson(lambda) variate. For small lambda it uses
// Knuth's product-of-uniforms method; for large lambda it switches to the
// PA normal-approximation rejection method of Atkinson, keeping the draw
// O(1) regardless of lambda.
//
// Poisson is the heart of online bagging: each arriving sample is replayed
// k ~ Poisson(lambda) times into each tree (Oza & Russell 2001), with
// lambda = lambda_p for positive and lambda_n for negative samples in the
// paper's imbalance-aware variant (Eq. 3).
func (r *Source) Poisson(lambda float64) int {
	return NewPoissonDist(lambda).Draw(r)
}

// PoissonDist is Poisson(lambda) with Knuth's stopping threshold
// e^-lambda worked out once, for callers that draw from one rate many
// times: at small lambda the exponential costs more than the draw.
// Draw(r) returns what r.Poisson(lambda) returns, from the same uniforms.
type PoissonDist struct {
	lambda float64
	limit  float64 // e^-lambda; unused on the PA branch
}

// NewPoissonDist prepares draws from Poisson(lambda).
func NewPoissonDist(lambda float64) PoissonDist {
	d := PoissonDist{lambda: lambda}
	if lambda > 0 && lambda < 30 {
		d.limit = math.Exp(-lambda)
	}
	return d
}

// Draw returns a Poisson variate drawn from r.
func (d PoissonDist) Draw(r *Source) int {
	lambda := d.lambda
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		// Knuth: count multiplications until the product drops below
		// e^-lambda.
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= d.limit {
				return k
			}
			k++
		}
	default:
		// Atkinson's PA algorithm.
		c := 0.767 - 3.36/lambda
		beta := math.Pi / math.Sqrt(3*lambda)
		alpha := beta * lambda
		k := math.Log(c) - lambda - math.Log(beta)
		for {
			u := r.Float64()
			if u <= 0 || u >= 1 {
				continue
			}
			x := (alpha - math.Log((1-u)/u)) / beta
			n := math.Floor(x + 0.5)
			if n < 0 {
				continue
			}
			v := r.Float64()
			if v <= 0 {
				continue
			}
			y := alpha - beta*x
			lhs := y + math.Log(v/(1+math.Exp(y))/(1+math.Exp(y)))
			rhs := k + n*math.Log(lambda) - logFactorial(n)
			if lhs <= rhs {
				return int(n)
			}
		}
	}
}

// logFactorial returns ln(n!) via Stirling's series for large n and a
// small lookup for n <= 20.
func logFactorial(n float64) float64 {
	if n < 0 {
		return math.Inf(1)
	}
	if n <= 20 {
		f := 1.0
		for i := 2.0; i <= n; i++ {
			f *= i
		}
		return math.Log(f)
	}
	// Stirling with correction terms.
	return n*math.Log(n) - n + 0.5*math.Log(2*math.Pi*n) +
		1/(12*n) - 1/(360*n*n*n)
}

// Shuffle randomizes the order of n elements using the Fisher-Yates
// algorithm, calling swap to exchange positions.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Sample returns k distinct indices drawn uniformly without replacement
// from [0, n). It panics if k > n.
func (r *Source) Sample(n, k int) []int {
	if k > n {
		panic("rng: Sample k > n")
	}
	// Floyd's algorithm: O(k) expected, no O(n) allocation.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// State exposes the generator's four state words for serialization.
func (r *Source) State() (s0, s1, s2, s3 uint64) {
	return r.s0, r.s1, r.s2, r.s3
}

// FromState reconstructs a Source from state words captured with State.
// An all-zero state (invalid for xoshiro) is nudged to a valid one.
func FromState(s0, s1, s2, s3 uint64) *Source {
	if s0|s1|s2|s3 == 0 {
		s0 = 0x9e3779b97f4a7c15
	}
	return &Source{s0: s0, s1: s1, s2: s2, s3: s3}
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
