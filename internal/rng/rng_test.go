package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestReseedMatchesNew(t *testing.T) {
	a := New(7)
	a.Uint64()
	a.Reseed(99)
	b := New(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Reseed stream differs from New at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(5)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 200; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children correlated: %d/200 equal outputs", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	p1, p2 := New(11), New(11)
	c1, c2 := p1.Split(), p2.Split()
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split not reproducible from identical parent state")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(12)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestPoissonMeanVariance(t *testing.T) {
	for _, lambda := range []float64{0.02, 0.5, 1, 5, 30, 100} {
		r := New(uint64(lambda*1000) + 17)
		const n = 100000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			k := float64(r.Poisson(lambda))
			sum += k
			sumSq += k * k
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		tol := 6 * math.Sqrt(lambda/n) // ~6 sigma of the sample mean
		if math.Abs(mean-lambda) > tol+0.01 {
			t.Errorf("Poisson(%v) mean %v, want %v +/- %v", lambda, mean, lambda, tol)
		}
		if lambda >= 0.5 && math.Abs(variance-lambda) > lambda*0.15 {
			t.Errorf("Poisson(%v) variance %v, want ~%v", lambda, variance, lambda)
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if k := r.Poisson(0); k != 0 {
			t.Fatalf("Poisson(0) = %d, want 0", k)
		}
		if k := r.Poisson(-1); k != 0 {
			t.Fatalf("Poisson(-1) = %d, want 0", k)
		}
	}
}

func TestPoissonSmallLambdaZeroFraction(t *testing.T) {
	// For lambda = 0.02 (the paper's lambda_n), P(k=0) = e^-0.02 ~= 0.9802.
	r := New(77)
	const n = 200000
	zeros := 0
	for i := 0; i < n; i++ {
		if r.Poisson(0.02) == 0 {
			zeros++
		}
	}
	got := float64(zeros) / n
	want := math.Exp(-0.02)
	if math.Abs(got-want) > 0.002 {
		t.Fatalf("P(Poisson(0.02)=0) = %v, want %v", got, want)
	}
}

// knuthPoisson is the textbook draw, threshold recomputed every call:
// the reference PoissonDist's hoisted threshold must reproduce.
func knuthPoisson(r *Source, lambda float64) int {
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// TestPoissonDistMatchesPerDrawThreshold: a PoissonDist built once
// returns what a per-draw e^-lambda returns and leaves the generator in
// the same state, i.e. it consumed the same uniforms.
func TestPoissonDistMatchesPerDrawThreshold(t *testing.T) {
	for _, lambda := range []float64{0.02, 1, 5} {
		a, b, c := New(91), New(91), New(91)
		d := NewPoissonDist(lambda)
		for i := 0; i < 1_000_000; i++ {
			want := knuthPoisson(a, lambda)
			if got := d.Draw(b); got != want {
				t.Fatalf("lambda %v draw %d: PoissonDist %d, reference %d", lambda, i, got, want)
			}
			if got := c.Poisson(lambda); got != want {
				t.Fatalf("lambda %v draw %d: Poisson %d, reference %d", lambda, i, got, want)
			}
		}
		if *a != *b || *a != *c {
			t.Fatalf("lambda %v: generator states diverged after equal draws", lambda)
		}
	}
}

// TestPoissonDistLargeLambdaTakesPA: from lambda = 30 the draw is
// Atkinson's rejection method, a handful of uniforms per variate where
// Knuth's product would burn lambda+1 of them.
func TestPoissonDistLargeLambdaTakesPA(t *testing.T) {
	for _, lambda := range []float64{30, 100} {
		const draws = 1000
		r, ref := New(5), New(5)
		d := NewPoissonDist(lambda)
		for i := 0; i < draws; i++ {
			d.Draw(r)
		}
		used := 0
		for *ref != *r {
			ref.Uint64()
			if used++; used > draws*10 {
				t.Fatalf("lambda %v: more than %d uniforms for %d draws (Knuth branch?)", lambda, used, draws)
			}
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(21)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(22)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(33)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinctAndInRange(t *testing.T) {
	r := New(44)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(50)
		k := r.Intn(n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			t.Fatalf("Sample(%d,%d) length %d", n, k, len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Sample(%d,%d) invalid: %v", n, k, s)
			}
			seen[v] = true
		}
	}
}

func TestSamplePanicsWhenKExceedsN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(2,3) did not panic")
		}
	}()
	New(1).Sample(2, 3)
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(55)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(56)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate %v", got)
	}
}

func TestUint64nPowerOfTwoFastPath(t *testing.T) {
	r := New(66)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(8); v >= 8 {
			t.Fatalf("Uint64n(8) = %d", v)
		}
	}
}

func TestLogFactorialAgainstLgamma(t *testing.T) {
	for n := 0.0; n <= 200; n++ {
		want, _ := math.Lgamma(n + 1)
		got := logFactorial(n)
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("logFactorial(%v) = %v, want %v", n, got, want)
		}
	}
}

// Property: Intn output is always within bounds for arbitrary seeds.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds yield identical Poisson sequences.
func TestQuickPoissonDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 10; i++ {
			if a.Poisson(1.5) != b.Poisson(1.5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkPoissonSmallLambda(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Poisson(0.02)
	}
	_ = sink
}

func BenchmarkPoissonLargeLambda(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Poisson(100)
	}
	_ = sink
}
