package stats

import (
	"math"
	"testing"

	"orfdisk/internal/rng"
)

func TestKSIdenticalDistributions(t *testing.T) {
	r := rng.New(1)
	x := make([]float64, 500)
	y := make([]float64, 500)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = r.NormFloat64()
	}
	res := KolmogorovSmirnov(x, y)
	if res.PValue < 0.001 {
		t.Fatalf("identical distributions rejected: %+v", res)
	}
	if res.D > 0.12 {
		t.Fatalf("D = %v too large for identical samples", res.D)
	}
}

func TestKSShiftedDistributions(t *testing.T) {
	r := rng.New(2)
	x := make([]float64, 400)
	y := make([]float64, 400)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = r.NormFloat64() + 1
	}
	res := KolmogorovSmirnov(x, y)
	if res.PValue >= 0.001 {
		t.Fatalf("unit shift not detected: %+v", res)
	}
	if res.D < 0.3 {
		t.Fatalf("D = %v too small for a unit shift", res.D)
	}
}

func TestKSScaleChangeDetected(t *testing.T) {
	// Same mean, different variance — rank-sum misses this, KS does not.
	r := rng.New(3)
	x := make([]float64, 800)
	y := make([]float64, 800)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = 3 * r.NormFloat64()
	}
	ks := KolmogorovSmirnov(x, y)
	if ks.PValue >= 0.001 {
		t.Fatalf("variance change not detected by KS: %+v", ks)
	}
	rs := RankSum(x, y)
	if rs.Discriminative(0.001) {
		t.Log("rank-sum also fired (possible but unusual for pure scale change)")
	}
}

func TestKSEmptyInput(t *testing.T) {
	res := KolmogorovSmirnov(nil, []float64{1})
	if res.PValue != 1 || res.D != 0 {
		t.Fatalf("empty input should be inconclusive: %+v", res)
	}
}

func TestKSSymmetric(t *testing.T) {
	r := rng.New(4)
	x := make([]float64, 100)
	y := make([]float64, 150)
	for i := range x {
		x[i] = r.Float64()
	}
	for i := range y {
		y[i] = r.Float64() * 1.3
	}
	a := KolmogorovSmirnov(x, y)
	b := KolmogorovSmirnov(y, x)
	if math.Abs(a.D-b.D) > 1e-12 || math.Abs(a.PValue-b.PValue) > 1e-12 {
		t.Fatalf("KS not symmetric: %+v vs %+v", a, b)
	}
}

func TestKSDBounds(t *testing.T) {
	// Disjoint supports: D must be exactly 1.
	res := KolmogorovSmirnov([]float64{1, 2, 3}, []float64{10, 11, 12})
	if res.D != 1 {
		t.Fatalf("disjoint supports D = %v, want 1", res.D)
	}
}

func TestKSProbMonotone(t *testing.T) {
	prev := 1.0
	for l := 0.0; l < 3; l += 0.1 {
		p := ksProb(l)
		if p > prev+1e-12 || p < 0 || p > 1 {
			t.Fatalf("ksProb not monotone/bounded at %v: %v", l, p)
		}
		prev = p
	}
	// Known value: Q(1.22) ~ 0.10.
	if p := ksProb(1.224); math.Abs(p-0.10) > 0.01 {
		t.Fatalf("ksProb(1.224) = %v, want ~0.10", p)
	}
}
