package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"orfdisk/internal/rng"
)

func TestRankSumIdenticalDistributions(t *testing.T) {
	r := rng.New(1)
	x := make([]float64, 300)
	y := make([]float64, 300)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = r.NormFloat64()
	}
	res := RankSum(x, y)
	if res.PValue < 0.01 {
		t.Fatalf("identical distributions rejected: p=%v z=%v", res.PValue, res.Z)
	}
	if res.Discriminative(0.001) {
		t.Fatal("Discriminative(0.001) true for identical distributions")
	}
}

func TestRankSumShiftedDistributions(t *testing.T) {
	r := rng.New(2)
	x := make([]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = r.NormFloat64() + 1.0
	}
	res := RankSum(x, y)
	if res.PValue > 1e-6 {
		t.Fatalf("clear shift not detected: p=%v", res.PValue)
	}
	if !res.Discriminative(0.01) {
		t.Fatal("Discriminative(0.01) false for shifted distributions")
	}
}

func TestRankSumEmptyInputs(t *testing.T) {
	res := RankSum(nil, []float64{1, 2, 3})
	if res.PValue != 1 || res.Discriminative(0.05) {
		t.Fatalf("empty x should be inconclusive, got %+v", res)
	}
	res = RankSum([]float64{1}, nil)
	if res.PValue != 1 {
		t.Fatalf("empty y should be inconclusive, got %+v", res)
	}
}

func TestRankSumAllTied(t *testing.T) {
	x := []float64{5, 5, 5, 5}
	y := []float64{5, 5, 5}
	res := RankSum(x, y)
	if res.PValue != 1 || res.Z != 0 {
		t.Fatalf("all-tied input should give p=1, got %+v", res)
	}
}

func TestRankSumKnownSmallCase(t *testing.T) {
	// x = {1,2,3}, y = {4,5,6}: U_x = 0, the most extreme configuration.
	res := RankSum([]float64{1, 2, 3}, []float64{4, 5, 6})
	if res.U != 0 {
		t.Fatalf("U = %v, want 0", res.U)
	}
	if res.PValue > 0.11 {
		t.Fatalf("extreme separation p=%v too large", res.PValue)
	}
}

func TestRankSumSymmetry(t *testing.T) {
	r := rng.New(3)
	x := make([]float64, 50)
	y := make([]float64, 80)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for i := range y {
		y[i] = r.NormFloat64() + 0.3
	}
	a := RankSum(x, y)
	b := RankSum(y, x)
	if math.Abs(a.PValue-b.PValue) > 1e-12 {
		t.Fatalf("p-value not symmetric: %v vs %v", a.PValue, b.PValue)
	}
	if math.Abs(a.Z+b.Z) > 1e-12 {
		t.Fatalf("z not antisymmetric: %v vs %v", a.Z, b.Z)
	}
}

func TestRankSumUStatisticComplement(t *testing.T) {
	// U_x + U_y = nx * ny must always hold.
	f := func(seed uint64, nxRaw, nyRaw uint8) bool {
		nx := int(nxRaw%20) + 1
		ny := int(nyRaw%20) + 1
		r := rng.New(seed)
		x := make([]float64, nx)
		y := make([]float64, ny)
		for i := range x {
			x[i] = math.Floor(r.Float64() * 10) // induce ties
		}
		for i := range y {
			y[i] = math.Floor(r.Float64() * 10)
		}
		ux := RankSum(x, y).U
		uy := RankSum(y, x).U
		return math.Abs(ux+uy-float64(nx*ny)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfusionRates(t *testing.T) {
	var c Confusion
	outcomes := []DiskOutcome{
		{Failed: true, Alarmed: true},
		{Failed: true, Alarmed: true},
		{Failed: true, Alarmed: false},
		{Failed: false, Alarmed: true},
		{Failed: false, Alarmed: false},
		{Failed: false, Alarmed: false},
		{Failed: false, Alarmed: false},
	}
	for _, o := range outcomes {
		c.Add(o)
	}
	if c.TP != 2 || c.FN != 1 || c.FP != 1 || c.TN != 3 {
		t.Fatalf("confusion = %+v", c)
	}
	if got := c.FDR(); math.Abs(got-100*2.0/3.0) > 1e-9 {
		t.Fatalf("FDR = %v", got)
	}
	if got := c.FAR(); math.Abs(got-25) > 1e-9 {
		t.Fatalf("FAR = %v", got)
	}
	if c.FailedDisks() != 3 || c.GoodDisks() != 4 {
		t.Fatalf("disk counts wrong: %+v", c)
	}
}

func TestConfusionEmptyRatesAreNaN(t *testing.T) {
	var c Confusion
	if !math.IsNaN(c.FDR()) || !math.IsNaN(c.FAR()) {
		t.Fatalf("empty confusion rates should be NaN: %v %v", c.FDR(), c.FAR())
	}
}

func TestSummarize(t *testing.T) {
	m := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m.Mean-5) > 1e-9 {
		t.Fatalf("mean = %v", m.Mean)
	}
	if math.Abs(m.Std-math.Sqrt(32.0/7.0)) > 1e-9 {
		t.Fatalf("std = %v", m.Std)
	}
	if m.N != 8 {
		t.Fatalf("n = %d", m.N)
	}
}

func TestSummarizeSkipsNaN(t *testing.T) {
	m := Summarize([]float64{1, math.NaN(), 3})
	if m.N != 2 || math.Abs(m.Mean-2) > 1e-9 {
		t.Fatalf("got %+v", m)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	m := Summarize(nil)
	if !math.IsNaN(m.Mean) || m.N != 0 {
		t.Fatalf("got %+v", m)
	}
	if m.String() != "n/a" {
		t.Fatalf("String() = %q", m.String())
	}
}

func TestSummarizeSingle(t *testing.T) {
	m := Summarize([]float64{7})
	if m.Mean != 7 || m.Std != 0 || m.N != 1 {
		t.Fatalf("got %+v", m)
	}
}

func TestDescribeBasic(t *testing.T) {
	d := Describe([]float64{1, 2, 3, 4, 5})
	if d.N != 5 || d.Mean != 3 || d.Min != 1 || d.Max != 5 || d.Median != 3 {
		t.Fatalf("got %+v", d)
	}
	if math.Abs(d.Std-math.Sqrt(2.5)) > 1e-9 {
		t.Fatalf("std = %v", d.Std)
	}
}

func TestDescribeEmpty(t *testing.T) {
	d := Describe(nil)
	if d.N != 0 || !math.IsNaN(d.Mean) {
		t.Fatalf("got %+v", d)
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, c := range cases {
		if got := Quantile(data, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(empty) should be NaN")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		data := make([]float64, 20)
		for i := range data {
			data[i] = r.Float64()
		}
		sort.Float64s(data)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(data, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormSF(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963985, 0.025},
		{2.575829304, 0.005},
	}
	for _, c := range cases {
		if got := normSF(c.z); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("normSF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}
