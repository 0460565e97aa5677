package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{[]float64{2, 2, 2, 2}, 2},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Mean(nil)) {
		t.Errorf("Mean(nil) should be NaN")
	}
}

func TestVarianceAndStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 = 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got, want := Std(xs), math.Sqrt(32.0/7.0); !almostEqual(got, want, 1e-12) {
		t.Errorf("Std = %v, want %v", got, want)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Errorf("Variance of a single sample should be NaN")
	}
}

func TestCoefVar(t *testing.T) {
	xs := []float64{10, 10, 10, 10}
	if got := CoefVar(xs); !almostEqual(got, 0, 1e-12) {
		t.Errorf("CoefVar of constant series = %v, want 0", got)
	}
	if !math.IsNaN(CoefVar([]float64{1, -1})) {
		t.Errorf("CoefVar with zero mean should be NaN")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); !almostEqual(got, 4, 1e-9) {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	if !math.IsNaN(GeoMean([]float64{1, 0, 2})) {
		t.Errorf("GeoMean with zero should be NaN")
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Errorf("GeoMean(nil) should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	if got := Min(xs); got != -2 {
		t.Errorf("Min = %v, want -2", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 50); !almostEqual(got, 5, 1e-12) {
		t.Errorf("interpolated median = %v, want 5", got)
	}
	// Input must not be mutated.
	in := []float64{9, 1, 5}
	Percentile(in, 50)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Errorf("Percentile mutated its input: %v", in)
	}
	// Clamping.
	if got := Percentile(xs, -5); got != 1 {
		t.Errorf("Percentile(-5) = %v, want 1", got)
	}
	if got := Percentile(xs, 200); got != 5 {
		t.Errorf("Percentile(200) = %v, want 5", got)
	}
}

func TestCI95(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	want := 1.96 * Std(xs) / 2
	if got := CI95(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("unexpected summary %+v", s)
	}
}

// Property: mean is bounded by min and max.
func TestQuickMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: geometric mean of positive values is <= arithmetic mean
// (AM-GM inequality).
func TestQuickAMGM(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = rng.Float64()*1e6 + 1e-9
		}
		gm, am := GeoMean(xs), Mean(xs)
		if gm > am*(1+1e-9) {
			t.Fatalf("AM-GM violated: gm=%v am=%v xs=%v", gm, am, xs)
		}
	}
}
