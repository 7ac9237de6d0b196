package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	approx(t, "Mean", s.Mean, 5, 1e-12)
	approx(t, "Median", s.Median, 4.5, 1e-12)
	// Sample stddev of this classic set is sqrt(32/7).
	approx(t, "Stddev", s.Stddev, math.Sqrt(32.0/7.0), 1e-12)
	approx(t, "Min", s.Min, 2, 0)
	approx(t, "Max", s.Max, 9, 0)
	approx(t, "Total", s.Total, 40, 0)
	if s.N != 8 {
		t.Errorf("N = %d, want 8", s.N)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Median != 3 || s.Stddev != 0 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	approx(t, "q0", Quantile(xs, 0), 1, 0)
	approx(t, "q1", Quantile(xs, 1), 4, 0)
	approx(t, "median", Quantile(xs, 0.5), 2.5, 1e-12)
	approx(t, "q25", Quantile(xs, 0.25), 1.75, 1e-12)
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) != 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestCI99(t *testing.T) {
	if CI99([]float64{1}) != 0 {
		t.Error("CI99 of one sample should be 0")
	}
	xs := []float64{10, 12, 8, 11, 9}
	ci := CI99(xs)
	s := Summarize(xs)
	// n=5 → df=4 → t = 4.604.
	want := 4.604 * s.Stddev / math.Sqrt(5)
	approx(t, "CI99", ci, want, 1e-9)
	if ci <= 0 {
		t.Error("CI99 should be positive for varied samples")
	}
	// Large samples converge to the normal critical value.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 7)
	}
	sb := Summarize(big)
	approx(t, "CI99 large-n", CI99(big), z99*sb.Stddev/10, 1e-9)
	// Critical values decrease with df and stay above the normal value.
	prev := math.Inf(1)
	for n := 2; n <= 40; n++ {
		c := tCrit99(n)
		if c > prev || c < z99 {
			t.Fatalf("tCrit99(%d) = %g not monotone toward %g", n, c, z99)
		}
		prev = c
	}
	if tCrit99(1) != 0 {
		t.Error("tCrit99(1) should be 0 (undefined)")
	}
}

func TestGeometricSamplerMean(t *testing.T) {
	r := NewRand(1)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(FileSizeP))
	}
	mean := sum / n
	// Mean of geometric(p) is 1/p ≈ 14285.7; the paper quotes 14284.
	if mean < 13000 || mean > 15500 {
		t.Errorf("geometric sampler mean = %g, want ≈14285", mean)
	}
}

func TestGeometricDegenerateParams(t *testing.T) {
	r := NewRand(2)
	if r.Geometric(0) != 1 || r.Geometric(1) != 1 || r.Geometric(-3) != 1 {
		t.Error("degenerate p should yield 1")
	}
}

func TestGeometricAlwaysPositive(t *testing.T) {
	r := NewRand(3)
	f := func(pRaw uint16) bool {
		p := float64(pRaw%9999+1) / 10000.0
		return r.Geometric(p) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLogNormalCalibration(t *testing.T) {
	mu, sigma := LogNormalFromMeanMedian(9.30, 2.00)
	r := NewRand(4)
	const n = 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.LogNormal(mu, sigma)
	}
	s := Summarize(xs)
	if s.Mean < 8.0 || s.Mean > 11.0 {
		t.Errorf("log-normal mean = %g, want ≈9.3", s.Mean)
	}
	sort.Float64s(xs)
	med := xs[n/2]
	if med < 1.8 || med > 2.2 {
		t.Errorf("log-normal median = %g, want ≈2.0", med)
	}
}

func TestLogNormalDegenerateParams(t *testing.T) {
	mu, sigma := LogNormalFromMeanMedian(1, 5) // mean below median
	if math.IsNaN(mu) || math.IsNaN(sigma) {
		t.Error("calibration produced NaN")
	}
	mu, sigma = LogNormalFromMeanMedian(2, -1) // non-positive median
	if math.IsNaN(mu) || math.IsNaN(sigma) {
		t.Error("calibration produced NaN for non-positive median")
	}
}

func TestZipfDistribution(t *testing.T) {
	z := NewZipf(10, 1.0)
	if z.N() != 10 {
		t.Fatalf("N = %d", z.N())
	}
	r := NewRand(5)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		k := z.Sample(r)
		if k < 0 || k >= 10 {
			t.Fatalf("sample out of range: %d", k)
		}
		counts[k]++
	}
	// Rank 0 should be roughly twice as likely as rank 1 and the counts
	// should be monotone non-increasing up to noise.
	if counts[0] < counts[1] || counts[1] < counts[4] || counts[4] < counts[9] {
		t.Errorf("zipf counts not decreasing: %v", counts)
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("rank0/rank1 ratio = %g, want ≈2", ratio)
	}
}

func TestZipfDegenerate(t *testing.T) {
	z := NewZipf(0, 1)
	if z.N() != 1 {
		t.Errorf("NewZipf(0) N = %d, want 1", z.N())
	}
	r := NewRand(6)
	if z.Sample(r) != 0 {
		t.Error("single-rank zipf must sample 0")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 100; i++ {
		if a.FileSize() != b.FileSize() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestBoolAndExp(t *testing.T) {
	r := NewRand(7)
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			trues++
		}
	}
	frac := float64(trues) / n
	if frac < 0.23 || frac > 0.27 {
		t.Errorf("Bool(0.25) frequency = %g", frac)
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(3.0)
	}
	if m := sum / n; m < 2.8 || m > 3.2 {
		t.Errorf("Exp(3) mean = %g", m)
	}
}
