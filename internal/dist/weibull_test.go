package dist

import (
	"math"
	"strings"
	"testing"

	"herald/internal/xrand"
)

// powShapes are the Weibull shapes the power identity is pinned on:
// the paper's Fig. 5 shapes, both sides of every branch of the
// exponent split (1/Shape = 0.5 and 1 take math.Pow's special cases,
// 1/Shape > 1.5 has an integer part above 1) and extremes.
var powShapes = []float64{1, 0.5, 0.7, 1.09, 1.12, 1.21, 1.48, 2, 3.3, 0.6667, 1e-3, 1e3, 1e300}

// checkWeibullPow fails unless the constructed law's power and the
// literal struct's (the math.Pow fallback) both equal
// math.Pow(x, 1/shape) bit for bit.
func checkWeibullPow(t *testing.T, x, shape float64) {
	t.Helper()
	want := math.Float64bits(math.Pow(x, 1/shape))
	if got := math.Float64bits(NewWeibull(shape, 1).pow(x)); got != want {
		t.Fatalf("shape %v: pow(%v [%#x]) = %#x, math.Pow = %#x", shape, x, math.Float64bits(x), got, want)
	}
	if got := math.Float64bits(Weibull{Shape: shape, Scale: 1}.pow(x)); got != want {
		t.Fatalf("literal shape %v: pow(%v [%#x]) = %#x, math.Pow = %#x", shape, x, math.Float64bits(x), got, want)
	}
}

// FuzzWeibullPow pins Weibull's fixed-exponent power to math.Pow bit
// for bit, so every Weibull draw, and with it every realization, is
// the one math.Pow gives. The input is the raw bits of x (any float64:
// negative, zero, subnormal, infinite and NaN included) and a shape;
// shapes the constructors reject are skipped. The identity holds on
// the toolchain CI runs (amd64); s390x, whose math.Pow is assembly,
// never takes the fast path.
func FuzzWeibullPow(f *testing.F) {
	f.Add(math.Float64bits(0.7), 1.48)
	f.Add(math.Float64bits(1), 1.09)
	f.Fuzz(func(t *testing.T, xbits uint64, shape float64) {
		if !(shape > 0) || math.IsInf(shape, 0) {
			return
		}
		checkWeibullPow(t, math.Float64frombits(xbits), shape)
	})
}

// TestWeibullPowMatchesMathPow sweeps every binary exponent of x, from
// subnormal to the largest finite, with several mantissas, so results
// underflowing or overflowing the normal range are covered in every
// plain test run, not only under -fuzz.
func TestWeibullPowMatchesMathPow(t *testing.T) {
	r := xrand.New(15)
	for _, shape := range powShapes {
		for _, x := range []float64{0, 1, math.MaxFloat64, math.Inf(1), math.NaN(), -1} {
			checkWeibullPow(t, x, shape)
		}
		for exp := uint64(0); exp < 0x7ff; exp++ {
			for k := 0; k < 4; k++ {
				mant := r.Uint64() & (1<<52 - 1)
				checkWeibullPow(t, math.Float64frombits(exp<<52|mant), shape)
			}
		}
		for i := 0; i < 2000; i++ {
			checkWeibullPow(t, r.ExpFloat64(), shape)
		}
	}
}

// TestWeibullFromMeanRateRejectsDegenerateScale: below shape ~0.0059
// Gamma(1 + 1/shape) overflows, so the derived scale would be 0 (a
// law that always draws 0); a subnormal rate makes it infinite. The
// constructor must panic like NewWeibull on a bad scale.
func TestWeibullFromMeanRateRejectsDegenerateScale(t *testing.T) {
	for _, c := range []struct{ rate, shape float64 }{
		{1e-5, 0.004},
		{1e-5, 0.005},
		{1e-320, 1.48},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "scale") {
					t.Errorf("rate %v shape %v: panic %q, want one naming the scale", c.rate, c.shape, msg)
				}
			}()
			w := WeibullFromMeanRate(c.rate, c.shape)
			t.Errorf("rate %v shape %v: built %v", c.rate, c.shape, w)
		}()
	}
	// The smallest shapes whose scale is still finite keep working.
	if w := WeibullFromMeanRate(1e-5, 0.006); !(w.Scale > 0) || math.IsInf(w.Scale, 0) {
		t.Errorf("shape 0.006: scale %v", w.Scale)
	}
}

// BenchmarkSampleNWeibull measures batch Weibull draws at the paper's
// Fig. 5 steepest pair (rate 2e-5, shape 1.48): one ziggurat
// exponential and one fixed-exponent power per variate.
func BenchmarkSampleNWeibull(b *testing.B) {
	d := WeibullFromMeanRate(2e-5, 1.48)
	r := xrand.New(1)
	dst := make([]float64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.SampleN(r, dst)
	}
}
