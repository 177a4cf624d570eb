package dist

import (
	"fmt"
	"math"
	"runtime"

	"herald/internal/xrand"
)

// Weibull is the law F(x) = 1 - exp(-(x/Scale)^Shape). Shape > 1
// models wear-out (increasing hazard), Shape < 1 infant mortality,
// and Shape = 1 reduces exactly to Exponential(1/Scale). The paper's
// Fig. 5 runs the simulator with field-study (shape, scale) pairs from
// Schroeder & Gibson (FAST'07).
type Weibull struct {
	// Shape is the dimensionless Weibull modulus k.
	Shape float64
	// Scale is the characteristic life c (hours): the 63.2th
	// percentile of the law.
	Scale float64
	// powFrac and powMulE hold 1/Shape split the way math.Pow splits
	// its exponent (see pow). A zero powFrac (literal structs, and
	// exponents the split does not cover) sends every draw through
	// math.Pow.
	powFrac float64
	powMulE bool
}

// NewWeibull returns the Weibull law with the given shape and scale
// (hours). It panics unless both are finite and positive.
func NewWeibull(shape, scale float64) Weibull {
	checkPositive("weibull", "shape", shape)
	checkPositive("weibull", "scale", scale)
	w := Weibull{Shape: shape, Scale: scale}
	y := 1 / shape
	// math.Pow(e, y) splits y into an integer part yi and a fraction
	// yf, folding yf > 0.5 into yf-1, yi+1; for normal e it returns
	// Exp(yf*Log(e)) times e^yi. pow replays that path for yi <= 1.
	// y = 0.5 (math.Pow takes Sqrt), y = 1 (yf = 0; math.Pow returns e
	// at once) and infinite y stay on math.Pow, as does s390x, whose
	// math.Pow is assembly.
	yi, yf := math.Modf(y)
	if yf > 0.5 {
		yf--
		yi++
	}
	if yi <= 1 && y != 0.5 && runtime.GOARCH != "s390x" {
		w.powFrac, w.powMulE = yf, yi == 1
	}
	return w
}

// WeibullFromMeanRate returns the Weibull law with the given shape
// whose mean is 1/rate, inverting mean = Scale * Gamma(1 + 1/Shape).
// This is how the paper's Fig. 5 states its disk lifetimes: a mean
// failure rate paired with a field-study shape. It panics unless rate
// and shape are finite and positive and the derived scale is too:
// below shape ~0.0059 Gamma(1 + 1/shape) overflows and the scale
// would be 0.
func WeibullFromMeanRate(rate, shape float64) Weibull {
	checkPositive("weibull", "rate", rate)
	checkPositive("weibull", "shape", shape)
	scale := 1 / (rate * math.Gamma(1+1/shape))
	checkPositive("weibull", "scale 1/(rate*Gamma(1+1/shape))", scale)
	return NewWeibull(shape, scale)
}

// pow returns e^(1/Shape), bit-identical to math.Pow(e, 1/Shape).
// For a normal e it computes Exp(powFrac*Log(e)), times e when the
// integer part of the exponent is 1: math.Pow's own path without its
// per-call special cases and exponent split. math.Pow multiplies by
// e's frexp mantissa and puts the binary exponent back with Ldexp;
// multiplying by e itself rounds to the same float whenever neither
// rounding reaches the subnormal range, which an exponent field of
// 2..2046 in the product confirms. Zero, subnormal and infinite e, any
// other product, and laws without a split fall back to math.Pow.
// FuzzWeibullPow pins the identity on the toolchain CI runs.
func (w Weibull) pow(e float64) float64 {
	if w.powFrac != 0 && e >= 0x1p-1022 && e <= math.MaxFloat64 {
		p := math.Exp(w.powFrac * math.Log(e))
		if !w.powMulE {
			return p
		}
		p *= e
		if b := math.Float64bits(p) >> 52; b >= 2 && b <= 2046 {
			return p
		}
	}
	return math.Pow(e, 1/w.Shape)
}

// Sample draws Scale * E^(1/Shape) with E a standard exponential from
// the stream's ziggurat sampler (variable stream consumption per
// draw, like Exponential.Sample).
func (w Weibull) Sample(r *xrand.Source) float64 {
	return w.Scale * w.pow(r.ExpFloat64())
}

// SampleN fills dst with independent draws; each is the value Sample
// would return for the same stream position.
func (w Weibull) SampleN(r *xrand.Source, dst []float64) {
	for i := range dst {
		dst[i] = w.Scale * w.pow(r.ExpFloat64())
	}
}

// Mean returns Scale * Gamma(1 + 1/Shape).
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

// Var returns Scale^2 * (Gamma(1+2/Shape) - Gamma(1+1/Shape)^2).
func (w Weibull) Var() float64 {
	g1 := math.Gamma(1 + 1/w.Shape)
	g2 := math.Gamma(1 + 2/w.Shape)
	return w.Scale * w.Scale * (g2 - g1*g1)
}

// CDF returns 1 - exp(-(x/Scale)^Shape).
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.Scale, w.Shape))
}

// Quantile returns Scale * (-ln(1-p))^(1/Shape).
func (w Weibull) Quantile(p float64) float64 {
	checkProb("weibull", p)
	return w.Scale * math.Pow(-math.Log1p(-p), 1/w.Shape)
}

// String names the law.
func (w Weibull) String() string {
	return fmt.Sprintf("Weibull(shape=%g, scale=%g)", w.Shape, w.Scale)
}
