package sim

import (
	"encoding/json"
	"math"
	"testing"

	"herald/internal/dist"
)

// fuzzMission and fuzzIters keep one fuzz input to a few million walker
// steps at the fastest rates the input space allows.
const (
	fuzzMission = 1e3
	fuzzIters   = 200
)

// fuzzRate maps a log10 rate input onto a rate: [1e-6, 1] per hour, or
// false for inputs outside that span (NaN included).
func fuzzRate(lg float64) (float64, bool) {
	if !(lg >= -6 && lg <= 0) {
		return 0, false
	}
	return math.Pow(10, lg), true
}

// FuzzMemorylessRun drives the memoryless table walker across policies,
// array sizes, log-scaled rates, HEP and bias settings. Inputs Validate
// rejects are skipped. Every accepted input must run without panicking,
// replay byte-identically across worker counts, and keep each
// iteration's downtime within the mission, its event counts
// non-negative and its log-weight finite, and the summary's
// availability within [0, 1].
func FuzzMemorylessRun(f *testing.F) {
	f.Add(uint8(Conventional), uint8(4), -5.0, -1.0, -1.5, 0.0, -2.0, -1.0, 0.0, 0.01, 0.0, uint64(1))
	f.Add(uint8(AutoFailover), uint8(4), -3.0, -1.0, -1.5, 0.0, -2.0, -1.0, 0.0, 0.1, BiasAuto, uint64(2))
	f.Add(uint8(DualParity), uint8(6), -2.0, -1.0, -1.5, 0.0, -2.0, -1.0, 0.0, 1.0, 8.0, uint64(3))
	f.Add(uint8(Conventional), uint8(2), -1.0, -3.0, -1.5, -4.0, -9.0, -1.0, 0.0, 1.0, BiasAuto, uint64(4))
	f.Fuzz(func(t *testing.T, pol, disks uint8, lgLambda, lgRepair, lgRestore, lgUndo, lgCrash, lgRebuild, lgSwap, hep, bias float64, seed uint64) {
		if disks > 32 {
			return
		}
		var rates [6]float64
		for i, lg := range []float64{lgLambda, lgRepair, lgRestore, lgUndo, lgRebuild, lgSwap} {
			var ok bool
			if rates[i], ok = fuzzRate(lg); !ok {
				return
			}
		}
		crash, ok := fuzzRate(lgCrash)
		if !ok && lgCrash < -6 {
			crash, ok = 0, true // pulled disks never crash
		}
		if !ok {
			return
		}
		p := ArrayParams{
			Disks:           int(disks),
			TTF:             dist.NewExponential(rates[0]),
			Repair:          dist.NewExponential(rates[1]),
			TapeRestore:     dist.NewExponential(rates[2]),
			HERecovery:      dist.NewExponential(rates[3]),
			HEP:             hep,
			CrashRate:       crash,
			ResyncAfterUndo: seed&1 == 0,
			Policy:          Policy(pol),
			SpareRebuild:    dist.NewExponential(rates[4]),
			SpareSwap:       dist.NewExponential(rates[5]),
		}
		o := Options{Iterations: fuzzIters, MissionTime: fuzzMission, Seed: seed, Workers: 1, Kernel: KernelMemoryless, Bias: bias}
		if p.Validate() != nil || o.Validate() != nil {
			return
		}
		b, err := ResolveBias(p, o)
		if err != nil {
			t.Fatal(err)
		}
		sc := newScratch(&p, KernelMemoryless, false, b)
		for it := 0; it < fuzzIters; it++ {
			is := sc.iterate(seed, it, fuzzMission)
			down := is.downDU + is.downDL
			if !(is.downDU >= 0 && is.downDL >= 0 && down <= fuzzMission) {
				t.Fatalf("iteration %d: downtime DU %v + DL %v outside [0, %v]", it, is.downDU, is.downDL, fuzzMission)
			}
			e := is.events
			if e.Failures < 0 || e.DoubleFailures < 0 || e.HumanErrors < 0 || e.Crashes < 0 || e.UndoAttempts < 0 {
				t.Fatalf("iteration %d: negative event count %+v", it, e)
			}
			if math.IsNaN(is.logW) || math.IsInf(is.logW, 0) {
				t.Fatalf("iteration %d: log-weight %v", it, is.logW)
			}
		}

		parts, err := RunRange(p, o, 0, fuzzIters)
		if err != nil {
			t.Fatal(err)
		}
		o2 := o
		o2.Workers = 3
		again, err := RunRange(p, o2, 0, fuzzIters)
		if err != nil {
			t.Fatal(err)
		}
		j1, err := json.Marshal(parts)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(j1) != string(j2) {
			t.Fatal("replay with 3 workers diverged")
		}
		s, err := Summarize(o, parts)
		if err != nil {
			t.Fatal(err)
		}
		if !(s.Availability >= 0 && s.Availability <= 1) {
			t.Fatalf("availability %v outside [0, 1]", s.Availability)
		}
	})
}

// TestValidateRejectsNonFiniteRates pins a gap the fuzz target's input
// space exposed: a NaN HEP and a NaN or infinite crash rate passed
// Validate, and the memoryless walker then sampled nonsense (an
// infinite crash rate collapsed the DU hold to zero and sent every DU
// exit down the failure branch).
func TestValidateRejectsNonFiniteRates(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*ArrayParams)
	}{
		{"NaN HEP", func(p *ArrayParams) { p.HEP = math.NaN() }},
		{"NaN crash rate", func(p *ArrayParams) { p.CrashRate = math.NaN() }},
		{"infinite crash rate", func(p *ArrayParams) { p.CrashRate = math.Inf(1) }},
	} {
		p := PaperDefaults(4, 1e-3, 0.01)
		tc.mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, p)
		}
	}
}

// TestBiasFactorCapped pins the second gap: an explicit bias factor
// near the float64 limit overflowed the inflated failure rates of the
// memoryless table and made every log-weight infinite. Factors are
// capped at maxBias, where the weights stay finite even for large
// arrays at the fuzz target's fastest rates.
func TestBiasFactorCapped(t *testing.T) {
	o := Options{Iterations: 50, MissionTime: fuzzMission, Seed: 3, Bias: 1e308}
	if err := o.Validate(); err == nil {
		t.Fatal("Validate accepted a 1e308 bias factor")
	}
	if _, err := ParseBias("1e308"); err == nil {
		t.Error("ParseBias accepted a 1e308 bias factor")
	}
	o.Bias = maxBias
	p := PaperDefaults(32, 1, 0.5)
	sc := newScratch(&p, KernelMemoryless, false, o.Bias)
	for it := 0; it < o.Iterations; it++ {
		if is := sc.iterate(o.Seed, it, o.MissionTime); math.IsNaN(is.logW) || math.IsInf(is.logW, 0) {
			t.Fatalf("iteration %d: log-weight %v at the bias cap", it, is.logW)
		}
	}
}
