package main

import (
	"strings"
	"testing"

	"herald/internal/sim"
)

// TestParseBiasFlag pins the -bias boundary: bad tokens fail at parse
// time with an error naming the flag, good tokens map onto the sim
// option values.
func TestParseBiasFlag(t *testing.T) {
	good := map[string]float64{
		"":     0,
		"auto": sim.BiasAuto,
		"1":    1,
		"2.5":  2.5,
	}
	for tok, want := range good {
		got, err := parseBiasFlag(tok)
		if err != nil || got != want {
			t.Errorf("parseBiasFlag(%q) = %v, %v; want %v", tok, got, err, want)
		}
	}
	for _, tok := range []string{"0", "0.5", "-1", "nan", "inf", "-inf", "garbage"} {
		_, err := parseBiasFlag(tok)
		if err == nil {
			t.Errorf("parseBiasFlag(%q) accepted", tok)
			continue
		}
		if !strings.Contains(err.Error(), "-bias") {
			t.Errorf("parseBiasFlag(%q) error does not name the flag: %v", tok, err)
		}
	}
}

// TestWeibullShapeRejectsDegenerateScale: a Weibull shape whose
// derived scale is not finite and positive (Gamma(1+1/shape) overflows
// below shape ~0.0059) is a flag error naming the flag, not a law that
// always draws 0 or a constructor panic.
func TestWeibullShapeRejectsDegenerateScale(t *testing.T) {
	for _, tag := range []string{"", "repair-"} {
		lf := lawFlags{family: "weibull", shape: 0.004, flagTag: tag}
		d, err := lf.build(1e-5)
		if err == nil {
			t.Errorf("-%sshape 0.004 built %v", tag, d)
		} else if !strings.Contains(err.Error(), "-"+tag+"shape") {
			t.Errorf("-%sshape 0.004: error does not name the flag: %v", tag, err)
		}
		lf.shape = 1.48
		if _, err := lf.build(1e-5); err != nil {
			t.Errorf("-%sshape 1.48: %v", tag, err)
		}
	}
}
