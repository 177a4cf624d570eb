package main

import (
	"bytes"
	"fmt"
	"math"

	"herald/internal/dist"
	"herald/internal/model"
	"herald/internal/sim"
)

// point is one array configuration at the paper's rates (§V-B).
type point struct {
	Policy sim.Policy
	Disks  int
	Lambda float64 // per-disk failure rate, 1/h
	HEP    float64
	Shape  float64 // Weibull TTF shape with mean 1/Lambda; 0 means exponential
}

func (pt point) String() string {
	s := fmt.Sprintf("%v n=%d lambda=%g hep=%g", pt.Policy, pt.Disks, pt.Lambda, pt.HEP)
	if pt.Shape > 0 {
		s += fmt.Sprintf(" weibull(%g)", pt.Shape)
	}
	return s
}

func (pt point) params() sim.ArrayParams {
	p := sim.PaperDefaults(pt.Disks, pt.Lambda, pt.HEP)
	p.Policy = pt.Policy
	if pt.Shape > 0 {
		p.TTF = dist.WeibullFromMeanRate(pt.Lambda, pt.Shape)
	}
	return p
}

// closedForm is the Markov steady-state availability the Monte-Carlo
// estimate of pt is checked against. Fail-over uses the reduced chain
// the simulator implements (no install-as-spare or alternative-service
// branches), as the sim package's own validation does.
func (pt point) closedForm() (float64, error) {
	switch pt.Policy {
	case sim.Conventional:
		r, err := model.Conventional(model.Paper(pt.Disks, pt.Lambda, pt.HEP))
		if err != nil {
			return 0, err
		}
		return r.Availability, nil
	case sim.AutoFailover:
		mp := model.PaperFailover(pt.Disks, pt.Lambda, pt.HEP)
		mp.InstallAsSpare = false
		mp.DownAltService = false
		r, err := model.Failover(mp)
		if err != nil {
			return 0, err
		}
		return r.Availability, nil
	case sim.DualParity:
		r, err := model.DualParity(model.Paper(pt.Disks, pt.Lambda, pt.HEP))
		if err != nil {
			return 0, err
		}
		return r.Availability, nil
	}
	return 0, fmt.Errorf("no closed form for policy %v", pt.Policy)
}

// incidents is the number of simulated events a census records, the
// work count behind sim.events_per_iter.
func incidents(e sim.EventCounts) int64 {
	return e.Failures + e.DoubleFailures + e.HumanErrors + e.Crashes + e.UndoAttempts
}

// checkClosedForm applies the repository's agreement rule between a
// Monte-Carlo estimate and its closed form:
// |MC − CF| ≤ 4·half-width + 0.03·(1 − CF).
func checkClosedForm(mc sim.Summary, cf float64) error {
	tol := 4*mc.HalfWidth + 0.03*(1-cf)
	if d := math.Abs(mc.Availability - cf); !(d <= tol) {
		return fmt.Errorf("MC availability %.12g vs closed form %.12g: |diff| %.3g > tol %.3g", mc.Availability, cf, d, tol)
	}
	return nil
}

// summaryBook remembers the first summary bytes seen for each
// fingerprint and rejects any later response that differs.
type summaryBook struct{ first map[string][]byte }

func newSummaryBook() *summaryBook { return &summaryBook{first: make(map[string][]byte)} }

func (b *summaryBook) check(fp string, summary []byte) error {
	prev, ok := b.first[fp]
	if !ok {
		b.first[fp] = append([]byte(nil), summary...)
		return nil
	}
	if !bytes.Equal(prev, summary) {
		return fmt.Errorf("fingerprint %s: summary bytes differ from its first response", fp)
	}
	return nil
}
