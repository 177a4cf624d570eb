package serve

import (
	"net/http"
	"testing"

	"herald/internal/sim"
)

// MaxRunIterations exposes the per-run iteration bound to the external
// tests.
const MaxRunIterations = maxRunIterations

// TestCheckRunIterations pins the bound's edge: a run whose iteration
// cap (MaxIters when set, else Iterations) is exactly maxRunIterations
// is admitted, one more is refused with 422.
func TestCheckRunIterations(t *testing.T) {
	for _, c := range []struct {
		name string
		o    sim.Options
		ok   bool
	}{
		{"at the bound", sim.Options{Iterations: maxRunIterations}, true},
		{"one over", sim.Options{Iterations: maxRunIterations + 1}, false},
		{"max_iters at the bound", sim.Options{Iterations: 1000, TargetHalfWidth: 1e-3, MaxIters: maxRunIterations}, true},
		{"max_iters one over", sim.Options{Iterations: 1000, TargetHalfWidth: 1e-3, MaxIters: maxRunIterations + 1}, false},
	} {
		herr := checkRunIterations(&c.o)
		if c.ok && herr != nil {
			t.Errorf("%s: refused: %s", c.name, herr.msg)
		}
		if !c.ok && (herr == nil || herr.code != http.StatusUnprocessableEntity) {
			t.Errorf("%s: got %v, want a 422", c.name, herr)
		}
	}
}
