package sweep

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"herald/internal/shard"
	"herald/internal/sim"
)

// TestMonteCarloMatchesSolo pins the sweep coordinator's determinism:
// every pipelined point is byte-identical to running it alone, labels
// and order are preserved, and completion offsets are positive.
func TestMonteCarloMatchesSolo(t *testing.T) {
	mk := func(pol sim.Policy, hep float64) MCPoint {
		p := sim.PaperDefaults(4, 1e-4, hep)
		p.Policy = pol
		return MCPoint{
			Label:   pol.String(),
			Params:  p,
			Options: sim.Options{Iterations: 2000, MissionTime: 2e5, Seed: 20170327, Workers: 2},
		}
	}
	points := []MCPoint{
		mk(sim.Conventional, 0.02),
		mk(sim.AutoFailover, 0.02),
		mk(sim.DualParity, 0.02),
	}
	// The middle point runs adaptively: mixed sweeps are the common
	// shape once -target-halfwidth lands in repro.
	points[1].Options.TargetHalfWidth = 2e-5
	points[1].Options.Iterations = 60000

	var want []string
	for _, pt := range points {
		s, err := sim.Run(pt.Params, pt.Options)
		if err != nil {
			t.Fatalf("%s: solo run: %v", pt.Label, err)
		}
		b, _ := json.Marshal(s)
		want = append(want, string(b))
	}

	workers := []shard.Worker{
		shard.NewInProcessWorker("a", 1),
		shard.NewInProcessWorker("b", 1),
	}
	res, err := MonteCarlo(points, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(points) {
		t.Fatalf("sweep returned %d results, want %d", len(res), len(points))
	}
	for i, r := range res {
		if r.Label != points[i].Label {
			t.Errorf("point %d: label %q, want %q", i, r.Label, points[i].Label)
		}
		b, _ := json.Marshal(r.Summary)
		if string(b) != want[i] {
			t.Errorf("point %d (%s): pipelined summary diverged\n got %s\nwant %s", i, r.Label, b, want[i])
		}
		if r.Done <= 0 {
			t.Errorf("point %d: non-positive completion offset %v", i, r.Done)
		}
	}
	if !res[1].Stats.StoppedEarly {
		t.Error("adaptive middle point did not stop early")
	}
}

// TestMonteCarloEmpty pins the trivial edge.
func TestMonteCarloEmpty(t *testing.T) {
	res, err := MonteCarlo(nil, []shard.Worker{shard.NewInProcessWorker("w", 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty sweep returned %d results", len(res))
	}
}

// dyingWorker completes its first survive jobs on an in-process
// worker, then fails every job with a transport-style error, so the
// pool retires it as dead.
type dyingWorker struct {
	inner   shard.Worker
	survive int
	ran     int
}

func (w *dyingWorker) Name() string { return "dying" }
func (w *dyingWorker) Run(job *shard.Job) ([]sim.Partial, error) {
	if w.ran >= w.survive {
		return nil, errors.New("connection reset by peer")
	}
	w.ran++
	return w.inner.Run(job)
}
func (w *dyingWorker) Close() error { return nil }

// TestMonteCarloKeepsFinishedPointsOnWorkerDeath pins the partial-
// result contract: when the pool's only worker dies right after the
// first point's last shard, the sweep fails, yet the first point's
// Summary survives byte-identical to sim.Run and the later points stay
// zero.
func TestMonteCarloKeepsFinishedPointsOnWorkerDeath(t *testing.T) {
	const shards = 3
	var points []MCPoint
	for _, hep := range []float64{0.005, 0.01, 0.02} {
		points = append(points, MCPoint{
			Label:   "hep",
			Params:  sim.PaperDefaults(4, 1e-4, hep),
			Options: sim.Options{Iterations: 2000, MissionTime: 2e5, Seed: 20170327, Workers: 1},
			Shards:  shards,
		})
	}
	base, err := sim.Run(points[0].Params, points[0].Options)
	if err != nil {
		t.Fatal(err)
	}
	w := &dyingWorker{inner: shard.NewInProcessWorker("w", 1), survive: shards}
	res, err := MonteCarlo(points, []shard.Worker{w}, nil)
	if err == nil {
		t.Fatal("sweep succeeded although its only worker died")
	}
	if len(res) != len(points) {
		t.Fatalf("sweep returned %d results, want %d", len(res), len(points))
	}
	got, _ := json.Marshal(res[0].Summary)
	want, _ := json.Marshal(base)
	if string(got) != string(want) {
		t.Errorf("finished point diverged from sim.Run\n got %s\nwant %s", got, want)
	}
	for i := 1; i < len(res); i++ {
		if !reflect.DeepEqual(res[i].Summary, sim.Summary{}) {
			t.Errorf("point %d: non-zero Summary after the pool died: %+v", i, res[i].Summary)
		}
	}
}
