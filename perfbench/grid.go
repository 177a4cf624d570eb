package main

import (
	"encoding/json"
	"fmt"
	"time"

	"herald/internal/sim"
)

// paper_grid: the paper's validation grid solved in-process. Every
// point calls sim.RunRange over the whole run, sim.Summarize and the
// matching model closed form. Light requests are the exponential
// points (memoryless kernels), heavy ones the Fig. 5 Weibull points
// (generic kernel).
const (
	// gridSimWorkers is the sim worker count. One: when both vCPUs of
	// a 2-vCPU machine compute, host contention moved round times by
	// ±15% between runs, against ±3% for one thread.
	gridSimWorkers     = 1
	gridExpMission     = 1e5
	gridWeibullMission = 1e6
	gridTail           = 0.9
	gridWarmupIters    = 2_000
	gridLaneRound      = 0
	gridLanePoint      = 1
	gridLaneLayerCall  = 2
)

// gridPoint is a grid point with its fixed iteration count. The counts
// make every point cost about the same (near 20 ms on one thread of a 2 GHz Xeon),
// so per-point latencies form one cluster and their median and tail do
// not jump between points of different cost.
type gridPoint struct {
	point
	iters int
}

// gridPoints lists the grid: conventional and fail-over RAID5(3+1) at
// lambda in {1e-5, 1e-4}; dual-parity RAID6(4+2) at lambda in
// {1e-4, 1e-3} (at 1e-5 a feasible run observes no triple loss); each
// at HEP in {0, 0.001, 0.01}. Then the paper's four Fig. 5
// (rate, Weibull shape) pairs at the same HEPs.
func gridPoints() []gridPoint {
	heps := []float64{0, 0.001, 0.01}
	var pts []gridPoint
	for _, c := range []struct {
		pol    sim.Policy
		disks  int
		lambda float64
		iters  int
	}{
		{sim.Conventional, 4, 1e-5, 60_000},
		{sim.Conventional, 4, 1e-4, 35_000},
		{sim.AutoFailover, 4, 1e-5, 45_000},
		{sim.AutoFailover, 4, 1e-4, 25_000},
		{sim.DualParity, 6, 1e-4, 23_500},
		{sim.DualParity, 6, 1e-3, 2_500},
	} {
		for _, h := range heps {
			pts = append(pts, gridPoint{point{Policy: c.pol, Disks: c.disks, Lambda: c.lambda, HEP: h}, c.iters})
		}
	}
	for _, pr := range []struct {
		rate, shape float64
		iters       int
	}{{1.25e-6, 1.09, 15_000}, {2.17e-6, 1.12, 10_000}, {7.96e-6, 1.21, 3_500}, {2.00e-5, 1.48, 1_500}} {
		for _, h := range heps {
			pts = append(pts, gridPoint{point{Policy: sim.Conventional, Disks: 4, Lambda: pr.rate, HEP: h, Shape: pr.shape}, pr.iters})
		}
	}
	return pts
}

type gridJob struct {
	pt   point
	p    sim.ArrayParams
	o    sim.Options
	kern string // layer-metric name of the kernel the point runs
}

type grid struct {
	cfg  config
	jobs []gridJob
	ref  [][]byte // round-0 summaries, to catch nondeterminism
}

func newGrid(cfg config) workload { return &grid{cfg: cfg} }

func kernelName(p sim.Policy, k sim.Kernel) string {
	if k == sim.KernelGeneric {
		return "generic"
	}
	switch p {
	case sim.AutoFailover:
		return "failover"
	case sim.DualParity:
		return "dualparity"
	}
	return "conventional"
}

// setup builds the grid from the seed and warms every point's kernel
// and closed form with a short run.
func (g *grid) setup() error {
	for i, gp := range gridPoints() {
		pt := gp.point
		o := sim.Options{Iterations: gp.iters, MissionTime: gridExpMission, Seed: splitmix(g.cfg.seed, i), Workers: gridSimWorkers, Confidence: 0.99}
		if pt.Shape > 0 {
			o.MissionTime, o.Kernel = gridWeibullMission, sim.KernelGeneric
		}
		p := pt.params()
		k, err := sim.ResolveKernel(p, o.Kernel)
		if err != nil {
			return fmt.Errorf("%v: %w", pt, err)
		}
		g.jobs = append(g.jobs, gridJob{pt: pt, p: p, o: o, kern: kernelName(pt.Policy, k)})
		w := o
		w.Iterations = gridWarmupIters
		if _, err := sim.Run(p, w); err != nil {
			return fmt.Errorf("warm %v: %w", pt, err)
		}
		if _, err := pt.closedForm(); err != nil {
			return fmt.Errorf("closed form %v: %w", pt, err)
		}
	}
	return nil
}

func (g *grid) measure(tr *tracer, budget time.Duration) (*phase, error) {
	ph := &phase{}
	rs := rounds{start: time.Now(), budget: budget}
	var iters = map[string]float64{}
	var events, cells, totalIters float64
	for round := 0; rs.more(len(ph.light), len(ph.heavy), gridTail, gridTail); round++ {
		rspan := tr.begin("grid.round", 0, int64(round), gridLaneRound)
		t0 := time.Now()
		sums := make([]sim.Summary, len(g.jobs))
		cfs := make([]float64, len(g.jobs))
		for i, j := range g.jobs {
			req := int64(round*len(g.jobs) + i)
			pspan := tr.begin("grid.point", rspan.id(), req, gridLanePoint)
			p0 := time.Now()
			s := tr.begin("sim.RunRange."+j.kern, pspan.id(), req, gridLaneLayerCall)
			parts, err := sim.RunRange(j.p, j.o, 0, j.o.Iterations)
			s.end()
			ph.attempted++
			if err != nil {
				ph.failed++
				ph.wrong("%v: RunRange: %v", j.pt, err)
				continue
			}
			s = tr.begin("sim.Summarize", pspan.id(), req, gridLaneLayerCall)
			sums[i], err = sim.Summarize(j.o, parts)
			s.end()
			if err != nil {
				ph.failed++
				ph.wrong("%v: Summarize: %v", j.pt, err)
				continue
			}
			s = tr.begin("model.solve", pspan.id(), req, gridLaneLayerCall)
			cfs[i], err = j.pt.closedForm()
			s.end()
			if err != nil {
				ph.failed++
				ph.wrong("%v: closed form: %v", j.pt, err)
				continue
			}
			ms := millis(time.Since(p0))
			pspan.end()
			if j.pt.Shape > 0 {
				ph.heavy = append(ph.heavy, ms)
			} else {
				ph.light = append(ph.light, ms)
			}
			if tr != nil {
				cells += float64(len(parts))
			}
		}
		ph.makespan = append(ph.makespan, time.Since(t0).Seconds())
		rspan.end()
		g.check(ph, round, sums, cfs)
		if tr != nil {
			for i, j := range g.jobs {
				iters[j.kern] += float64(j.o.Iterations)
				events += float64(incidents(sums[i].Events))
				totalIters += float64(j.o.Iterations)
			}
		}
	}
	ph.lightTail, ph.heavyTail = percentile(ph.light, gridTail), percentile(ph.heavy, gridTail)
	ph.headline = median(ph.makespan)
	if tr != nil {
		ph.layer = g.layers(tr.snapshot(), iters, events/totalIters, cells/float64(len(ph.makespan)))
	}
	return ph, nil
}

// check applies the grid's correctness rules to one round: every
// exponential point agrees with its closed form and observed downtime,
// Weibull availability falls as HEP rises within each Fig. 5 pair, and
// every summary is bit-identical to the first round's.
func (g *grid) check(ph *phase, round int, sums []sim.Summary, cfs []float64) {
	var cur [][]byte
	for i, j := range g.jobs {
		s := sums[i]
		b, err := json.Marshal(s)
		if err != nil {
			ph.wrong("%v: marshal summary: %v", j.pt, err)
			return
		}
		cur = append(cur, b)
		if j.pt.Shape > 0 {
			if j.pt.HEP > 0 && i > 0 && !(s.Availability < sums[i-1].Availability) {
				ph.wrong("%v: availability %.12g does not fall below %.12g at the lower HEP", j.pt, s.Availability, sums[i-1].Availability)
			}
			continue
		}
		if s.Availability >= 1 {
			ph.wrong("%v: no downtime observed", j.pt)
		}
		if err := checkClosedForm(s, cfs[i]); err != nil {
			ph.wrong("%v: %v", j.pt, err)
		}
	}
	if round == 0 {
		g.ref = cur
		return
	}
	for i := range cur {
		if string(cur[i]) != string(g.ref[i]) {
			ph.wrong("%v: round %d summary differs from round 0 (nondeterminism)", g.jobs[i].pt, round)
		}
	}
}

func (g *grid) layers(spans []span, iters map[string]float64, eventsPerIter, cellsPerRound float64) map[string]float64 {
	m := map[string]float64{
		"sim.events_per_iter": eventsPerIter,
		"sim.cells":           cellsPerRound,
	}
	for _, k := range []string{"conventional", "failover", "dualparity", "generic"} {
		var d time.Duration
		for _, s := range named(spans, "sim.RunRange."+k) {
			d += s.dur()
		}
		if iters[k] > 0 {
			m["sim."+k+".ns_per_iter"] = float64(d.Nanoseconds()) / iters[k]
		}
	}
	m["sim.summarize_us"] = medianMicros(named(spans, "sim.Summarize"))
	m["model.solve_us"] = medianMicros(named(spans, "model.solve"))
	return m
}

func medianMicros(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var xs []float64
	for _, s := range spans {
		xs = append(xs, float64(s.dur().Nanoseconds())/1e3)
	}
	return median(xs)
}

func (g *grid) peakRSSKB() (int64, error) { return peakRSS("self") }

func (g *grid) close() error { return nil }
