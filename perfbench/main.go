// Command perfbench is the repository benchmark. It runs one named
// workload against the herald packages from a seed, checks that every
// output is correct, and prints its metrics as one JSON object on the
// last line of standard output:
//
//	perfbench -workload paper_grid -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of an untraced run.
// With -trace 1 it measures an untraced half and a traced half of the
// run, prints the per-layer metrics derived from the traced half's
// spans, and writes those spans as Chrome trace-event JSON into -out.
// See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"herald/internal/shard"
)

// metricDef names a metric and its unit. The lists below are the
// metrics BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"makespan_s", "s"},
	{"light_p50_ms", "ms"},
	{"light_tail_ms", "ms"},
	{"heavy_p50_ms", "ms"},
	{"heavy_tail_ms", "ms"},
	{"ok_ratio", "ratio"},
}

var perLayer = []metricDef{
	{"sim.conventional.ns_per_iter", "ns"},
	{"sim.failover.ns_per_iter", "ns"},
	{"sim.dualparity.ns_per_iter", "ns"},
	{"sim.generic.ns_per_iter", "ns"},
	{"sim.summarize_us", "us"},
	{"sim.events_per_iter", "count"},
	{"sim.cells", "count"},
	{"model.solve_us", "us"},
	{"shard.submit_us", "us"},
	{"shard.job_rtt_ms.p50", "ms"},
	{"shard.job_rtt_ms.p99", "ms"},
	{"shard.worker_busy_ratio", "ratio"},
	{"shard.coordinator_self_ms", "ms"},
	{"shard.useful_iter_ratio", "ratio"},
	{"shard.wire_bytes_per_kiter", "B"},
	{"shard.messages_per_run", "count"},
	{"shard.jobs_per_run", "count"},
	{"shard.waves_per_run", "count"},
	{"shard.cancelled_jobs", "count"},
	{"shard.worker_failures", "count"},
	{"shard.iters_to_target", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.miss_shard_ms.p50", "ms"},
	{"serve.miss_self_ms.p50", "ms"},
	{"serve.rejected", "count"},
	{"gen.gap_ms.p99", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 9

// maxReported caps the failed checks a phase prints.
const maxReported = 10

// config is what every workload is built from.
type config struct {
	seed  uint64
	procs int // nproc: serve_mix's worker processes and HTTP connections
}

// phase is one measured stretch of a workload: rounds of requests
// (grid points, adaptive runs or HTTP requests) split into a light and
// a heavy class.
type phase struct {
	makespan     []float64 // seconds per round
	light, heavy []float64 // milliseconds per request
	lightTail    float64   // milliseconds: the classes' tail latencies
	heavyTail    float64
	attempted    int
	failed       int
	incorrect    []string           // failed correctness checks
	headline     float64            // the value trace.overhead_ratio compares
	layer        map[string]float64 // per-layer metrics; traced phases only
}

func (p *phase) wrong(format string, args ...any) {
	p.incorrect = append(p.incorrect, fmt.Sprintf(format, args...))
}

// workload is one benchmark scenario. setup is timed; measure runs
// rounds until budget has passed and every tail it reports has
// minBeyond samples beyond it. tr is nil for untraced phases.
type workload interface {
	setup() error
	measure(tr *tracer, budget time.Duration) (*phase, error)
	peakRSSKB() (int64, error)
	close() error
}

// setupCounter is a workload whose set-up does a fixed piece of work
// with exact counts. A run fails when two of its set-ups disagree on
// them.
type setupCounter interface {
	setupCounts() []runRecord
}

var workloads = map[string]func(config) workload{
	"paper_grid":     newGrid,
	"fleet_adaptive": newFleetAdaptive,
	"serve_mix":      newServeMix,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	shard.MaybeWorker()
	name := flag.String("workload", "", "workload to run: paper_grid, fleet_adaptive or serve_mix")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measurement time")
	traced := flag.Int("trace", 0, "1: measure per-layer metrics from a traced run")
	out := flag.String("out", ".", "directory for trace files")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload paper_grid|fleet_adaptive|serve_mix, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, procs: runtime.NumCPU()}
	res, err := run(mk, cfg, time.Duration(*seconds*float64(time.Second)), *traced == 1, filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up setupReps times, measures the last set-up
// and reports its metrics.
func run(mk func(config) workload, cfg config, budget time.Duration, traced bool, tracePath string) (*result, error) {
	var w workload
	var setups []float64
	var ref []runRecord
	sph := &phase{} // the set-ups' own checks
	for i := 0; i < setupReps; i++ {
		w = mk(cfg)
		t0 := time.Now()
		err := w.setup()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		if sc, ok := w.(setupCounter); ok {
			recs := sc.setupCounts()
			if i == 0 {
				ref = recs
			} else if !slices.Equal(recs, ref) {
				sph.wrong("set-up %d's exact counts differ from set-up 1's: nondeterminism", i+1)
			}
		}
		if i < setupReps-1 {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close after setup: %w", err)
			}
		}
	}
	res, err := measure(w, setups, sph, budget, traced, tracePath)
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	return res, err
}

func measure(w workload, setups []float64, sph *phase, budget time.Duration, traced bool, tracePath string) (*result, error) {
	res := &result{Metrics: make(map[string]metricValue)}
	phases := []*phase{sph}
	if !traced {
		ph, err := w.measure(nil, budget)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
		rss, err := w.peakRSSKB()
		if err != nil {
			return nil, err
		}
		v := map[string]float64{
			"setup_s":       median(setups),
			"peak_rss_mb":   float64(rss) / 1024,
			"makespan_s":    median(ph.makespan),
			"light_p50_ms":  median(ph.light),
			"light_tail_ms": ph.lightTail,
			"heavy_p50_ms":  median(ph.heavy),
			"heavy_tail_ms": ph.heavyTail,
			"ok_ratio":      1 - float64(ph.failed)/float64(ph.attempted),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{v[m.name], m.unit}
		}
	} else {
		plain, err := w.measure(nil, budget/2)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		ph, err := w.measure(tr, budget/2)
		if err != nil {
			return nil, err
		}
		phases = append(phases, plain, ph)
		ph.layer["trace.overhead_ratio"] = ph.headline / plain.headline
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{ph.layer[m.name], m.unit}
		}
		if err := writeChromeTrace(tracePath, tr.snapshot()); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	res.Correct = true
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for i, msg := range ph.incorrect {
			res.Correct = false
			if i == maxReported {
				fmt.Fprintf(os.Stderr, "perfbench: ... and %d more failed checks\n", len(ph.incorrect)-i)
				break
			}
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no requests attempted")
	}
	return res, nil
}

// rounds decides when a phase has measured enough: budget has passed
// and each class has enough samples for its tail.
type rounds struct {
	start  time.Time
	budget time.Duration
}

func (r rounds) more(light, heavy int, lightP, heavyP float64) bool {
	return time.Since(r.start) < r.budget || light < minSamples(lightP) || heavy < minSamples(heavyP)
}

// splitmix derives independent 64-bit seeds from one seed.
func splitmix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
