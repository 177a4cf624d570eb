package main

import (
	"encoding/json"
	"io"
	"time"

	"herald/internal/shard"
	"herald/internal/sim"
)

// fleet_adaptive: precision-targeted runs submitted, as availsim
// -shards submits them, to a shard.Pool over a local worker process.
// A round submits the set's runs one after another, each once the
// previous one converged, as a script of availsim calls would. Light
// requests are the unbiased runs at paper rates, heavy ones the
// failure-biased rare-event runs.
const (
	// fleetProcs is the worker process count. One, for the reason
	// gridSimWorkers gives.
	fleetProcs      = 1
	fleetShards     = 16 // shards per wave, as availsim -shards 16
	fleetCap        = 2_000_000
	fleetMission    = 1e6
	fleetTail       = 0.75
	fleetWarmIters  = 100_000
	fleetLaneRun    = 10
	fleetLaneWorker = 100
	// fleetInputs is how many seed sets the rounds cycle through. The
	// iterations a run needs to converge depend on its seed, so one set
	// would tie the run's timings to a single draw of that work; each
	// set still repeats within a run, which is how nondeterminism is
	// caught.
	fleetInputs = 16
)

type fleetRun struct {
	pt     point
	target float64
	biased bool
}

// fleetSet is one round's runs with their half-width targets. The
// biased runs reach 1e-10 at a true unavailability near 4e-9
// (lambda 1e-6) and 4e-10 (dual-parity, lambda 1e-5) with HEP 0, far
// below what an unbiased run resolves in the same iterations.
var fleetSet = []fleetRun{
	{point{Policy: sim.Conventional, Disks: 4, Lambda: 1e-6, HEP: 0.001}, 2.5e-8, false},
	{point{Policy: sim.AutoFailover, Disks: 4, Lambda: 1e-6, HEP: 0.001}, 2.5e-8, false},
	{point{Policy: sim.Conventional, Disks: 4, Lambda: 1e-5, HEP: 0.01}, 2.5e-7, false},
	{point{Policy: sim.AutoFailover, Disks: 4, Lambda: 1e-5, HEP: 0.01}, 2.5e-7, false},
	{point{Policy: sim.Conventional, Disks: 4, Lambda: 1e-6, HEP: 0}, 1e-10, true},
	{point{Policy: sim.AutoFailover, Disks: 4, Lambda: 1e-6, HEP: 0}, 1e-10, true},
	{point{Policy: sim.DualParity, Disks: 6, Lambda: 1e-5, HEP: 0}, 1e-10, true},
}

type fleetAdaptive struct {
	cfg   config
	f     *fleet
	pool  *shard.Pool
	specs [fleetInputs][]shard.RunSpec
	seeds map[uint64]int           // run seed -> index in fleetSet
	ref   [fleetInputs][]runRecord // first outcome of each input set, to catch nondeterminism
}

func newFleetAdaptive(cfg config) workload { return &fleetAdaptive{cfg: cfg} }

// runRecord is the part of a run's outcome that must repeat exactly.
type runRecord struct {
	summary   string
	iters     int // kept iterations
	events    int64
	cells     int // canonical cells in the kept prefix
	waves     int
	keptJobs  int   // jobs whose range lies in the kept prefix
	keptBytes int64 // their messages' bytes
	keptMsgs  int   // their messages; serve_mix only, as fleet_adaptive may cancel a job that then returns a result
}

// sumRecords adds up the counts of runs' records and returns the total
// with the number of records.
func sumRecords(sets ...[]runRecord) (total runRecord, n float64) {
	for _, set := range sets {
		for _, r := range set {
			total.iters += r.iters
			total.events += r.events
			total.cells += r.cells
			total.waves += r.waves
			total.keptJobs += r.keptJobs
			total.keptBytes += r.keptBytes
			total.keptMsgs += r.keptMsgs
			n++
		}
	}
	return total, n
}

func (a *fleetAdaptive) setup() error {
	var err error
	if a.f, err = spawnFleet(fleetProcs); err != nil {
		return err
	}
	if a.pool, err = shard.NewPool(a.f.workers, nil, io.Discard); err != nil {
		return err
	}
	a.seeds = make(map[uint64]int)
	for k := range a.specs {
		for i, r := range fleetSet {
			o := sim.Options{Iterations: fleetCap, MissionTime: fleetMission, Seed: splitmix(a.cfg.seed, k*len(fleetSet)+i), Confidence: 0.99, TargetHalfWidth: r.target}
			if r.biased {
				o.Bias = sim.BiasAuto
			}
			a.specs[k] = append(a.specs[k], shard.RunSpec{Params: r.pt.params(), Options: o, Shards: fleetShards})
			a.seeds[o.Seed] = i
		}
	}
	warm := a.specs[0][0]
	warm.Options.TargetHalfWidth = 0
	warm.Options.Iterations = fleetWarmIters
	warm.Options.Seed = splitmix(a.cfg.seed, -1)
	tk, err := a.pool.Submit(warm, nil)
	if err != nil {
		return err
	}
	_, err = tk.Wait()
	return err
}

// submitted is one run of a round in flight.
type submitted struct {
	idx        int // index in fleetSet
	seed       uint64
	span       open
	submitUs   float64
	sent, done time.Time
	res        shard.RunResult
	err        error
}

func (a *fleetAdaptive) measure(tr *tracer, budget time.Duration) (*phase, error) {
	ph := &phase{}
	rs := rounds{start: time.Now(), budget: budget}
	mark := a.f.log.mark()
	var all []*submitted
	var wall time.Duration
	for round := 0; round < fleetInputs || rs.more(len(ph.light), len(ph.heavy), fleetTail, fleetTail); round++ {
		rspan := tr.begin("fleet.round", 0, int64(round), fleetLaneRun-1)
		t0 := time.Now()
		specs := a.specs[round%fleetInputs]
		runs := make([]*submitted, len(specs))
		for i, spec := range specs {
			s := &submitted{idx: i, seed: spec.Options.Seed, sent: time.Now()}
			req := int64(round*len(specs) + i)
			s.span = tr.begin("fleet.run", rspan.id(), req, fleetLaneRun)
			sub := tr.begin("shard.Pool.Submit", s.span.id(), req, fleetLaneRun)
			tk, err := a.pool.Submit(spec, nil)
			sub.end()
			s.submitUs = float64(time.Since(s.sent)) / 1e3
			if err == nil {
				s.res, err = tk.Wait()
			}
			s.done, s.err = time.Now(), err
			s.span.end()
			runs[i] = s
			ph.attempted++
			if err != nil {
				ph.failed++
				ph.wrong("%v: %v", fleetSet[i].pt, err)
				continue
			}
			if ms := millis(s.done.Sub(s.sent)); fleetSet[i].biased {
				ph.heavy = append(ph.heavy, ms)
			} else {
				ph.light = append(ph.light, ms)
			}
		}
		last := runs[len(runs)-1].done
		ph.makespan = append(ph.makespan, last.Sub(t0).Seconds())
		wall += last.Sub(t0)
		rspan.end()
		all = append(all, runs...)
		a.check(ph, round, runs, mark)
		mark = a.f.log.mark()
	}
	if n := a.f.log.malformed(); n > 0 {
		ph.wrong("%d shard protocol lines did not parse", n)
	}
	ph.lightTail, ph.heavyTail = percentile(ph.light, fleetTail), percentile(ph.heavy, fleetTail)
	ph.headline = median(ph.makespan)
	if tr != nil {
		ph.layer = a.layers(tr, all, wall)
	}
	return ph, nil
}

// check applies the fleet's correctness rules to one round: every run
// converged at or below its target and agrees with its closed form,
// and its summary, cells, waves and kept-prefix wire traffic repeat
// the first round of the same seed set exactly.
func (a *fleetAdaptive) check(ph *phase, round int, runs []*submitted, mark wireMark) {
	jobs := a.f.log.since(mark)
	recs := make([]runRecord, len(runs))
	for _, s := range runs {
		if s.err != nil {
			continue
		}
		fr, sum := fleetSet[s.idx], s.res.Summary
		if !sum.Converged || !(sum.HalfWidth <= fr.target) {
			ph.wrong("%v: converged=%v half-width %.3g, target %.3g", fr.pt, sum.Converged, sum.HalfWidth, fr.target)
		}
		cf, err := fr.pt.closedForm()
		if err != nil {
			ph.wrong("%v: closed form: %v", fr.pt, err)
		} else if err := checkClosedForm(sum, cf); err != nil {
			ph.wrong("%v: %v", fr.pt, err)
		}
		b, err := json.Marshal(sum)
		if err != nil {
			ph.wrong("%v: marshal summary: %v", fr.pt, err)
		}
		recs[s.idx] = runRecord{summary: string(b), iters: sum.Iterations, events: incidents(sum.Events), waves: s.res.Stats.Waves}
		for _, c := range sim.Cells(fleetCap) {
			if c.End <= sum.Iterations {
				recs[s.idx].cells++
			}
		}
	}
	for _, j := range jobs {
		i, ok := a.seeds[j.Seed]
		if ok && j.Seed != runs[i].seed {
			continue // a late reply to an earlier round's job
		}
		if !ok {
			ph.wrong("job %d carries unknown seed %d", j.ID, j.Seed)
			continue
		}
		if j.Reply == shard.MsgResult && j.End <= runs[i].res.Summary.Iterations {
			recs[i].keptJobs++
			recs[i].keptBytes += j.Bytes
		}
	}
	k := round % fleetInputs
	if a.ref[k] == nil {
		a.ref[k] = recs
		return
	}
	for i, r := range recs {
		ref := a.ref[k][i]
		if r != ref {
			ph.wrong("%v: round %d differs from round %d (waves %d/%d, kept jobs %d/%d, kept bytes %d/%d, summary equal %v): nondeterminism",
				fleetSet[i].pt, round, k, r.waves, ref.waves, r.keptJobs, ref.keptJobs, r.keptBytes, ref.keptBytes, r.summary == ref.summary)
		}
	}
}

// layers derives the shard-layer metrics of a traced phase from its
// run spans and the job/reply pairs seen on the worker pipes. The
// exact counts come from the first run of every input set, so they do
// not depend on how many rounds the phase had time for.
func (a *fleetAdaptive) layers(tr *tracer, runs []*submitted, wall time.Duration) map[string]float64 {
	jobs := a.f.log.since(0)
	bySeed := make(map[uint64][]*submitted)
	for _, s := range runs {
		bySeed[s.seed] = append(bySeed[s.seed], s)
	}
	// A job belongs to the run of its seed that was outstanding when
	// the job was sent.
	t := tallyJobs(tr, jobs, fleetLaneWorker, func(j jobRecord) (*submitted, open, bool) {
		for _, s := range bySeed[j.Seed] {
			if !j.Sent.Before(s.sent) && !j.Sent.After(s.done) {
				return s, s.span, true
			}
		}
		return nil, open{}, false
	})
	var submitUs, selfMs []float64
	var keptIters, computedIters, cancelled, failures float64
	for _, s := range runs {
		submitUs = append(submitUs, s.submitUs)
		runSpan := span{Start: tr.at(s.sent), End: tr.at(s.done)}
		selfMs = append(selfMs, millis(selfTime(runSpan, t.spans[s])))
		cancelled += float64(s.res.Stats.CancelledJobs)
		failures += float64(s.res.Stats.WorkerFailures)
		for _, j := range t.jobs[s] {
			if j.Reply != shard.MsgResult {
				continue
			}
			computedIters += float64(j.iters())
			if j.End <= s.res.Summary.Iterations {
				keptIters += float64(j.iters())
			}
		}
	}
	exact, nref := sumRecords(a.ref[:]...)
	n := float64(len(runs))
	return map[string]float64{
		"sim.events_per_iter":        float64(exact.events) / float64(exact.iters),
		"sim.cells":                  float64(exact.cells) / nref,
		"shard.submit_us":            median(submitUs),
		"shard.job_rtt_ms.p50":       median(t.rtt),
		"shard.job_rtt_ms.p99":       percentile(t.rtt, 0.99),
		"shard.worker_busy_ratio":    t.busy.Seconds() / (wall.Seconds() * float64(len(a.f.workers))),
		"shard.coordinator_self_ms":  median(selfMs),
		"shard.useful_iter_ratio":    keptIters / computedIters,
		"shard.wire_bytes_per_kiter": float64(exact.keptBytes) / (float64(exact.iters) / 1e3),
		"shard.messages_per_run":     float64(t.msgs) / n,
		"shard.jobs_per_run":         float64(exact.keptJobs) / nref,
		"shard.waves_per_run":        float64(exact.waves) / nref,
		"shard.cancelled_jobs":       cancelled / n,
		"shard.worker_failures":      failures,
		"shard.iters_to_target":      float64(exact.iters) / nref,
	}
}

func (a *fleetAdaptive) peakRSSKB() (int64, error) {
	self, err := peakRSS("self")
	if err != nil {
		return 0, err
	}
	w, err := a.f.peakRSSKB()
	return self + w, err
}

func (a *fleetAdaptive) close() error {
	var err error
	if a.pool != nil {
		err = a.pool.Close()
	}
	if a.f != nil {
		if ferr := a.f.close(); err == nil {
			err = ferr
		}
	}
	return err
}
