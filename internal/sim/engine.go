package sim

import (
	"fmt"
	"math"

	"herald/internal/dist"
	"herald/internal/xrand"
)

// sampler caches the devirtualized fast path for one distribution,
// resolved once per worker instead of per draw: memoryless laws
// (rate > 0, see dist.Memoryless) are drawn inline via
// expInv(r, invRate) with no interface dispatch, and laws implementing
// dist.BatchSampler fill slices through their batch algorithm.
type sampler struct {
	d     dist.Distribution
	batch dist.BatchSampler
	// rate > 0 marks a memoryless law; invRate caches 1/rate so the
	// hot path multiplies instead of divides (the values differ from
	// Exponential.Sample in the last ulp, which the stream-level
	// determinism contract permits).
	rate    float64
	invRate float64
}

func newSampler(d dist.Distribution) sampler {
	sp := sampler{d: d}
	if d == nil {
		return sp
	}
	if rate, ok := dist.Memoryless(d); ok {
		sp.rate = rate
		sp.invRate = 1 / rate
	}
	if b, ok := d.(dist.BatchSampler); ok {
		sp.batch = b
	}
	return sp
}

// sample draws one variate: inline exponential draws when the law
// allows it, one interface dispatch otherwise.
func (sp *sampler) sample(r *xrand.Source) float64 {
	if sp.rate > 0 {
		return expInv(r, sp.invRate)
	}
	return sp.sampleSlow(r)
}

func (sp *sampler) sampleSlow(r *xrand.Source) float64 { return sp.d.Sample(r) }

// sampleN fills dst with independent draws.
func (sp *sampler) sampleN(r *xrand.Source, dst []float64) {
	if sp.rate > 0 {
		for i := range dst {
			dst[i] = expInv(r, sp.invRate)
		}
		return
	}
	if sp.batch != nil {
		sp.batch.SampleN(r, dst)
		return
	}
	for i := range dst {
		dst[i] = sp.d.Sample(r)
	}
}

// memRates are the hazard rates of a fully memoryless configuration —
// the input of the rate-based kernels. muHE is 0 when HEP is 0 (the
// undo law is never drawn); muS and muCH are 0 outside AutoFailover.
type memRates struct {
	lambda float64 // per-disk failure
	muDF   float64 // replacement / rebuild service
	muDDF  float64 // tape restore
	muHE   float64 // human-error undo attempt
	muS    float64 // on-line rebuild to hot spare
	muCH   float64 // spare swap
}

// memorylessRates resolves the configuration's rates when every law
// the policy draws from answers dist.Memoryless.
func memorylessRates(p *ArrayParams) (memRates, bool) {
	var m memRates
	var ok bool
	if m.lambda, ok = dist.Memoryless(p.TTF); !ok {
		return m, false
	}
	if m.muDF, ok = dist.Memoryless(p.Repair); !ok {
		return m, false
	}
	if m.muDDF, ok = dist.Memoryless(p.TapeRestore); !ok {
		return m, false
	}
	if p.HEP > 0 {
		if m.muHE, ok = dist.Memoryless(p.HERecovery); !ok {
			return m, false
		}
	}
	if p.Policy == AutoFailover {
		if m.muS, ok = dist.Memoryless(p.SpareRebuild); !ok {
			return m, false
		}
		if m.muCH, ok = dist.Memoryless(p.SpareSwap); !ok {
			return m, false
		}
	}
	return m, true
}

// resolveKernel maps the requested kernel onto a walker choice for p.
// It is the options-resolution step of the dispatch layer: RunRange
// calls it before spawning workers so a forced-but-impossible
// specialization fails the run instead of silently degrading.
func resolveKernel(p *ArrayParams, k Kernel) (memRates, bool, error) {
	switch k {
	case KernelGeneric:
		return memRates{}, false, nil
	case KernelAuto, KernelMemoryless:
		m, ok := memorylessRates(p)
		if !ok && k == KernelMemoryless {
			return memRates{}, false, fmt.Errorf(
				"sim: kernel %v requires exponential laws throughout (TTF %v, repair %v, restore %v)",
				k, p.TTF, p.Repair, p.TapeRestore)
		}
		return m, ok, nil
	default:
		return memRates{}, false, fmt.Errorf("sim: unknown kernel %d", int(k))
	}
}

const (
	// expBufLen is the refill granularity of the scratch's rate-1
	// exponential buffer: small enough that the draws left unread at
	// iteration end (the buffer never carries across iterations) stay
	// cheap — with aggregation, an iteration's individual cycles only
	// need a handful — large enough to amortize ExpFloat64N's
	// batching win.
	expBufLen = 8

	// aggMin and aggMax bound benign-cycle aggregation chunks: below
	// aggMin cycles the Erlang draws stop paying for themselves and
	// the walkers fall back to individual cycles; aggMax matches the
	// stage counts dist.ErlangFloat64 has cached constants for.
	aggMin = 2
	aggMax = 64
)

// scratch is one worker's reusable simulation state: the failure-clock
// slice, an in-place reseedable stream, the resolved samplers and the
// kernel choice. Allocated once per worker, it makes the per-iteration
// hot loop allocation-free (pinned by TestHotLoopZeroAllocs).
type scratch struct {
	p    *ArrayParams
	src  xrand.Source
	fail []float64

	// expPos indexes the first unread variate of expBuf (the buffer
	// itself lives at the end of the struct, keeping the hot scalar
	// fields on few cache lines). noBatch (test-only, from Options)
	// bypasses both the refill buffer and benign-cycle aggregation,
	// giving the unbatched reference realization.
	expPos  int
	noBatch bool

	// ctr holds the skip counters: ctr[ctrHEP] realizes the
	// human-error trials of every walker, the rest the races of the
	// memoryless table. iterate resets them so iterations stay
	// independent.
	ctr [maxCtrs]skipCounter

	ttf, repair, tape, herec, rebuild, swap sampler

	// crashInv / crash2Inv cache the inverse crash-clock rates for
	// expInv (0 when the disks never crash while pulled).
	crashInv, crash2Inv float64

	// memoryless is true when this scratch runs the rate-based
	// kernel over tab, its policy's transition table.
	memoryless bool
	tab        memTable

	// Cached two-min failure scan, threaded through the fail-over
	// phase machine: scanOK is invalidated whenever a clock changes
	// (clocksChanged), so phases that exclude at most one disk reuse
	// one scan instead of re-scanning per transition.
	scanOK         bool
	scanI1, scanI2 int
	scanT1, scanT2 float64

	// expBuf[expPos:] holds rate-1 exponentials not yet handed out;
	// refills draw from the iteration's stream (ExpFloat64N), and
	// iterate marks the buffer empty at each reseed, so buffered draws
	// remain a pure function of (seed, iteration) — the buffer is
	// logically part of the iteration's stream, never shared across
	// iterations.
	expBuf [expBufLen]float64

	// agg is the per-state stage scratch of the censored chunk
	// resolution (resolveChunk), sized to the largest aggregation
	// chunk. Cold: touched at most once per iteration, at mission end.
	agg [maxCycle][aggMax]float64
}

// newScratch builds a worker's scratch for the given kernel request.
// Kernel feasibility must have been checked beforehand (resolveKernel
// in RunRange); an infeasible forced request falls back to the generic
// walker here. bias is the resolved failure-inflation factor of an
// importance-sampled run (values <= 1 mean unbiased; prepareRange
// rejects biased requests on non-memoryless configurations before any
// scratch is built; see memTable.finish).
func newScratch(p *ArrayParams, k Kernel, noBatch bool, bias float64) *scratch {
	sc := &scratch{
		p:         p,
		noBatch:   noBatch,
		crashInv:  inv(p.CrashRate),
		crash2Inv: inv(2 * p.CrashRate),
	}
	sc.ctr[ctrHEP] = newSkipCounter(p.HEP)
	if m, ok, err := resolveKernel(p, k); err == nil && ok {
		// The rate-based walker never touches the failure clocks or
		// the law samplers; skipping their construction keeps short
		// ranges (adaptive probes, benchmark cells) off that setup
		// cost.
		sc.memoryless = true
		sc.tab = memTables[p.Policy](p, m)
		sc.tab.finish(m.lambda, bias, &sc.ctr)
		if noBatch {
			sc.tab.cycleRate = 0
		}
		return sc
	}
	sc.fail = make([]float64, p.Disks)
	sc.ttf = newSampler(p.TTF)
	sc.repair = newSampler(p.Repair)
	sc.tape = newSampler(p.TapeRestore)
	sc.herec = newSampler(p.HERecovery)
	sc.rebuild = newSampler(p.SpareRebuild)
	sc.swap = newSampler(p.SpareSwap)
	return sc
}

// iterate walks one array lifetime for iteration index it. Each
// iteration reseeds the stream in place from (seed, it) and resets the
// skip counters, so the draw sequence of an iteration depends only on
// the master seed and the iteration index — never on which worker ran
// it or how iterations were scheduled.
func (sc *scratch) iterate(seed uint64, it int, mission float64) iterStats {
	sc.src.SeedStream(seed, uint64(it))
	for i := range sc.ctr {
		sc.ctr[i].gap = -1
	}
	sc.expPos = expBufLen // discard buffered draws of the previous iteration
	if sc.memoryless {
		return sc.walk(mission)
	}
	sc.scanOK = false
	switch sc.p.Policy {
	case AutoFailover:
		return sc.failover(mission)
	case DualParity:
		return sc.dualParity(mission)
	default:
		return sc.conventional(mission)
	}
}

// clocksChanged invalidates the cached two-min scan; call it after any
// write to sc.fail.
func (sc *scratch) clocksChanged() { sc.scanOK = false }

// refreshScan recomputes the cached two smallest failure clocks.
func (sc *scratch) refreshScan() {
	if len(sc.fail) == 4 {
		sc.scanI1, sc.scanT1, sc.scanI2, sc.scanT2 = twoMin4(sc.fail)
	} else {
		sc.scanI1, sc.scanT1, sc.scanI2, sc.scanT2 = twoMin(sc.fail)
	}
	sc.scanOK = true
}

// cachedNextFailure returns the earliest failure clock skipping ex
// (noDisk for none), with nextFailure's expired-clock clamp to now.
// It answers from the cached two-min scan, recomputing only when a
// clock changed since the last scan — at most one exclusion can be
// resolved this way, which covers every up-phase of the fail-over
// machine.
func (sc *scratch) cachedNextFailure(now float64, ex int) (int, float64) {
	if !sc.scanOK {
		sc.refreshScan()
	}
	i, at := sc.scanI1, sc.scanT1
	if i == ex {
		i, at = sc.scanI2, sc.scanT2
	}
	if i >= 0 && at < now {
		at = now
	}
	return i, at
}

// hepTrial reports whether the next human-error opportunity turns into
// an error.
func (sc *scratch) hepTrial(r *xrand.Source) bool { return sc.ctr[ctrHEP].trial(r) }

// skipCounter realizes an iid Bernoulli(p) trial sequence by geometric
// gap sampling: the number of failed trials before the next success,
// floor(ln U / ln(1-p)), is drawn once and then counted down, which
// replaces one uniform per trial with one logarithm per success. p <= 0
// never succeeds (the gap outlives any mission), p >= 1 always does;
// neither consumes randomness, matching Bernoulli's edge behavior.
// Beyond the human-error trials, the memoryless walker uses counters
// for the rare exits of the races its quiet cycle crosses: in a CTMC
// the winner of a state's race is an iid Bernoulli draw independent of
// the holding times.
//
// Draws are censored at gapCap: when the uniform lands at or below
// qCap — the gap is at least gapCap — the counter holds gapCap
// without computing the logarithm. By memorylessness the excess over
// gapCap is again geometric, so a censored counter that runs out is
// redrawn instead of firing; a censored draw is never 0, so one
// redraw settles the trial. For the rare race exits (p of 1e-3 and
// below, censored ~94% of the time) a draw costs one uniform and one
// compare.
type skipCounter struct {
	gap   int  // failed trials left before the next success; -1 = not drawn
	exact bool // gap is materialized, not a censored horizon
	// inv and qCap are p's precomputed geomInv divisor and geomQCap
	// censoring threshold.
	inv, qCap float64
}

func newSkipCounter(p float64) skipCounter {
	return skipCounter{gap: -1, inv: geomInv(p), qCap: geomQCap(p)}
}

// ready draws the counter when it is not drawn yet or a censored
// horizon ran out. The check inlines into the walkers; the draw
// stays out of line.
func (c *skipCounter) ready(r *xrand.Source) {
	if c.gap < 0 || (c.gap == 0 && !c.exact) {
		c.draw(r)
	}
}

//go:noinline
func (c *skipCounter) draw(r *xrand.Source) {
	if c.inv >= 0 { // the sentinels: +Inf (never) and -0 (always)
		c.gap, c.exact = 0, true
		if c.inv > 0 {
			c.gap = math.MaxInt
		}
		return
	}
	u := r.OpenFloat64()
	if u <= c.qCap {
		c.gap, c.exact = gapCap, false
		return
	}
	c.gap, c.exact = int(math.Log(u)*c.inv), true
}

// trial reports whether the next trial succeeds.
func (c *skipCounter) trial(r *xrand.Source) bool {
	if c.gap > 0 { // drawn and not run out: the inlined common case
		c.gap--
		return false
	}
	return c.settle(r)
}

func (c *skipCounter) settle(r *xrand.Source) bool {
	c.ready(r)
	if c.gap == 0 {
		c.gap = -1 // success; redraw before the next trial
		return true
	}
	c.gap--
	return false
}

// geomInv precomputes a skip counter's divisor as a reciprocal,
// 1/ln(1-p): a negative normal for 0 < p < 1, -0 for p >= 1 and +Inf
// for p <= 0 (both sentinels resolve without touching the stream).
// Resolving it once with the kernel constants removes a log1p and a
// division from every geometric draw.
func geomInv(p float64) float64 {
	if p <= 0 {
		return plusInf
	}
	if p >= 1 {
		return math.Copysign(0, -1)
	}
	return 1 / math.Log1p(-p)
}

// gapCap is the censoring horizon of a skip counter's draw. It must be
// at least aggMax so a censored counter never constrains a quiet
// chunk.
const gapCap = aggMax

// geomQCap precomputes the censoring threshold P(gap >= gapCap) =
// (1-p)^gapCap that a draw tests its uniform against. Only consulted
// for 0 < p < 1 (geomInv's sentinels bypass the draw).
func geomQCap(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return math.Exp(float64(gapCap) * math.Log1p(-p))
}

// expNext returns the next rate-1 exponential of the iteration's
// stream, refilled through the buffer in expBufLen batches (see the
// expBuf field comment). Under noBatch it draws directly, giving the
// unbatched reference realization.
func (sc *scratch) expNext() float64 {
	if sc.expPos < expBufLen { // the inlined common case
		v := sc.expBuf[sc.expPos]
		sc.expPos++
		return v
	}
	return sc.expRefill()
}

// expRefill is expNext's out-of-line path: the empty buffer refills,
// or under noBatch, which keeps the buffer empty, the draw comes
// straight off the stream.
func (sc *scratch) expRefill() float64 {
	if sc.noBatch {
		return sc.src.ExpFloat64()
	}
	sc.src.ExpFloat64N(sc.expBuf[:])
	sc.expPos = 1
	return sc.expBuf[0]
}
