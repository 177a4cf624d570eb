package sim

import (
	"math"

	"herald/internal/dist"
)

// This file is the memoryless kernel: one walker over a per-policy
// transition table. When every law is exponential the array process is
// a CTMC — the equivalence the paper itself leans on to validate the
// simulator (§V-A) — so the walker keeps no per-disk failure clocks:
// each state's holding time is one Exp(total-rate) draw (min of k iid
// Exp(lambda) is Exp(k*lambda)) and the winning exit is chosen with
// probability proportional to its rate. Exponential members are
// exchangeable and, by memorylessness, a survivor's residual lifetime
// never depends on its age, so a table state only records how many
// members are failed or pulled. The generic clock walkers
// (conventional.go, failover.go, dualparity.go) remain the reference
// this kernel is validated against, both statistically and against
// the internal/markov closed forms.
//
// One second-order refinement of the clock walkers is deliberately
// not carried over: their surviving members keep aging through
// tape-restore and resync outages (an expired clock fires the moment
// the restore ends), whereas the table walker — like the paper's
// chains, whose DL state has the single transition DL --muDDF--> OP —
// restarts the failure race fresh after an outage. The difference is
// of order lambda x restore-time per data loss (~1e-4 relative at the
// equivalence tests' inflated rates, far less at paper rates) and sits
// well inside the CI-overlap tolerances
// TestMemorylessMatchesGenericCIOverlap pins.

// tapeHold is the backup restore an exit passes through before its
// next state.
type tapeHold uint8

const (
	noTape tapeHold = iota
	// tapeDL restores after data loss: DL downtime.
	tapeDL
	// tapeResync is the post-undo consistency restore of
	// ArrayParams.ResyncAfterUndo: it extends the open DU interval.
	tapeResync
)

// evKind is the event an exit counts.
type evKind uint8

const (
	evNone       evKind = iota
	evFailure           // a member failure
	evDataLoss          // a member failure that loses data
	evCrash             // a wrongly pulled disk crashed while out
	evUndo              // an attempt to undo a wrong pull
	evHumanError        // a wrong pull: a HEP trial fired
	numEvKinds
)

// evHits counts an iteration's events by kind.
type evHits [numEvKinds]int64

// census writes the counts as an event census.
func (h *evHits) census(e *EventCounts) {
	e.Failures = h[evFailure] + h[evDataLoss]
	e.DoubleFailures = h[evDataLoss]
	e.HumanErrors = h[evHumanError]
	e.Crashes = h[evCrash]
	e.UndoAttempts = h[evUndo]
}

// memOutcome is one exit of a table state.
type memOutcome struct {
	rate float64 // nominal rate of a non-failure exit
	fail float64 // failing members of a disk-failure exit: rate fail*lambda
	ev   evKind  // counted when the exit is taken
	// hep follows the exit with a human-error opportunity: when the
	// Bernoulli(HEP) trial fires the walker counts a human error and
	// enters errNext instead, skipping the tape hold.
	hep           bool
	tape          tapeHold
	next, errNext int

	// Filled by finish.
	cut       float64   // cumulative biased winner share; the last exit takes the rest
	lnW       float64   // log-likelihood ratio of taking the exit (0 unbiased)
	to, errTo *memState // next and errNext
}

// memState is one state of a policy's table.
type memState struct {
	du bool // data unavailable: time spent here is DU downtime
	// ctr > 0 decides outs[0] against outs[1] with skip counter ctr
	// instead of a uniform draw against the cuts: in a CTMC the winner
	// of a state's race is an iid Bernoulli draw independent of the
	// holding times, so the rare exit of a race the quiet cycle
	// crosses is skip-sampled like the human-error trials.
	ctr  int
	outs []memOutcome

	// Filled by finish.
	inv  float64      // inverse nominal exit total: the holding time's scale
	tot  float64      // biased exit total: the winner draw's normalizer
	race *skipCounter // counter ctr; nil for a cut race
}

// cycleStep is one state of the quiet cycle as the walker takes it.
type cycleStep struct {
	state *memState
	inv   float64      // state.inv
	race  *skipCounter // state.race
	// quiet is the exit the cycle takes (its event, log-weight and HEP
	// trial copied alongside), rare the exit taken when race fires.
	quiet, rare *memOutcome
	ev          evKind
	hep         bool
	lnW         float64
}

// memTable is a policy's CTMC as the walker samples it. State 0 opens
// the quiet cycle: the path from state 0 through single exits and
// non-firing skip counters back to state 0 — the benign failure and
// repair cycle that dominates a lifetime. Between events its cycles
// are known to be quiet, so the walker aggregates them into chunks of
// one Erlang draw per cycle state.
type memTable struct {
	states  []memState
	invTape float64

	// Derived by finish.
	nCtr      int // skip counters in use, HEP included
	cycle     []cycleStep
	cycleRate float64 // quiet cycles per hour; 0 disables aggregation
	cycleLnW  float64 // log-weight of one quiet cycle
}

const (
	// ctrHEP is the skip counter of the human-error trials every walker
	// shares; a table's races use counters 1 to nCtr-1.
	ctrHEP = 0
	// maxCtrs bounds the skip counters, HEP included.
	maxCtrs = 3
	// maxCycle bounds the states of a quiet cycle.
	maxCycle = 3
)

// memTables builds each policy's table from its rates.
var memTables = [...]func(*ArrayParams, memRates) memTable{
	Conventional: conventionalTable,
	AutoFailover: failoverTable,
	DualParity:   dualParityTable,
}

// conventionalTable is paper Fig. 2 plus the member failures of the DU
// state: OP, EXP (replacement service racing a second failure) and DU
// (a wrong replacement waiting to be undone).
func conventionalTable(p *ArrayParams, m memRates) memTable {
	const op, exp, du = 0, 1, 2
	n := float64(p.Disks)
	undo := memOutcome{rate: m.muHE, ev: evUndo, hep: true, next: op, errNext: du}
	if p.ResyncAfterUndo {
		undo.tape = tapeResync
	}
	return memTable{invTape: inv(m.muDDF), states: []memState{
		op: {outs: []memOutcome{{fail: n, ev: evFailure, next: exp}}},
		exp: {ctr: 1, outs: []memOutcome{
			{fail: n - 1, ev: evDataLoss, tape: tapeDL, next: op},
			{rate: m.muDF, hep: true, next: op, errNext: du},
		}},
		du: {du: true, outs: []memOutcome{
			undo,
			{rate: p.CrashRate, ev: evCrash, tape: tapeDL, next: op},
			{fail: n - 2, ev: evDataLoss, tape: tapeDL, next: op},
		}},
	}}
}

// failoverTable is paper Fig. 3 plus the member failures of its DU
// states. The spare absorbs a failure by on-line rebuild (EXP1); the
// human only touches the array to replenish the spare slot (OPns), to
// serve a failure that found no spare (EXPns1) or to undo a wrong pull
// (EXPns2 with one healthy member out, DUns1/DUns2 unavailable).
func failoverTable(p *ArrayParams, m memRates) memTable {
	const op, exp1, opns, expns1, expns2, duns1, duns2 = 0, 1, 2, 3, 4, 5, 6
	n, crash := float64(p.Disks), p.CrashRate
	return memTable{invTape: inv(m.muDDF), states: []memState{
		op: {outs: []memOutcome{{fail: n, ev: evFailure, next: exp1}}},
		exp1: {ctr: 1, outs: []memOutcome{
			{fail: n - 1, ev: evDataLoss, tape: tapeDL, next: op},
			{rate: m.muS, next: opns},
		}},
		opns: {ctr: 2, outs: []memOutcome{
			{fail: n, ev: evFailure, next: expns1},
			{rate: m.muCH, hep: true, next: op, errNext: expns2},
		}},
		expns1: {outs: []memOutcome{
			{fail: n - 1, ev: evDataLoss, tape: tapeDL, next: opns},
			{rate: m.muDF, hep: true, next: opns, errNext: duns1},
		}},
		expns2: {outs: []memOutcome{
			{rate: m.muHE, ev: evUndo, hep: true, next: op, errNext: duns2},
			{rate: crash, ev: evCrash, next: expns1},
			{fail: n - 1, ev: evFailure, next: duns1},
		}},
		duns1: {du: true, outs: []memOutcome{
			{rate: m.muHE, ev: evUndo, hep: true, next: expns1, errNext: duns1},
			{rate: crash, ev: evCrash, tape: tapeDL, next: opns},
			{fail: n - 2, ev: evDataLoss, tape: tapeDL, next: opns},
		}},
		duns2: {du: true, outs: []memOutcome{
			{rate: m.muHE, ev: evUndo, hep: true, next: expns2, errNext: duns2},
			{rate: 2 * crash, ev: evCrash, next: duns1},
			{fail: n - 2, ev: evDataLoss, tape: tapeDL, next: opns},
		}},
	}}
}

// dualParityTable is conventional replacement on an array that
// tolerates two concurrent member losses: E1 and E2 count the missing
// (failed or wrongly pulled) members, and a third missing member
// makes the data unavailable (DU) unless it is a failure (data loss).
func dualParityTable(p *ArrayParams, m memRates) memTable {
	const op, e1, e2, du = 0, 1, 2, 3
	n := float64(p.Disks)
	undo := memOutcome{rate: m.muHE, ev: evUndo, hep: true, next: e2, errNext: du}
	if p.ResyncAfterUndo {
		undo.next, undo.tape = op, tapeResync
	}
	return memTable{invTape: inv(m.muDDF), states: []memState{
		op: {outs: []memOutcome{{fail: n, ev: evFailure, next: e1}}},
		e1: {ctr: 1, outs: []memOutcome{
			{fail: n - 1, ev: evFailure, next: e2},
			{rate: m.muDF, hep: true, next: op, errNext: e2},
		}},
		e2: {outs: []memOutcome{
			{fail: n - 2, ev: evDataLoss, tape: tapeDL, next: op},
			{rate: m.muDF, hep: true, next: e1, errNext: du},
		}},
		du: {du: true, outs: []memOutcome{
			undo,
			{rate: p.CrashRate, ev: evCrash, tape: tapeDL, next: op},
			{fail: n - 3, ev: evDataLoss, tape: tapeDL, next: op},
		}},
	}}
}

// finish resolves the table's rates for per-disk failure rate lambda
// under failure-biasing factor bias (<= 1 unbiased), sets up the race
// counters among ctr and links the states for the walker, and derives
// the quiet cycle.
//
// Failure biasing (Options.Bias) is one pass over the exits: every
// disk-failure share of a winner draw is inflated by the bias factor
// while holding times keep their nominal law, so the clock stays
// calibrated and the likelihood ratio of an exit reduces to a state
// constant — ln(biased/nominal exit total) for a quiet exit, that
// minus ln(bias) for a failure. A single-exit state is never weighed.
// With bias 1 every constant is bit-identical to the unbiased table:
// multiplying a rate by 1.0 is exact and the log-weights stay 0.
func (tb *memTable) finish(lambda, bias float64, ctr *[maxCtrs]skipCounter) {
	if bias < 1 {
		bias = 1
	}
	for si := range tb.states {
		ms := &tb.states[si]
		nominal, biased := 0.0, 0.0
		for oi := range ms.outs {
			o := &ms.outs[oi]
			rate, brate := o.rate, o.rate
			if o.fail > 0 {
				rate, brate = o.fail*lambda, bias*o.fail*lambda
			}
			nominal += rate
			biased += brate
			o.cut = biased
		}
		ms.inv, ms.tot = inv(nominal), biased
		if ms.ctr > 0 {
			ctr[ms.ctr] = newSkipCounter(ms.outs[0].cut * inv(biased))
			ms.race = &ctr[ms.ctr]
			tb.nCtr = max(tb.nCtr, ms.ctr+1)
		}
		for oi := range ms.outs {
			o := &ms.outs[oi]
			o.to, o.errTo = &tb.states[o.next], &tb.states[o.errNext]
		}
		if bias > 1 && len(ms.outs) > 1 && nominal > 0 {
			lnQuiet := math.Log(biased / nominal)
			for oi := range ms.outs {
				o := &ms.outs[oi]
				o.lnW = lnQuiet
				if o.fail > 0 {
					o.lnW -= math.Log(bias)
				}
			}
		}
	}

	// A quiet chunk decrements every skip counter in use, and entering
	// state 0 readies the race counters in order and then HEP: the
	// cycle must try each once, in that order.
	tb.nCtr = max(tb.nCtr, 1)
	cycleInv, tried := 0.0, 0
	for s := 0; ; {
		ms := &tb.states[s]
		step := cycleStep{state: ms, inv: ms.inv, race: ms.race, quiet: &ms.outs[0]}
		if ms.ctr > 0 {
			step.quiet, step.rare = &ms.outs[1], &ms.outs[0]
			if tried++; ms.ctr != tried {
				panic("sim: quiet cycle tries its race counters out of order")
			}
		}
		o := step.quiet
		if o.hep {
			tried = tb.nCtr
		}
		if ms.du || o.tape != noTape || (ms.ctr == 0 && len(ms.outs) != 1) || len(tb.cycle) == maxCycle {
			panic("sim: malformed quiet cycle in the memoryless table")
		}
		step.ev, step.hep, step.lnW = o.ev, o.hep, o.lnW
		tb.cycle = append(tb.cycle, step)
		cycleInv += ms.inv
		tb.cycleLnW += o.lnW
		if s = o.next; s == 0 {
			break
		}
	}
	if tried != tb.nCtr {
		panic("sim: quiet cycle misses a race counter or the human-error trial")
	}
	if tb.states[0].inv > 0 {
		tb.cycleRate = 1 / cycleInv
	}
}

// walk samples one lifetime of the table's CTMC: per state, one
// holding-time draw and one winner draw, with DU intervals opened and
// closed on state changes and mission-end censoring. Every entry into
// state 0 first aggregates whatever quiet cycles the skip counters
// guarantee (quietChunk).
func (sc *scratch) walk(mission float64) (st iterStats) {
	tb, r := &sc.tab, &sc.src
	hep := &sc.ctr[ctrHEP]
	var w walkAcc
	t := 0.0
	chunking := tb.cycleRate > 0
walk:
	for t < mission {
		// Entering state 0.
		if tb.cycleRate > 0 {
			for i := 1; i < tb.nCtr; i++ {
				sc.ctr[i].ready(r)
			}
			hep.ready(r)
			for chunking {
				// Chunks are sized at 3/4 of the expected quiet cycles
				// left: large enough to collapse most of the mission in
				// a couple of chunks, small enough that chunks rarely
				// straddle mission end (an exact but cycle-by-cycle
				// resolution, resolveChunk). Below aggMin cycles
				// aggregation stops paying; as time only grows, it
				// stops for the rest of the iteration.
				c := int((mission - t) * tb.cycleRate * 0.75)
				if c < aggMin {
					chunking = false
					break
				}
				if c = sc.chunkLimit(c); c < aggMin {
					break
				}
				var done bool
				if t, done = sc.quietChunk(&w, t, mission, c); done {
					break walk
				}
			}
		}
		// One quiet cycle, a state at a time; a rare exit or a human
		// error leaves it for the rest of the table.
		for j := range tb.cycle {
			cs := &tb.cycle[j]
			dt := sc.expNext() * cs.inv
			if t+dt >= mission {
				break walk // the cycle's states are up: no downtime accrues
			}
			t += dt
			if cs.race != nil && cs.race.trial(r) {
				t = sc.offCycle(&w, cs.state, cs.rare, false, t, mission)
				continue walk
			}
			if cs.hep && hep.trial(r) {
				t = sc.offCycle(&w, cs.state, cs.quiet, true, t, mission)
				continue walk
			}
			w.hits[cs.ev]++
			w.logW += cs.lnW
		}
	}
	st.downDU, st.downDL, st.logW = w.downDU, w.downDL, w.logW
	w.hits.census(&st.events)
	return st
}

// walkAcc is an iteration's running account: downtime, log-weight and
// events.
type walkAcc struct {
	downDU, downDL float64
	duStart        float64 // opening time of the open DU interval
	logW           float64
	hits           evHits
}

// offCycle takes exit o of state ms at time t — hepFired when o's
// human-error trial already ran and fired — and walks the table from
// there: per state, one holding-time draw and one winner draw, with DU
// intervals opened and closed on state changes and mission-end
// censoring. It returns the time reached on re-entering state 0, or at
// least the mission time when the mission ends first.
func (sc *scratch) offCycle(w *walkAcc, ms *memState, o *memOutcome, hepFired bool, t, mission float64) float64 {
	tb, r := &sc.tab, &sc.src
	home := &tb.states[0]
	for {
		w.hits[o.ev]++
		w.logW += o.lnW
		next, tape := o.to, o.tape
		if hepFired || (o.hep && sc.ctr[ctrHEP].trial(r)) {
			w.hits[evHumanError]++
			next, tape = o.errTo, noTape
		}
		if next != ms { // a failed undo keeps the DU interval open
			if tape == tapeResync {
				end := t + sc.expNext()*tb.invTape
				w.downDU += math.Min(end, mission) - w.duStart
				t = end
			} else if ms.du {
				w.downDU += t - w.duStart
			}
			if tape == tapeDL {
				// No member state survives the restore: the failure
				// race restarts fresh at its end (DL --muDDF--> OP).
				end := t + sc.expNext()*tb.invTape
				w.downDL += math.Min(end, mission) - t
				t = end
			}
			if next.du {
				w.duStart = t
			}
		}
		if ms = next; ms == home || t >= mission {
			return t
		}

		dt := sc.expNext() * ms.inv
		if t+dt >= mission {
			if ms.du {
				w.downDU += mission - w.duStart
			}
			return mission
		}
		t += dt
		o, hepFired = &ms.outs[0], false
		if ms.race != nil {
			if !ms.race.trial(r) {
				o = &ms.outs[1]
			}
		} else if len(ms.outs) > 1 {
			u := r.Float64() * ms.tot
			i := 0
			for i < len(ms.outs)-1 && !(u < ms.outs[i].cut) {
				i++
			}
			o = &ms.outs[i]
		}
	}
}

// chunkLimit bounds a chunk of c quiet cycles by the cycles the skip
// counters guarantee quiet and by the cached Erlang constants.
func (sc *scratch) chunkLimit(c int) int {
	if c > aggMax {
		c = aggMax
	}
	for i := range sc.ctr[:sc.tab.nCtr] {
		if g := sc.ctr[i].gap; g < c {
			c = g
		}
	}
	return c
}

// quietChunk advances time t over c quiet cycles: the skip counters
// guarantee them free of rare exits and human errors, so their
// elapsed time costs one Erlang(c) draw per cycle state instead of c
// exponentials each. It returns the advanced time, and done when the
// mission ended inside the chunk (the iteration is then complete).
func (sc *scratch) quietChunk(w *walkAcc, t, mission float64, c int) (float64, bool) {
	cycle := sc.tab.cycle
	var sums [maxCycle]float64
	end, span := t, 0.0
	for j := range cycle {
		sums[j] = dist.ErlangFloat64(&sc.src, c) * cycle[j].inv
		end += sums[j]
		span += sums[j]
	}
	if end >= mission {
		sc.resolveChunk(w, t, mission, c, sums[:len(cycle)])
		return mission, true
	}
	for j := range cycle {
		w.hits[cycle[j].ev] += int64(c)
	}
	w.logW += float64(c) * sc.tab.cycleLnW
	for i := range sc.ctr[:sc.tab.nCtr] {
		sc.ctr[i].gap -= c
	}
	return t + span, false
}

// resolveChunk finishes an iteration whose chunk of c quiet cycles
// (per-state hold totals sums) straddles mission end. Conditioned on
// an Erlang total, the individual holds are the total split
// proportionally to fresh iid rate-1 exponentials (the
// Dirichlet(1,...,1) representation of uniform order-statistic
// spacings), so the walk below replays the chunk cycle by cycle and
// counts the exits that complete before mission end, exactly as the
// unaggregated walk would. The array is up throughout a quiet cycle,
// so no downtime accrues.
//
// Only exits whose hold completes within the mission count and weigh:
// the chunk's skip counters stay untouched for a straddling chunk, and
// races the mission cuts off must not weigh.
func (sc *scratch) resolveChunk(w *walkAcc, t, mission float64, c int, sums []float64) {
	var scale [maxCycle]float64
	for j := range sums {
		sc.src.ExpFloat64N(sc.agg[j][:c])
	}
	for j := range sums {
		s := 0.0
		for _, x := range sc.agg[j][:c] {
			s += x
		}
		scale[j] = sums[j] / s
	}
	done := 0 // holds completed before mission end, in cycle order
replay:
	for i := 0; i < c; i++ {
		for j := range sums {
			if t += sc.agg[j][i] * scale[j]; t >= mission {
				break replay
			}
			done++
		}
	}
	// Landing past the loop would mean the mission boundary fell within
	// rounding of the chunk's end, with every cycle complete.
	cycle, k := sc.tab.cycle, len(sums)
	for j := range cycle {
		n := done / k
		if j < done%k {
			n++
		}
		w.hits[cycle[j].ev] += int64(n)
	}
	if sc.tab.cycleLnW != 0 { // biased: the weights accumulate in exit order
		for h := 0; h < done; h++ {
			w.logW += cycle[h%k].lnW
		}
	}
}
