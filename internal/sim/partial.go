package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"herald/internal/stats"
)

// This file is the partitioning layer of the Monte-Carlo engine: it
// decomposes a run's iteration range [0, N) into canonical
// "accumulation cells", exposes RunRange to compute the cells of any
// aligned sub-range, and Summarize to fold cell partials back into a
// Summary. The decomposition is a pure function of N — never of the
// worker count, shard count or schedule — so every partitioning of a
// run produces the same floating-point merge tree and hence a
// bit-identical Summary. internal/shard distributes RunRange calls
// across processes and machines on top of this contract.

const (
	// maxCells caps the canonical cell count per run: enough
	// parallelism grain for hundreds of cores without bloating the
	// partial set a sharded run ships over the wire.
	maxCells = 256
	// minCellIterations floors the cell width so tiny runs do not
	// shatter into per-iteration partials.
	minCellIterations = 64
)

// Range is a half-open iteration index interval [Start, End).
type Range struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len returns the number of iterations in the range.
func (r Range) Len() int { return r.End - r.Start }

// CellSize returns the canonical accumulation-cell width for a run of
// n iterations. It depends on n alone, which is what makes sharded
// results reproducible: any partitioning of [0, n) along cell
// boundaries yields the same cells, accumulated in the same iteration
// order and merged in the same index order.
func CellSize(n int) int {
	c := (n + maxCells - 1) / maxCells
	if c < minCellIterations {
		c = minCellIterations
	}
	return c
}

// Cells returns the canonical cell decomposition of [0, n).
func Cells(n int) []Range {
	return cellsIn(n, 0, n)
}

// cellsIn returns the canonical cells of a run of n iterations that
// tile [start, end). The bounds must be cell-aligned.
func cellsIn(n, start, end int) []Range {
	cs := CellSize(n)
	out := make([]Range, 0, (end-start+cs-1)/cs)
	for lo := start; lo < end; lo += cs {
		hi := lo + cs
		if hi > end {
			hi = end
		}
		out = append(out, Range{Start: lo, End: hi})
	}
	return out
}

// Partial carries the mergeable outcome of one contiguous iteration
// range: the availability and downtime accumulators, the event census,
// and the optional downtime histogram, plus the seed/range metadata a
// coordinator needs to verify exactly-once coverage. It serializes to
// JSON, which is how shard workers return results and how checkpoints
// persist completed shards.
type Partial struct {
	// Start and End delimit the half-open iteration range [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// Seed and MissionTime echo the options the range was run under;
	// Summarize rejects partials from a different configuration.
	Seed        uint64  `json:"seed"`
	MissionTime float64 `json:"mission_time"`
	// Avail accumulates per-iteration availability; DownDU and DownDL
	// accumulate per-iteration downtime hours by cause.
	Avail  stats.Accumulator `json:"avail"`
	DownDU stats.Accumulator `json:"down_du"`
	DownDL stats.Accumulator `json:"down_dl"`
	// DownIters counts the iterations of the range with nonzero
	// downtime — the informative observations of the heavily
	// zero-inflated availability stream. The adaptive stopping rule's
	// Student-t safeguard (stats.StopRule) takes its effective sample
	// size from this count.
	DownIters int64 `json:"down_iters,omitempty"`
	// Events is the incident census of the range.
	Events EventCounts `json:"events"`
	// Hist is the per-iteration downtime histogram when
	// Options.HistogramBins was set; nil otherwise.
	Hist *stats.Histogram `json:"hist,omitempty"`
	// Bias is the concrete failure-inflation factor the range sampled
	// under (> 0 exactly for importance-sampled ranges, including an
	// auto request that resolved to 1); 0 for unbiased ranges.
	// Summarize requires it to be consistent across a run's partials —
	// auto resolution happens once, in prepareRange, never per worker.
	Bias float64 `json:"bias,omitempty"`
	// WAvail/WDownDU/WDownDL are the weighted counterparts of the
	// accumulators above, carrying each iteration's importance weight
	// exp(logW). Set exactly when Bias > 0; the unweighted accumulators
	// are still filled (they describe the raw proposal-law stream and
	// keep the merge-tree contract uniform).
	WAvail  *stats.WeightedAccumulator `json:"w_avail,omitempty"`
	WDownDU *stats.WeightedAccumulator `json:"w_down_du,omitempty"`
	WDownDL *stats.WeightedAccumulator `json:"w_down_dl,omitempty"`
}

// histMaxFor returns the downtime histogram's upper edge for the run
// options (default: 1% of the mission time).
func histMaxFor(o Options) float64 {
	if o.HistogramMaxHours > 0 {
		return o.HistogramMaxHours
	}
	return o.MissionTime / 100
}

// runCell walks every iteration of one canonical cell sequentially and
// returns its partial. Sequential per-cell accumulation plus
// per-iteration stream reseeding makes the partial a pure function of
// (params, options, cell) — independent of which worker, process or
// machine computed it.
func (sc *scratch) runCell(c Range, opts Options, histMax float64) Partial {
	pt := Partial{Start: c.Start, End: c.End, Seed: opts.Seed, MissionTime: opts.MissionTime, Bias: opts.Bias}
	if opts.HistogramBins > 0 {
		pt.Hist = stats.NewHistogram(0, histMax, opts.HistogramBins)
	}
	if opts.Bias > 0 {
		pt.WAvail = &stats.WeightedAccumulator{}
		pt.WDownDU = &stats.WeightedAccumulator{}
		pt.WDownDL = &stats.WeightedAccumulator{}
	}
	for it := c.Start; it < c.End; it++ {
		is := sc.iterate(opts.Seed, it, opts.MissionTime)
		down := is.downDU + is.downDL
		av := 1 - down/opts.MissionTime
		pt.Avail.Add(av)
		pt.DownDU.Add(is.downDU)
		pt.DownDL.Add(is.downDL)
		if down > 0 {
			pt.DownIters++
		}
		pt.Events.Merge(is.events)
		if pt.Hist != nil {
			pt.Hist.Add(down)
		}
		if pt.WAvail != nil {
			w := math.Exp(is.logW)
			pt.WAvail.Add(av, w)
			pt.WDownDU.Add(is.downDU, w)
			pt.WDownDL.Add(is.downDL, w)
		}
	}
	return pt
}

// prepareRange validates a range execution and returns the resolved
// options and the canonical cells of [start, end).
func prepareRange(p *ArrayParams, o *Options, start, end int) (Options, []Range, error) {
	if err := p.Validate(); err != nil {
		return Options{}, nil, err
	}
	if err := o.Validate(); err != nil {
		return Options{}, nil, err
	}
	if start < 0 || end > o.Iterations || start >= end {
		return Options{}, nil, fmt.Errorf("sim: range [%d,%d) outside run [0,%d)", start, end, o.Iterations)
	}
	cs := CellSize(o.Iterations)
	if start%cs != 0 || (end%cs != 0 && end != o.Iterations) {
		return Options{}, nil, fmt.Errorf("sim: range [%d,%d) not aligned to the %d-iteration cells of a %d-iteration run",
			start, end, cs, o.Iterations)
	}
	// Resolve the kernel once, up front: a forced-but-impossible
	// specialization fails the run here rather than inside a worker.
	_, useMem, err := resolveKernel(p, o.Kernel)
	if err != nil {
		return Options{}, nil, err
	}
	opts := o.withDefaults()
	// Resolve the bias factor once, too: the concrete factor is fixed
	// here (auto picks from the rates) and echoed into every Partial,
	// so all workers — local goroutines or remote shards running the
	// same resolved options — sample under the identical measure.
	opts.Bias = 0
	if o.Biased() {
		if !useMem {
			return Options{}, nil, fmt.Errorf(
				"sim: bias factor %v requires the memoryless kernel (exponential laws throughout; kernel %v resolved generic)",
				o.Bias, o.Kernel)
		}
		b, err := ResolveBias(*p, *o)
		if err != nil {
			return Options{}, nil, err
		}
		opts.Bias = b
	}
	return opts, cellsIn(o.Iterations, start, end), nil
}

// ErrStopped is returned by RunRangeStream when the stop channel
// closed before every cell of the range was delivered.
var ErrStopped = errors.New("sim: run stopped before completing its range")

// RunRangeStream executes the iterations of [start, end) like RunRange
// but delivers each cell's Partial on out as soon as its cell
// completes — in completion order, not index order — so a consumer can
// merge and act on partials while later cells still run. The adaptive
// runs are built on this: the stopping rule is re-checked as partials
// land instead of waiting on a barrier merge.
//
// out is closed before RunRangeStream returns. A close of stop (nil
// for non-cancellable runs) abandons cells not yet started and
// undelivered results; RunRangeStream then returns ErrStopped. Cell
// contents are identical to RunRange's — only the delivery order
// varies with the schedule.
func RunRangeStream(p ArrayParams, o Options, start, end int, out chan<- Partial, stop <-chan struct{}) error {
	defer close(out)
	opts, cells, err := prepareRange(&p, &o, start, end)
	if err != nil {
		return err
	}
	delivered := runCells(&p, opts, cells, stop, func(_ int, pt Partial) bool {
		select {
		case out <- pt:
			return true
		case <-stop:
			return false
		}
	})
	if delivered != len(cells) {
		return ErrStopped
	}
	return nil
}

// RunRange executes the iterations of [start, end) and returns one
// Partial per canonical cell, in cell order. The bounds must lie on
// cell boundaries of the full run (CellSize(o.Iterations)); end ==
// o.Iterations is always a valid boundary. Cells are computed in
// parallel across Options.Workers goroutines, but each cell is
// accumulated sequentially, so the returned partials do not depend on
// the schedule. The cell contents are identical to RunRangeStream's.
func RunRange(p ArrayParams, o Options, start, end int) ([]Partial, error) {
	opts, cells, err := prepareRange(&p, &o, start, end)
	if err != nil {
		return nil, err
	}
	parts := make([]Partial, len(cells))
	runCells(&p, opts, cells, nil, func(ci int, pt Partial) bool {
		parts[ci] = pt
		return true
	})
	return parts, nil
}

// runCells is the one cell loop behind RunRange and RunRangeStream: it
// computes cells on up to opts.Workers scratches, hands each Partial
// to emit with its cell index, and returns how many emits succeeded.
// emit may run concurrently on several workers. A worker abandons the
// range when emit returns false or stop closes (a nil stop never
// does). A single worker walks the cells inline, in cell order, with
// no goroutine; the scratch and cell order are the same either way,
// so the partials are bit-identical.
func runCells(p *ArrayParams, opts Options, cells []Range, stop <-chan struct{}, emit func(ci int, pt Partial) bool) int {
	histMax := histMaxFor(opts)
	var next, done atomic.Int64
	work := func() {
		sc := newScratch(p, opts.Kernel, opts.noBatch, opts.Bias)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ci := int(next.Add(1)) - 1
			if ci >= len(cells) || !emit(ci, sc.runCell(cells[ci], opts, histMax)) {
				return
			}
			done.Add(1)
		}
	}
	workers := min(opts.Workers, len(cells))
	if workers == 1 {
		work()
		return int(done.Load())
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return int(done.Load())
}

// Summarize folds partials covering [0, o.Iterations) into a Summary.
// It enforces exactly-once merging: the partials, sorted by Start,
// must tile the run with no gap, overlap or duplicate, each must carry
// exactly End-Start observations, and each must have been produced
// under the same seed and mission time. Partials produced along the
// canonical cell boundaries (RunRange output, in any grouping) fold in
// a fixed order, so the Summary is bit-identical however the run was
// partitioned.
func Summarize(o Options, parts []Partial) (Summary, error) {
	if err := o.Validate(); err != nil {
		return Summary{}, err
	}
	opts := o.withDefaults()
	if len(parts) == 0 {
		return Summary{}, fmt.Errorf("sim: no partials to summarize")
	}
	sorted := append([]Partial(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End < sorted[j].End
	})

	var acc, du, dl stats.Accumulator
	var wav, wdu, wdl stats.WeightedAccumulator
	var events EventCounts
	var downIters int64
	var hist *stats.Histogram
	biased := opts.Biased()
	biasFactor := 0.0
	cursor := 0
	for i := range sorted {
		pt := &sorted[i]
		if pt.Seed != opts.Seed {
			return Summary{}, fmt.Errorf("sim: partial [%d,%d) ran under seed %d, want %d",
				pt.Start, pt.End, pt.Seed, opts.Seed)
		}
		if pt.MissionTime != opts.MissionTime {
			return Summary{}, fmt.Errorf("sim: partial [%d,%d) ran under mission time %v, want %v",
				pt.Start, pt.End, pt.MissionTime, opts.MissionTime)
		}
		if pt.End <= pt.Start || pt.End > opts.Iterations {
			return Summary{}, fmt.Errorf("sim: invalid partial range [%d,%d)", pt.Start, pt.End)
		}
		if pt.Start < cursor {
			return Summary{}, fmt.Errorf("sim: partial [%d,%d) duplicates or overlaps iterations before %d",
				pt.Start, pt.End, cursor)
		}
		if pt.Start > cursor {
			return Summary{}, fmt.Errorf("sim: iterations [%d,%d) missing from partials", cursor, pt.Start)
		}
		if got, want := pt.Avail.N(), int64(pt.End-pt.Start); got != want {
			return Summary{}, fmt.Errorf("sim: partial [%d,%d) carries %d observations, want %d",
				pt.Start, pt.End, got, want)
		}
		if biased {
			if pt.Bias <= 0 || pt.WAvail == nil || pt.WDownDU == nil || pt.WDownDL == nil {
				return Summary{}, fmt.Errorf("sim: partial [%d,%d) carries no importance weights for a biased run",
					pt.Start, pt.End)
			}
			if biasFactor == 0 {
				biasFactor = pt.Bias
			} else if pt.Bias != biasFactor {
				return Summary{}, fmt.Errorf("sim: partial [%d,%d) sampled under bias %v, want %v",
					pt.Start, pt.End, pt.Bias, biasFactor)
			}
			if got, want := pt.WAvail.N(), int64(pt.End-pt.Start); got != want {
				return Summary{}, fmt.Errorf("sim: partial [%d,%d) carries %d weighted observations, want %d",
					pt.Start, pt.End, got, want)
			}
			wav.Merge(pt.WAvail)
			wdu.Merge(pt.WDownDU)
			wdl.Merge(pt.WDownDL)
		} else if pt.Bias != 0 {
			return Summary{}, fmt.Errorf("sim: partial [%d,%d) sampled under bias %v in an unbiased run",
				pt.Start, pt.End, pt.Bias)
		}
		acc.Merge(&pt.Avail)
		du.Merge(&pt.DownDU)
		dl.Merge(&pt.DownDL)
		downIters += pt.DownIters
		events.Merge(pt.Events)
		if pt.Hist != nil {
			if hist == nil {
				h := *pt.Hist
				h.Counts = append([]int64(nil), pt.Hist.Counts...)
				hist = &h
			} else {
				if pt.Hist.Lo != hist.Lo || pt.Hist.Hi != hist.Hi || len(pt.Hist.Counts) != len(hist.Counts) {
					return Summary{}, fmt.Errorf("sim: partial [%d,%d) carries a histogram binned [%v,%v)x%d, want [%v,%v)x%d",
						pt.Start, pt.End, pt.Hist.Lo, pt.Hist.Hi, len(pt.Hist.Counts), hist.Lo, hist.Hi, len(hist.Counts))
				}
				hist.Merge(pt.Hist)
			}
		}
		cursor = pt.End
	}
	if cursor != opts.Iterations {
		return Summary{}, fmt.Errorf("sim: iterations [%d,%d) missing from partials", cursor, opts.Iterations)
	}

	avail := acc.Mean()
	halfWidth := acc.HalfWidth(opts.Confidence)
	meanDU, meanDL := du.Mean(), dl.Mean()
	ess, availHT := 0.0, 0.0
	if biased {
		// A biased run reports the self-normalized weighted estimates;
		// the weighted fold above walks the same cell order as the
		// unweighted one, so it is equally partition-independent.
		avail = wav.Mean()
		halfWidth = wav.HalfWidth(opts.Confidence)
		meanDU, meanDL = wdu.Mean(), wdl.Mean()
		ess = wav.ESS()
		availHT = wav.MeanHT()
	}
	// Converged is the stopping rule's own verdict — with its
	// effective-N safeguards — not a raw half-width comparison: a
	// zero-variance or event-starved stream reports half-width 0 but
	// must never be certified as converged (the fold here reproduces
	// the StopScan accumulator bit for bit, so the verdict matches the
	// scan's at the stopping boundary). Biased runs judge the weighted
	// stream at ESS-based effective degrees of freedom.
	converged := false
	if opts.TargetHalfWidth > 0 {
		rule := stats.StopRule{TargetHalfWidth: opts.TargetHalfWidth, Confidence: opts.Confidence}
		if biased {
			converged = rule.MetWeighted(&wav)
		} else {
			converged = rule.Met(&acc, downIters)
		}
	}
	return Summary{
		Availability:      avail,
		HalfWidth:         halfWidth,
		Nines:             stats.Nines(avail),
		MeanDowntimeDU:    meanDU,
		MeanDowntimeDL:    meanDL,
		Iterations:        opts.Iterations,
		MissionTime:       opts.MissionTime,
		Confidence:        opts.Confidence,
		TargetHalfWidth:   opts.TargetHalfWidth,
		Converged:         converged,
		Events:            events,
		Bias:              biasFactor,
		ESS:               ess,
		AvailabilityHT:    availHT,
		DowntimeHistogram: hist,
	}, nil
}
