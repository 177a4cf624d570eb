// Package herald evaluates the impact of human errors on the
// availability of data storage systems. It is an open reproduction of
// Kishani, Eftekhari & Asadi, "Evaluating Impact of Human Errors on
// the Availability of Data Storage Systems" (DATE 2017).
//
// # What it provides
//
//   - Analytic Markov availability models of RAID arrays under the
//     conventional disk replacement policy (paper Fig. 2) and the
//     automatic fail-over / delayed replacement policy with a hot
//     spare (paper Fig. 3), both extended with the human error states
//     (wrong disk replacement) the paper introduces.
//   - A Monte-Carlo reference simulator (paper §III) supporting
//     arbitrary time-to-failure laws — exponential and Weibull in the
//     paper — and both replacement policies, in one process or sharded
//     across worker processes.
//   - RAID geometry planning for equal-usable-capacity comparisons
//     (paper §V-C).
//
// This package is the small surface the programs under examples/ use.
// The reproduction harness that regenerates every figure of the
// paper's evaluation is cmd/repro; the dual-parity model, MTTDL, the
// other distribution families, kernel and bias selection and the shard
// fabric are reached through cmd/availcalc, cmd/availsim and
// cmd/availserve, or by importing the internal packages from within
// this module.
//
// # Quick start
//
//	res, err := herald.SolveConventional(herald.PaperParams(4, 1e-6, 0.001))
//	if err != nil { ... }
//	fmt.Printf("availability: %.3f nines\n", res.Nines())
//
// All rates are per hour. See the README for the simulator's design.
package herald

import (
	"herald/internal/dist"
	"herald/internal/model"
	"herald/internal/raid"
	"herald/internal/shard"
	"herald/internal/sim"
	"herald/internal/stats"
)

// Version identifies the library release.
const Version = "1.0.0"

// ---------------------------------------------------------------------
// Analytic (Markov) models
// ---------------------------------------------------------------------

// ConventionalParams parameterizes the conventional-replacement Markov
// model (paper Fig. 2). See the field docs in internal/model.
type ConventionalParams = model.Params

// FailoverParams parameterizes the automatic fail-over Markov model
// (paper Fig. 3).
type FailoverParams = model.FailoverParams

// ModelResult is a solved availability model: steady-state
// probabilities, availability, and the DU/DL unavailability breakdown.
type ModelResult = model.Result

// PaperParams returns the paper's §V-B defaults (muDF=0.1, muDDF=0.03,
// muHE=1, lambdaCrash=0.01, post-undo resync enabled) for an n-disk
// array with per-disk failure rate lambda (1/h) and human error
// probability hep.
func PaperParams(n int, lambda, hep float64) ConventionalParams {
	return model.Paper(n, lambda, hep)
}

// PaperFailoverParams returns the fail-over defaults (PaperParams plus
// muS=0.1, muCH=1, full Fig. 3 structure).
func PaperFailoverParams(n int, lambda, hep float64) FailoverParams {
	return model.PaperFailover(n, lambda, hep)
}

// SolveConventional builds and solves the conventional-replacement
// model. Up states: OP, EXP.
func SolveConventional(p ConventionalParams) (*ModelResult, error) {
	return model.Conventional(p)
}

// SolveFailover builds and solves the automatic fail-over model.
func SolveFailover(p FailoverParams) (*ModelResult, error) {
	return model.Failover(p)
}

// UnderestimationRatio returns unavail(hep)/unavail(0) for the given
// configuration: the factor by which a human-error-blind model
// underestimates downtime (the paper's headline is up to 263x).
func UnderestimationRatio(p ConventionalParams) (float64, error) {
	return model.UnderestimationRatio(p)
}

// FleetAvailability composes count identical independent arrays in
// series: availability^count.
func FleetAvailability(arrayAvailability float64, count int) float64 {
	return model.FleetAvailability(arrayAvailability, count)
}

// ---------------------------------------------------------------------
// Monte-Carlo simulation
// ---------------------------------------------------------------------

// SimParams describes an array for Monte-Carlo simulation; unlike the
// Markov models it accepts arbitrary distributions.
type SimParams = sim.ArrayParams

// SimOptions controls iteration count, mission time, seed, parallelism
// and confidence level. A positive TargetHalfWidth makes the run
// adaptive (precision-targeted): it stops at the first canonical cell
// boundary where the availability CI half-width reaches the target —
// see the README's "Adaptive precision" section.
type SimOptions = sim.Options

// SimSummary is a Monte-Carlo result with availability, confidence
// half-width and event counts.
type SimSummary = sim.Summary

// Replacement policies for SimParams.Policy.
const (
	// PolicyConventional replaces the failed disk while exposed.
	PolicyConventional = sim.Conventional
	// PolicyAutoFailover rebuilds onto a hot spare first.
	PolicyAutoFailover = sim.AutoFailover
	// PolicyDualParity is conventional replacement on a RAID6-style
	// array tolerating two concurrent losses.
	PolicyDualParity = sim.DualParity
)

// PaperSimParams returns the simulator defaults matching PaperParams.
func PaperSimParams(n int, lambda, hep float64) SimParams {
	return sim.PaperDefaults(n, lambda, hep)
}

// Simulate runs the Monte-Carlo reference model. Adaptive options
// (SimOptions.TargetHalfWidth) stop the run at the requested CI
// precision; the Summary's Iterations, TargetHalfWidth and Converged
// fields report where and whether it stopped.
func Simulate(p SimParams, o SimOptions) (SimSummary, error) { return sim.Run(p, o) }

// MaybeShardWorker turns this process into a shard worker when it was
// spawned by a sharded coordinator (SimulateSharded execs the current
// binary). Call it first thing in main() of any program that uses
// SimulateSharded; it returns immediately otherwise.
func MaybeShardWorker() { shard.MaybeWorker() }

// SimulateSharded runs the Monte-Carlo model partitioned into shards
// executed by workerProcs local single-threaded worker processes
// (0 = one per core). The Summary is bit-identical to Simulate with
// the same parameters, whatever the shard and worker counts; an
// optional non-empty checkpoint path makes the run resumable after a
// kill. The calling binary's main must start with MaybeShardWorker.
func SimulateSharded(p SimParams, o SimOptions, shards, workerProcs int, checkpoint string) (SimSummary, error) {
	workers, err := shard.SpawnLocal(workerProcs)
	if err != nil {
		return SimSummary{}, err
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	pool, err := shard.NewPool(workers, nil, nil)
	if err != nil {
		return SimSummary{}, err
	}
	defer pool.Close()
	tk, err := pool.Submit(shard.RunSpec{Params: p, Options: o, Shards: shards, Checkpoint: checkpoint}, nil)
	if err != nil {
		return SimSummary{}, err
	}
	res, err := tk.Wait()
	return res.Summary, err
}

// ---------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------

// Distribution is the sampling interface consumed by the simulator.
type Distribution = dist.Distribution

// Weibull returns a Weibull law with the given shape and scale (h).
func Weibull(shape, scale float64) Distribution { return dist.NewWeibull(shape, scale) }

// WeibullFromMeanRate returns the Weibull law with the given shape
// whose mean time to failure is 1/rate, as used in the paper's Fig. 5.
func WeibullFromMeanRate(rate, shape float64) Distribution {
	return dist.WeibullFromMeanRate(rate, shape)
}

// ---------------------------------------------------------------------
// RAID geometry
// ---------------------------------------------------------------------

// RAIDConfig is an array geometry (level, data disks, parity disks).
type RAIDConfig = raid.Config

// Fleet is a set of identical arrays meeting a usable-capacity target.
type Fleet = raid.Fleet

// Paper geometries.
var (
	// RAID1Mirror is RAID1 (1+1).
	RAID1Mirror = raid.R1Mirror
	// RAID5Small is RAID5 (3+1).
	RAID5Small = raid.R5Small
	// RAID5Wide is RAID5 (7+1).
	RAID5Wide = raid.R5Wide
)

// PlanFleet returns the smallest fleet of identical arrays reaching
// the usable capacity (in disk units).
func PlanFleet(c RAIDConfig, usableDisks int) (Fleet, error) {
	return raid.PlanFleet(c, usableDisks)
}

// EquivalentCapacity returns the least usable capacity every supplied
// geometry divides evenly (the paper's fair comparison point).
func EquivalentCapacity(configs ...RAIDConfig) (int, error) {
	return raid.EquivalentCapacity(configs...)
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

// Nines converts availability to -log10(1-A).
func Nines(availability float64) float64 { return stats.Nines(availability) }

// DowntimeHoursPerYear converts availability to expected yearly
// downtime hours.
func DowntimeHoursPerYear(availability float64) float64 {
	return stats.DowntimeHoursPerYear(availability)
}
