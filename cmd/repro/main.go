// Command repro regenerates the paper's evaluation figures as tables.
//
// Examples:
//
//	repro                      # every figure, laptop scale
//	repro -fig 6               # only Fig. 6 (RAID ranking)
//	repro -fig 4 -iters 100000 # Fig. 4 at near-paper Monte-Carlo scale
//	repro -fig 5 -csv          # Fig. 5 as CSV
//	repro -full                # paper-scale 1e6-iteration sweep,
//	                           # sharded across all cores
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"herald/internal/prof"
	"herald/internal/repro"
	"herald/internal/shard"
	"herald/internal/sim"
)

// parseBiasFlag maps the -bias token onto an Options.Bias value,
// naming the flag in the error so a bad value reads as a flag problem
// rather than an internal one.
func parseBiasFlag(s string) (float64, error) {
	v, err := sim.ParseBias(s)
	if err != nil {
		return 0, fmt.Errorf("-bias must be \"auto\" or a factor in [1, 1e15], got %q", s)
	}
	return v, nil
}

func main() {
	// -full shards across sibling processes of this binary.
	shard.MaybeWorker()

	var (
		fig        = flag.String("fig", "all", "experiment id: "+strings.Join(repro.All(), ", ")+" or all")
		iters      = flag.Int("iters", 0, "Monte-Carlo iterations per point (0 = default 4000; paper used 1e6)")
		mission    = flag.Float64("mission", 0, "mission time per iteration in hours (0 = default 1e6)")
		seed       = flag.Uint64("seed", 0, "PRNG seed (0 = default)")
		workers    = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS); with -full, the worker-process count")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		full       = flag.Bool("full", false, "run the paper-scale sweep (policies x HEP at 1e6 iterations/point) pipelined across all cores")
		targetHW   = flag.Float64("target-halfwidth", 0, "with -full: stop each point at this CI half-width instead of the full iteration count (adaptive sequential sampling; -iters becomes the cap)")
		bias       = flag.String("bias", "", "with -full: failure-biased importance sampling — an inflation factor in [1, 1e15], or auto to pick one per point from its failure/repair rate ratio (empty = off)")
		undoLaws   = flag.Bool("undo-laws", false, "shorthand for -fig undo-laws: compare hyper-exponential / lognormal human-error undo latencies against the paper's exponential assumption")
		confidence = flag.Float64("confidence", 0, "confidence level for the intervals (0 = default 0.99 as in the paper)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof format)")
		memProfile = flag.String("memprofile", "", "write an allocation heap profile to this file after the run (go tool pprof format)")
	)
	flag.Parse()

	// Validated here rather than deep inside a figure run: an
	// out-of-range level (including NaN) otherwise only surfaces after
	// the Monte-Carlo work is already done.
	if *confidence != 0 && !(*confidence > 0 && *confidence < 1) {
		fmt.Fprintf(os.Stderr, "repro: -confidence must be inside (0,1), got %v\n", *confidence)
		os.Exit(1)
	}

	biasF, err := parseBiasFlag(*bias)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}

	o := repro.Options{
		MCIterations:    *iters,
		MissionTime:     *mission,
		Seed:            *seed,
		Workers:         *workers,
		TargetHalfWidth: *targetHW,
		Confidence:      *confidence,
		Bias:            biasF,
	}

	if *targetHW != 0 && !*full {
		fmt.Fprintln(os.Stderr, "repro: -target-halfwidth requires -full")
		os.Exit(1)
	}
	if biasF != 0 && !*full {
		fmt.Fprintln(os.Stderr, "repro: -bias requires -full")
		os.Exit(1)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
	if *full {
		if err := repro.Full(o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		return
	}

	ids := repro.All()
	if *undoLaws {
		if *fig != "all" {
			fmt.Fprintln(os.Stderr, "repro: -undo-laws and -fig are mutually exclusive (use -fig undo-laws to combine with nothing else)")
			os.Exit(1)
		}
		ids = []string{repro.ExpUndoLaws}
	} else if *fig != "all" {
		ids = []string{*fig}
	}
	for _, id := range ids {
		tables, err := repro.Run(id, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			if *csv {
				if err := t.CSV(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, "repro:", err)
					os.Exit(1)
				}
			} else if _, err := t.WriteTo(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "repro:", err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}
