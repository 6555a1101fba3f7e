// Command hccperf is hccsim's host-time benchmark: how long the simulator
// takes and how much memory it holds while it reruns the paper's study.
// Simulated results are not measured here; they are checked against
// recorded reference digests, and a mismatch counts as a failed operation.
//
// Usage, from the repository root:
//
//	bash hccperf/run.sh --workload <figures|serve|sweep|trace|all> --seed N --seconds S --trace 0|1
//
// Each repetition runs in a fresh child process, so per-process memos never
// leak from one repetition into the next. The parent repeats children for
// --seconds and reports medians. With --trace 1 it alternates untraced and
// traced children and reports per-layer metrics instead: CPU-profile
// seconds folded by hccsim layer, the benchmark's own spans around each
// layer call, and the layers' counters. The last line of standard output
// is one JSON object; see README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: figures, serve, sweep, trace, or all")
		seed     = flag.Int64("seed", 0, "seed for the workload's inputs (serve arrivals and lengths, sweep bandwidths)")
		seconds  = flag.Int("seconds", 30, "how long to keep starting repetitions")
		traced   = flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
		out      = flag.String("out", ".bench_build/hccperf-out", "directory for profiles, spans and sweep caches")
		rec      = flag.String("record", "", "regenerate the reference digests into this directory and exit")
		child    = flag.String("child", "", "internal: run one repetition (run or figtime) and print its result")
	)
	flag.Parse()

	var err error
	switch {
	case *rec != "":
		err = record(*rec)
	case *child != "":
		err = runChild(*child, *workload, *seed, *traced == 1, *out)
	default:
		err = runParent(*workload, *seed, *seconds, *traced == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hccperf:", err)
		os.Exit(1)
	}
}
