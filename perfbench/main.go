// Command perfbench is the repository's benchmark: one workload per
// run, measured end to end (--trace 0) or layer by layer (--trace 1).
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"
)

// tally is what a run attempted, what failed, and every output check
// that did not hold.
type tally struct {
	attempted, failed int64
	mismatch          []string
}

func main() {
	name := flag.String("workload", "", "workload to run: sim-sweep, live-hot or live-coop")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured part of the run, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced pass that reports per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds time.Duration, traced bool) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	rep := newReport()
	var t tally
	switch {
	case traced:
		t, err = runTraced(w, seed, seconds, rep)
	case w.live == nil:
		t, err = runSimSweep(w, seed, seconds, rep)
	default:
		t, err = runLive(w, seed, seconds, rep)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s (seed %d, %s, trace=%v):\n", w.name, seed, seconds, traced)
	rep.print(os.Stdout)
	fmt.Printf("  error_rate %.6g (%d failed of %d attempted)\n", ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	for _, m := range t.mismatch {
		fmt.Println("  OUTPUT MISMATCH:", m)
	}
	if err := writeResult(os.Stdout, rep.result(len(t.mismatch) == 0, t.attempted, t.failed)); err != nil {
		return err
	}
	if len(t.mismatch) > 0 {
		return fmt.Errorf("%d output checks failed: %s", len(t.mismatch), strings.Join(t.mismatch, "; "))
	}
	return nil
}

// ratio is a/b, or 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
