package main

import (
	"fmt"
	"runtime"
	"time"

	"webcache/internal/core"
	"webcache/internal/netmodel"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// pinnedDigests holds the results digest of the sim-sweep figure
// point (resultsDigest over every scheme) for the seeds the benchmark
// is usually run with.  It moves only when simulator results do; a
// change that means to move them re-pins it from the digest each run
// prints.
var pinnedDigests = map[int64]string{
	1:   "dd635a1a1ef22643aecfa80fbea0f454c97880d7fe520dd077c79b9c8d65a5f5",
	2:   "39f138fad58cde6b725534345141bf444cc4491984add09a756855dba50a92c4",
	3:   "fd71be435b4c76dc740e54ef4487d92b58ec69d92ca446a883d39dd6956cf401",
	4:   "bc78bb9d354c796fd90b7068d4de065701d6fff4bda51979c22a8dfd7c4e7102",
	5:   "ef2f566e86a940f639360db4c769bbcb5510737d4015aab43e16f63c0ab125a4",
	6:   "e1e3eae5007d4aff144ebcc6fcc8056fb9b6672dea49b06380004b688fc23e0b",
	7:   "3be97e8b1c4bcecc082350ee53a4cff0cc091a93fc41b59d0f06082930605d1e",
	8:   "3c555f8215eeabf1403fc22d17cb5f591542b83b5f7b63b22a994aa939a4b070",
	9:   "d1d5283ebd8363552b7204086a7649a06f2cc4c3eabb8da8233c0a3745a521ed",
	10:  "397128e3532d1fe4d4ebd7442210baab7857da3ed5fee3a72692c14c69b4cd02",
	101: "fd72d2cffe1bf07d4301214542f52af50ffb742dc42d1dc252ab6330c295869a",
	102: "a7a6d1a5b446eae52f69bfdc88a5643080c81e3557e29bb5ec1653b96fda5ef8",
	103: "294bfb51c445455930a85cb3824433e7073a13ca7797200b8383e35f8b6f9c58",
	104: "49bc21903d6a7790ee5356db2b23fca09955a8f89509f0ddbed7289bf6afca99",
	105: "7859195c96996b7e90099fef07e04227f8b9f016bcd002104f7d309ae5d29e88",
	106: "d942061caab924d5ca3df011e267b64c409dc2cf25129ad153c390ef62af95e8",
	107: "f0e2cf6a71a44e298bb88da27fc0dea8e4c2a9651ee160a7eff79817d25a5ce1",
	108: "589172969059911737ca35306d2e8cde6133fb723077a6f1b83a8da4d52e2e3b",
	109: "d6b21d89970e2a823bf317ee72e4d6e576f21061dd58fe44706f21dcbae8a733",
	110: "c945771dab7682533dc4aa476cf9eea1b7cb35e2b548beb7732c5c01eff8d9cb",
}

// referenceSeed is the pinned seed whose figure point a run on an
// unpinned seed replays to check the simulator against a known answer.
const referenceSeed = 1

// sweep replays tr under every config on the work-stealing scheduler
// with the benchmark's worker count.  busy, when non-nil, receives
// each job's wall time.  failed counts replays that returned an error
// (their Result is nil).
func sweep(tr *trace.Trace, cfgs []sim.Config, busy []time.Duration) (results []*sim.Result, wall time.Duration, steals int64, failed int) {
	results = make([]*sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	t0 := time.Now()
	steals = core.RunJobs(workers, len(cfgs), func(j int) {
		s := time.Now()
		results[j], errs[j] = sim.Run(tr, cfgs[j])
		if busy != nil {
			busy[j] = time.Since(s)
		}
	})
	wall = time.Since(t0)
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	return results, wall, steals, failed
}

// pinCheck compares digest, the figure point's results digest for
// seed, with the pinned one.  A seed without a pinned digest replays
// referenceSeed's figure point once instead and compares that.
func pinCheck(w *workload, seed int64, digest string) error {
	if want, ok := pinnedDigests[seed]; ok {
		if digest != want {
			return fmt.Errorf("seed %d results digest %s, pinned %s", seed, digest, want)
		}
		return nil
	}
	cfg := w.trace
	cfg.Seed = referenceSeed
	tr, _, err := makeTrace(cfg)
	if err != nil {
		return err
	}
	results, _, _, failed := sweep(tr, sweepConfigs(referenceSeed), nil)
	if failed > 0 {
		return fmt.Errorf("reference seed %d: %d scheme replays failed", referenceSeed, failed)
	}
	got, err := resultsDigest(results)
	if err != nil {
		return err
	}
	if want := pinnedDigests[referenceSeed]; got != want {
		return fmt.Errorf("reference seed %d results digest %s, pinned %s", referenceSeed, got, want)
	}
	return nil
}

// runSimSweep is the untraced sim-sweep run: set up (generate, encode,
// decode) as moreSetups asks, then regenerate the figure point — every
// scheme over the trace on the scheduler — until seconds have passed.
// Every sweep must produce the same results digest, and it must match
// the pinned one (pinCheck).
func runSimSweep(w *workload, seed int64, seconds time.Duration, rep *report) (tally, error) {
	var t tally
	cfg := w.trace
	cfg.Seed = seed
	var setups []float64
	var tr *trace.Trace
	for moreSetups(setups) {
		// Each set-up starts from a collected heap, so the peak resident
		// set does not depend on when the collector last ran.
		runtime.GC()
		t0 := time.Now()
		next, _, err := makeTrace(cfg)
		if err != nil {
			return t, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if tr != nil && trace.Fingerprint(next) != trace.Fingerprint(tr) {
			return t, fmt.Errorf("trace generation is not deterministic for seed %d", seed)
		}
		tr = next
	}

	cfgs := sweepConfigs(seed)
	perSweep := float64(len(cfgs) * tr.Len())
	var walls []time.Duration
	var rates []float64
	var first string
	var last []*sim.Result
	cpu0 := cpuTime()
	deadline := time.Now().Add(seconds)
	for len(walls) < 2 || time.Now().Before(deadline) {
		results, wall, _, failed := sweep(tr, cfgs, nil)
		t.attempted += int64(len(cfgs))
		t.failed += int64(failed)
		walls = append(walls, wall)
		rates = append(rates, perSweep/wall.Seconds())
		if failed > 0 {
			continue
		}
		d, err := resultsDigest(results)
		if err != nil {
			return t, err
		}
		if first == "" {
			first = d
		} else if d != first {
			t.mismatch = append(t.mismatch, fmt.Sprintf("sweep %d digest %s differs from the first sweep's %s", len(walls), d, first))
		}
		last = results
	}
	cpu := cpuTime() - cpu0
	if err := pinCheck(w, seed, first); err != nil {
		t.mismatch = append(t.mismatch, err.Error())
	}
	if _, ok := pinnedDigests[seed]; !ok {
		fmt.Printf("sim-sweep: no pinned digest for seed %d; replayed reference seed %d against its pinned digest\n", seed, referenceSeed)
	}
	fmt.Printf("sim-sweep: %d requests x %d schemes per sweep, %d sweeps on %d workers, results digest %s\n",
		tr.Len(), len(cfgs), len(walls), workers, first)

	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups (generate, encode, decode)", len(setups)))
	rep.add("throughput_rps", median(rates), "req/s", fmt.Sprintf("replay_rps: median over %d sweeps of requests x schemes / wall", len(rates)))
	sw := summarize(walls)
	rep.add("p50_ms", float64(sw.P50)/1e6, "ms", fmt.Sprintf("median sweep wall time, n=%d", sw.N))
	if last != nil {
		hier := last[sim.HierGD]
		rep.add("hit_ratio", 1-hier.HitRatio(netmodel.SrcServer), "fraction", "Hier-GD, 1 - origin share")
	}
	rep.add("cpu_us_per_req", cpu.Seconds()*1e6/(perSweep*float64(len(walls))), "us", "process CPU per replayed request")
	rep.add("peak_rss_mb", peakRSSMiB(), "MiB", "")
	return t, nil
}
