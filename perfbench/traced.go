package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// simSweepLiveWindow is the length of each open-loop window
// sim-sweep's traced run drives through the live topology.
const simSweepLiveWindow = 1500 * time.Millisecond

// tracedPairs is how many unrecorded/recorded window pairs the live
// part of a traced run alternates; the tracing overhead compares the
// medians of the two sides, so a drift in the machine's speed during
// the run does not read as overhead.
const tracedPairs = 3

// runTraced is the traced run.  It reports every per-layer metric for
// the workload, from outside the program: timed calls into each
// layer's public functions, handler wrappers on every daemon,
// ProxyStats deltas and runtime.MemStats.
//
// Every workload's traced run has the same three parts, so every layer
// has a number on every workload:
//   - set-up, once, with generation, encoding and decoding timed apart;
//   - the simulator layers: every scheme replayed serially over the
//     trace, then on the scheduler, alternating untimed and timed jobs;
//   - the live layers: a topology warmed with the trace's head, then
//     open-loop windows at the nominal rate, alternately with the
//     handler wrappers recording and not.
//
// On sim-sweep the live part serves the head of the sim-sweep trace
// with live-coop's deployment; on the live workloads the simulator
// part replays the live trace under the deployment's mirrored
// configuration.  The part that is the workload's own path reports the
// runtime metrics and the tracing overhead.
func runTraced(w *workload, seed int64, seconds time.Duration, rep *report) (tally, error) {
	var t tally
	spec, window := w.live, seconds/2/tracedPairs
	if spec == nil {
		spec, window = liveCoop, simSweepLiveWindow
	}
	rng := rand.New(rand.NewSource(seed))
	var windows [][]time.Duration
	liveNeed := warmupRequests
	for i := 0; i < 2*tracedPairs; i++ {
		windows = append(windows, dueTimes(spec.nominal, window, rng))
		liveNeed += len(windows[i])
	}

	cfg := w.trace
	cfg.Seed = seed
	if w.live != nil {
		cfg.NumRequests = liveNeed
	}
	tr, tt, err := makeTrace(cfg)
	if err != nil {
		return t, err
	}
	n := float64(tr.Len())
	rep.add("prowgen.generate_s", tt.gen.Seconds(), "s", fmt.Sprintf("n=%d requests", tr.Len()))
	rep.add("trace.encode_ns_per_req", float64(tt.enc.Nanoseconds())/n, "ns", "trace.WriteBinary")
	rep.add("trace.decode_ns_per_req", float64(tt.dec.Nanoseconds())/n, "ns", "trace.BatchReader")

	var cfgs []sim.Config
	if w.live == nil {
		cfgs = sweepConfigs(seed)
	} else {
		base := simConfig(w.live, tr, seed)
		for _, s := range sim.AllSchemes() {
			c := base
			c.Scheme = s
			cfgs = append(cfgs, c)
		}
	}
	digest := simLayers(tr, cfgs, rep, &t, w.live == nil)
	if w.live == nil {
		if err := pinCheck(w, seed, digest); err != nil {
			t.mismatch = append(t.mismatch, err.Error())
		}
	}

	liveTr := tr
	if w.live == nil {
		liveTr = tr.Slice(0, liveNeed)
	}
	if err := liveLayers(spec, liveTr, seed, windows, rep, &t, w.live != nil); err != nil {
		return t, err
	}
	return t, nil
}

// simLayers times sim.Run per scheme serially, then the same replays
// on core.RunJobs with and without per-job timing.  The scheduled
// results must equal the serial ones, whose digest it returns.
func simLayers(tr *trace.Trace, cfgs []sim.Config, rep *report, t *tally, primary bool) string {
	n := float64(tr.Len())
	var before, after runtime.MemStats
	serial := make([]*sim.Result, len(cfgs))
	var mallocs uint64
	for i, cfg := range cfgs {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		res, err := sim.Run(tr, cfg)
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		t.attempted++
		if err != nil {
			t.failed++
			continue
		}
		serial[i] = res
		mallocs += after.Mallocs - before.Mallocs
		rep.add("sim."+strings.ToLower(cfg.Scheme.String())+".ns_per_req", float64(d.Nanoseconds())/n, "ns", "serial sim.Run")
	}
	rep.add("sim.allocs_per_req", float64(mallocs)/(n*float64(len(cfgs))), "count", "serial runs, all schemes")
	if hier := serial[sim.HierGD]; hier != nil {
		rep.add("sim.hier-gd.p2p_lookups_per_req", ratio(float64(hier.P2P.Lookups), float64(hier.Requests)), "count", "")
		rep.add("sim.hier-gd.dir_false_positives", float64(hier.DirectoryFalsePositives), "count", "")
	}

	// Alternate untimed and timed sweeps; every one must match serial.
	want, _ := resultsDigest(serial)
	var plainWalls, walls []float64
	var busySum time.Duration
	var steals int64
	var gcPause, allocated uint64
	for i := 0; i < tracedPairs; i++ {
		plain, plainWall, _, f1 := sweep(tr, cfgs, nil)
		busy := make([]time.Duration, len(cfgs))
		runtime.ReadMemStats(&before)
		timed, wall, st, f2 := sweep(tr, cfgs, busy)
		runtime.ReadMemStats(&after)
		t.attempted += int64(2 * len(cfgs))
		t.failed += int64(f1 + f2)
		plainWalls = append(plainWalls, plainWall.Seconds())
		walls = append(walls, wall.Seconds())
		for _, b := range busy {
			busySum += b
		}
		steals += st
		gcPause += after.PauseTotalNs - before.PauseTotalNs
		allocated += after.TotalAlloc - before.TotalAlloc
		if f1+f2 > 0 || t.failed > 0 {
			continue
		}
		for name, res := range map[string][]*sim.Result{"scheduled": plain, "timed scheduled": timed} {
			if got, _ := resultsDigest(res); got != want {
				t.mismatch = append(t.mismatch, fmt.Sprintf("%s results digest %s differs from serial %s", name, got, want))
			}
		}
	}
	var wallSum float64
	for _, w := range walls {
		wallSum += w
	}
	rep.add("core.sweep.utilization", busySum.Seconds()/(wallSum*float64(workers)), "fraction",
		fmt.Sprintf("busy / (wall x %d workers), %d timed sweeps", workers, len(walls)))
	rep.add("core.sweep.steals", float64(steals)/float64(len(walls)), "count", "per timed sweep")
	if primary {
		reqs := n * float64(len(cfgs)) * float64(len(walls))
		rep.add("runtime.gc_pause_ms", float64(gcPause)/1e6/float64(len(walls)), "ms", "per timed sweep")
		rep.add("runtime.alloc_bytes_per_req", float64(allocated)/reqs, "B", "timed sweeps")
		rep.add("tracing.overhead_pct", 100*(median(walls)/median(plainWalls)-1), "%",
			fmt.Sprintf("median timed vs untimed sweep wall time, %d pairs", len(walls)))
	}
	return want
}

// liveLayers serves tr's head through a wrapped topology, alternating
// unrecorded and recorded windows, and reports the network layers from
// the recorded ones.
func liveLayers(spec *liveSpec, tr *trace.Trace, seed int64, windows [][]time.Duration, rep *report, t *tally, primary bool) error {
	recorded := 0
	for i := 1; i < len(windows); i += 2 {
		recorded += len(windows[i])
	}
	rec := newRecorder(recorded)
	e, err := startLive(spec, tr, seed, rec)
	if err != nil {
		return err
	}
	defer func() {
		e.close()
		t.addEnv(e)
	}()
	var out, unrecorded []outcome
	var plainP50s, recP50s []float64
	var st0, st1 httpcache.ProxyStats
	var gcPause, allocated uint64
	for i, due := range windows {
		if i%2 == 0 {
			o, err := e.run(due, -1)
			if err != nil {
				return err
			}
			lat, _ := timings(o)
			plainP50s = append(plainP50s, float64(summarize(lat).P50))
			unrecorded = append(unrecorded, o...)
			continue
		}
		before, err := proxyStats(e)
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rec.set(true)
		o, err := e.run(due, len(out))
		rec.set(false)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		after, err := proxyStats(e)
		if err != nil {
			return err
		}
		st0, st1 = addStats(st0, before), addStats(st1, after)
		gcPause += m1.PauseTotalNs - m0.PauseTotalNs
		allocated += m1.TotalAlloc - m0.TotalAlloc
		lat, _ := timings(o)
		recP50s = append(recP50s, float64(summarize(lat).P50))
		out = append(out, o...)
	}

	reqs := float64(len(out))
	ul, _ := timings(unrecorded)
	tail := summarize(ul)
	rep.add("driver.p99_ms", float64(tail.Tail)/1e6, "ms", fmt.Sprintf("%s from due time at %.0f req/s, unrecorded windows, n=%d", tail.tailLabel(), spec.nominal, tail.N))
	lat, late := timings(out)
	rep.add("driver.late_p99_ms", float64(summarize(late).Tail)/1e6, "ms", fmt.Sprintf("send time - due time, n=%d", len(late)))
	rep.add("driver.dials", float64(e.drv.dials.Load()), "count", "whole live part, warmup included")

	rec.mu.Lock()
	defer rec.mu.Unlock()
	fetch := &rec.hops[hopFetch]
	rep.addMicros("proxy.fetch.busy_p50_us", "proxy.fetch.busy_p99_us", summarize(fetch.busy))
	var wait []time.Duration
	for i, o := range out {
		if o.OK && rec.fetchBusy[i] > 0 {
			wait = append(wait, lat[i]-rec.fetchBusy[i])
		}
	}
	rep.addMicros("proxy.fetch.wait_p50_us", "", summarize(wait))
	for _, tier := range []string{httpcache.TierProxy, httpcache.TierClientCache, httpcache.TierRemoteProxy, httpcache.TierOrigin} {
		rep.addMicros("proxy.fetch."+strings.ReplaceAll(tier, "-", "_")+".busy_p50_us", "", summarize(fetch.byTier[tier]))
	}
	for _, h := range []struct {
		name, okName string
		k            hop
	}{
		{"proxy.peer_lookup", "hit_ratio", hopPeerLookup},
		{"cache.object", "hit_ratio", hopObject},
		{"cache.store", "stored_ratio", hopStore},
	} {
		l := &rec.hops[h.k]
		count := float64(len(l.busy))
		rep.add(h.name+".count_per_req", count/reqs, "count", fmt.Sprintf("n=%d of %d requests", len(l.busy), len(out)))
		rep.addMicros(h.name+".busy_p50_us", "", summarize(l.busy))
		rep.add(h.name+"."+h.okName, ratio(float64(l.ok), count), "fraction", "200 answers / attempts")
		rep.add(h.name+".conns_per_req", ratio(float64(len(l.remotes)), count), "count", "distinct RemoteAddr / attempts")
	}
	rep.add("proxy.origin_fetches_per_req", float64(st1.OriginFetch-st0.OriginFetch)/reqs, "count", "ProxyStats delta")
	rep.add("proxy.pass_downs_per_req", float64(st1.PassDowns-st0.PassDowns)/reqs, "count", "ProxyStats delta")
	rep.add("proxy.diversions_per_req", float64(st1.Diversions-st0.Diversions)/reqs, "count", "ProxyStats delta")
	rep.add("proxy.coalesced_per_req", float64(st1.CoalescedFetches-st0.CoalescedFetches)/reqs, "count", "ProxyStats delta")
	if primary {
		rep.add("runtime.gc_pause_ms", float64(gcPause)/1e6, "ms", fmt.Sprintf("%d recorded windows", len(recP50s)))
		rep.add("runtime.alloc_bytes_per_req", float64(allocated)/reqs, "B", "recorded windows")
		rep.add("tracing.overhead_pct", 100*(median(recP50s)/median(plainP50s)-1), "%",
			fmt.Sprintf("median p50 recorded vs unrecorded, %d pairs", len(recP50s)))
	}
	return nil
}

// proxyStats sums every proxy's /stats counters.
func proxyStats(e *liveEnv) (httpcache.ProxyStats, error) {
	var sum httpcache.ProxyStats
	for p := range e.topo.ProxyURLs {
		st, err := e.topo.ProxyStats(p)
		if err != nil {
			return sum, err
		}
		sum = addStats(sum, st)
	}
	return sum, nil
}

// addStats adds the counters the traced run reports.
func addStats(a, b httpcache.ProxyStats) httpcache.ProxyStats {
	a.OriginFetch += b.OriginFetch
	a.PassDowns += b.PassDowns
	a.Diversions += b.Diversions
	a.CoalescedFetches += b.CoalescedFetches
	return a
}
