package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"webcache/internal/httpcache"
	"webcache/internal/loadgen"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// requestTimeout bounds one driver request.  It is far above any
// latency limit, so a request that hits it has failed, not lagged.
const requestTimeout = 10 * time.Second

// liveEnv is a running live workload: the loopback topology, the
// trace it serves, and the driver's running tallies.  Warmup and the
// nominal windows issue the trace in order (run), so what they have
// issued is a trace prefix, which is what calibration replays; the
// climbs replay slices of a span after it (send).
type liveEnv struct {
	spec   *liveSpec
	tr     *trace.Trace
	simCfg sim.Config
	topo   *loadgen.Topology
	drv    *httpDriver

	// issued is the trace index of run's next request; pool is where
	// the climbs' span starts (climb).
	issued, pool           int
	attempted, failed, bad int64
	// tiers counts run's successful post-warmup serves by tier;
	// measured is their total.
	tiers    [loadgen.NumTiers]int
	measured int
}

// simConfig is the Hier-GD configuration the live topology mirrors:
// same proxies, same client caches, capacities planned from tr's
// first sizingRequests requests.
func simConfig(spec *liveSpec, tr *trace.Trace, seed int64) sim.Config {
	cfg := sim.Config{
		Scheme:            sim.HierGD,
		NumProxies:        numProxies,
		ClientsPerCluster: (tr.NumClients + numProxies - 1) / numProxies,
		P2PClientCaches:   cachesPerProxy,
		Directory:         sim.DirExact,
		ProxyCacheFrac:    min(spec.proxyFrac, 1),
		ClientCacheFrac:   spec.clientFrac,
		WarmupRequests:    warmupRequests,
		Seed:              seed,
	}
	proxyCap, clientCap := cfg.CapacityPlan(tr.Slice(0, min(tr.Len(), sizingRequests)))
	// The simulator caps the fraction at 1; a larger one scales the
	// plan, giving the proxies headroom beyond the prefix's population.
	for i := range proxyCap {
		proxyCap[i] = uint64(float64(proxyCap[i]) * max(spec.proxyFrac, 1))
	}
	cfg.ProxyCapacityOverride, cfg.ClientCapacityOverride = proxyCap, clientCap
	return cfg
}

// startLive stands the topology up, sized from tr, and warms it with
// the first warmupRequests requests.  rec, when non-nil, wraps every
// daemon's handler.
func startLive(spec *liveSpec, tr *trace.Trace, seed int64, rec *recorder) (*liveEnv, error) {
	e := &liveEnv{spec: spec, tr: tr, simCfg: simConfig(spec, tr, seed)}
	toBytes := func(units []uint64) []uint64 {
		out := make([]uint64, len(units))
		for i, u := range units {
			out[i] = u * uint64(spec.objectBytes)
		}
		return out
	}
	tc := loadgen.TopologyConfig{
		Proxies:            numProxies,
		CachesPerProxy:     cachesPerProxy,
		ProxyCapacityBytes: toBytes(e.simCfg.ProxyCapacityOverride),
		CacheCapacityBytes: toBytes(e.simCfg.ClientCapacityOverride),
		ObjectBytes:        spec.objectBytes,
	}
	if rec != nil {
		tc.WrapProxy = rec.wrapProxy
		tc.WrapCache = rec.wrapCache
	}
	topo, err := loadgen.StartLoopback(tc)
	if err != nil {
		return nil, fmt.Errorf("starting topology: %w", err)
	}
	e.topo = topo
	e.drv = newHTTPDriver(workers, requestTimeout)
	// Warmup is closed loop: every request is due at once, so each
	// worker sends its next as soon as the last completes.
	if _, err := e.run(make([]time.Duration, warmupRequests), -1); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// run issues the next len(due) trace requests in trace order (send)
// and counts their tiers.
func (e *liveEnv) run(due []time.Duration, seqBase int) ([]outcome, error) {
	out, err := e.send(e.issued, due, seqBase)
	if err != nil {
		return nil, err
	}
	if e.issued >= warmupRequests {
		for _, o := range out {
			if o.OK {
				e.tiers[loadgen.ParseTier(o.Tier)]++
				e.measured++
			}
		}
	}
	e.issued += len(due)
	return out, nil
}

// send issues trace requests from, from+1, ... at start+due[i] and
// tallies them.  seqBase >= 0 stamps request i with seqBase+i.  Only
// this call's requests are rendered into a schedule, so the driver's
// own heap stays small beside the daemons'.
func (e *liveEnv) send(from int, due []time.Duration, seqBase int) ([]outcome, error) {
	if from+len(due) > e.tr.Len() {
		return nil, fmt.Errorf("trace exhausted: %d requests due from %d, trace has %d",
			len(due), from, e.tr.Len())
	}
	sched, err := loadgen.BuildSchedule(e.tr.Slice(from, from+len(due)), e.topo.ProxyURLs, e.topo.OriginURL, e.simCfg.ProxyFor)
	if err != nil {
		return nil, err
	}
	reqs := sched.Requests
	out := runOpenLoop(wallClock{}, time.Now(), due, workers, func(i int) (string, bool, bool) {
		r := &reqs[i]
		s := -1
		if seqBase >= 0 {
			s = seqBase + i
		}
		tier, bad, err := e.drv.fetch(r.URL, s, func(b []byte) bool { return bodyOK(b, r.Object, e.spec.objectBytes) })
		return tier, err == nil && !bad, bad
	})
	for _, o := range out {
		e.attempted++
		if !o.OK {
			e.failed++
		}
		if o.Bad {
			e.bad++
		}
	}
	return out, nil
}

// calibrate compares the live tier mix with a simulator replay of the
// issued prefix under the mirrored configuration.  It is a report,
// never a gate.
func (e *liveEnv) calibrate() (*loadgen.CalibrationReport, error) {
	live := &loadgen.Result{Issued: e.issued, Measured: e.measured, Tiers: e.tiers}
	return loadgen.Calibrate(e.tr, live, e.simCfg, 0)
}

func (e *liveEnv) close() {
	e.drv.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.topo.Close(ctx)
}

// A live run holds the nominal rate for 30% of its time, in windows of
// windowRequests requests, then climbs the offered-load ladder until
// the time is up.  The first climb is a scout that takes every
// scoutStride-th rung from the nominal one; every later climb starts
// backoff rungs below the median maximum of the climbs before it, the
// scout's included, and takes every rung.  max_rps is the median of
// the later climbs.  Every figure is a median over windows or climbs,
// so one stalled second moves none of them.  The nominal windows come
// first, in the state warmup left, so the climbs' overload and the
// objects their span brings in do not leak into them.
const (
	windowRequests = 1000
	scoutStride    = 3
	backoff        = 6
	maxClimbs      = 40
	// A rung lasts at least stepMin, and at least stepRequests
	// requests, so an overload has time to build a backlog.
	stepMin      = 250 * time.Millisecond
	stepRequests = 500
	// climbPool is how many trace requests follow the nominal windows;
	// it keeps every live trace longer than sizingRequests.  Each rung
	// replays a slice of the first climbSpan of them, which holds the
	// largest rung.
	climbPool = 60_000
	climbSpan = 20_000
)

// nominalDue draws the nominal windows' Poisson due times from the
// seed: 30% of the run, windowRequests requests each.
func nominalDue(spec *liveSpec, seed int64, seconds time.Duration) [][]time.Duration {
	rng := rand.New(rand.NewSource(seed))
	perWindow := time.Duration(windowRequests / spec.nominal * float64(time.Second))
	windows := make([][]time.Duration, int(seconds*3/10/perWindow))
	for i := range windows {
		windows[i] = dueCount(spec.nominal, windowRequests, rng)
	}
	return windows
}

// rungDue draws the Poisson due times of one rung of one climb, and
// the offset into the climbs' span its requests start at.  They depend
// only on the seed, the climb and the rung, never on how the system
// behaved.
func rungDue(rate float64, seed int64, climb, rung int) (due []time.Duration, offset int) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(climb)*1000 + int64(rung)))
	due = dueCount(rate, max(stepRequests, int(rate*stepMin.Seconds())), rng)
	return due, rng.Intn(max(1, climbSpan-len(due)+1))
}

// climb offers rungs from, from+stride, ... until the ladder ends or
// two consecutive rungs miss the limit, and applies the ladder rule.
// Every rung replays a contiguous slice, at a seeded offset, of the
// same span of the trace, so every climb meets the same mix.  A
// ProWGen trace's mix drifts along its length (its tail is a few
// popular objects, served from cache), so rungs that walked on through
// the trace would meet cheaper and cheaper requests and read that as
// capacity; and rungs that all replayed one slice would measure that
// slice's mix, which varies with the seed far more than the span's.
func (e *liveEnv) climb(seed int64, c, from, stride int) (float64, []stepVerdict, error) {
	var steps []stepVerdict
	ladder := e.spec.ladder()
	for k := from; k < len(ladder); k += stride {
		due, offset := rungDue(ladder[k], seed, c, k)
		out, err := e.send(e.pool+offset, due, -1)
		if err != nil {
			return 0, nil, err
		}
		lat, late := timings(out)
		steps = append(steps, stepVerdict{Rate: ladder[k], Tail: summarize(lat).Tail, Backlog: growingBacklog(late)})
		if climbOver(steps, latencyLimit) {
			break
		}
	}
	return maxRPS(steps, latencyLimit), steps, nil
}

// runLive is the untraced live run: set up (trace, topology, warmup)
// as moreSetups asks, keeping the last deployment, run the nominal
// windows, report calibration against the simulator, then climb.
func runLive(w *workload, seed int64, seconds time.Duration, rep *report) (tally, error) {
	var t tally
	spec := w.live
	windows := nominalDue(spec, seed, seconds)
	if len(windows) == 0 {
		return t, fmt.Errorf("--seconds %s too short for one %d-request window at %.0f req/s", seconds, windowRequests, spec.nominal)
	}
	cfg := w.trace
	cfg.Seed = seed
	cfg.NumRequests = warmupRequests + len(windows)*windowRequests + climbPool
	var setups []float64
	var env *liveEnv
	for moreSetups(setups) {
		if env != nil {
			t.addEnv(env)
			env.close()
		}
		// Each set-up starts from a collected heap, so the peak resident
		// set does not depend on when the collector last ran.
		runtime.GC()
		t0 := time.Now()
		tr, _, err := makeTrace(cfg)
		if err != nil {
			return t, err
		}
		if env, err = startLive(spec, tr, seed, nil); err != nil {
			return t, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()

	deadline := time.Now().Add(seconds)
	var p50s, tails, cpus []float64
	var served, origin int
	for _, due := range windows {
		c0 := cpuTime()
		out, err := env.run(due, -1)
		if err != nil {
			return t, err
		}
		cpu := cpuTime() - c0
		ok, org := tierCounts(out)
		served, origin = served+ok, origin+org
		lat, _ := timings(out)
		s := summarize(lat)
		p50s = append(p50s, float64(s.P50)/1e6)
		tails = append(tails, float64(s.Tail)/1e6)
		cpus = append(cpus, float64(cpu.Microseconds())/float64(ok))
	}
	fmt.Printf("%s: %d nominal windows of %d requests at %.0f req/s: window p50 %s ms, p99 %s ms (min/median/max)\n",
		w.name, len(windows), windowRequests, spec.nominal, spread(p50s), spread(tails))
	if cal, err := env.calibrate(); err != nil {
		fmt.Println("  calibration failed:", err)
	} else {
		fmt.Print(cal.Table())
	}

	env.pool = env.issued
	scout, steps, err := env.climb(seed, 0, 0, scoutStride)
	if err != nil {
		return t, err
	}
	fmt.Printf("  scout climb: max %.0f req/s (%s)\n", scout, formatSteps(steps, latencyLimit))
	var maxes []float64
	for c := 1; c < maxClimbs && (c == 1 || time.Now().Before(deadline)); c++ {
		from := max(0, sort.SearchFloat64s(spec.ladder(), median(append([]float64{scout}, maxes...)))-backoff)
		m, steps, err := env.climb(seed, c, from, 1)
		if err != nil {
			return t, err
		}
		maxes = append(maxes, m)
		fmt.Printf("  climb %d: max %.0f req/s (%s)\n", c, m, formatSteps(steps, latencyLimit))
	}
	t.addEnv(env)

	k := len(p50s)
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups (trace, topology, %d-request warmup)", len(setups), warmupRequests))
	rep.add("throughput_rps", median(maxes), "req/s", fmt.Sprintf("max_rps: median of %d climbs, p99 <= %s and no backlog", len(maxes), latencyLimit))
	rep.add("p50_ms", median(p50s), "ms", fmt.Sprintf("median of %d windows' p50 at %.0f req/s, n=%d", k, spec.nominal, k*windowRequests))
	rep.add("hit_ratio", 1-ratio(float64(origin), float64(served)), "fraction", fmt.Sprintf("1 - origin share at nominal, n=%d", served))
	rep.add("cpu_us_per_req", median(cpus), "us", fmt.Sprintf("median of %d windows at %.0f req/s", k, spec.nominal))
	rep.add("peak_rss_mb", peakRSSMiB(), "MiB", "")
	fmt.Printf("  (not gated) p99 at nominal: median of %d windows' p99 %.4g ms, n=%d\n", k, median(tails), k*windowRequests)
	return t, nil
}

// spread renders a sample as "min/median/max".
func spread(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%.3g/%.3g/%.3g", s[0], median(s), s[len(s)-1])
}

// tierCounts counts successful requests and those the origin served.
func tierCounts(out []outcome) (ok, origin int) {
	for _, o := range out {
		if o.OK {
			ok++
			if o.Tier == httpcache.TierOrigin {
				origin++
			}
		}
	}
	return ok, origin
}

// formatSteps renders a climb as rate:tail pairs, failures starred.
func formatSteps(steps []stepVerdict, limit time.Duration) string {
	var b strings.Builder
	for i, s := range steps {
		if i > 0 {
			b.WriteByte(' ')
		}
		mark := ""
		if !s.passes(limit) {
			mark = "*"
		}
		fmt.Fprintf(&b, "%.0f:%.1fms%s", s.Rate, float64(s.Tail)/1e6, mark)
	}
	return b.String()
}

// timings splits outcomes into latencies and send lateness, both in
// due order.
func timings(out []outcome) (lat, late []time.Duration) {
	lat = make([]time.Duration, len(out))
	late = make([]time.Duration, len(out))
	for i, o := range out {
		lat[i], late[i] = o.Latency, o.Late
	}
	return lat, late
}

// addEnv folds a deployment's tallies into the run's.
func (t *tally) addEnv(e *liveEnv) {
	t.attempted += e.attempted
	t.failed += e.failed
	if e.bad > 0 {
		t.mismatch = append(t.mismatch, fmt.Sprintf("%d responses with a wrong body or an unknown %s tier", e.bad, httpcache.ServedByHeader))
	}
}
