package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"webcache/internal/prowgen"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// workers is the benchmark's parallelism: driver goroutines, driver
// connections per proxy and sweep workers alike.  It is nproc on the
// 2-core reference box and never more than 2, so figures from a larger
// machine stay comparable.
var workers = min(2, runtime.NumCPU())

// A run sets its workload up at least minSetups times, and again while
// it has spent less than setupBudget on set-up, up to maxSetups times;
// setup_s is the median.  A quick set-up is repeated more often, so
// one slow set-up moves the median of none of them.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 5 * time.Second
)

// moreSetups reports whether a run whose set-ups took setups seconds
// each should set up again.
func moreSetups(setups []float64) bool {
	var spent float64
	for _, s := range setups {
		spent += s
	}
	return len(setups) < minSetups || (len(setups) < maxSetups && spent < setupBudget.Seconds())
}

// workload is one benchmark input: a seeded ProWGen trace plus, for
// the live workloads, the loopback deployment it is served through.
type workload struct {
	name  string
	trace prowgen.Config // NumRequests is set per run; Seed from --seed
	live  *liveSpec      // nil for the simulator workload
}

// liveSpec sizes a live workload: the topology, and the nominal rate
// it is driven at.
type liveSpec struct {
	objectBytes int
	// proxyFrac and clientFrac size the caches as fractions of the
	// infinite cache size of the trace's first sizingRequests requests,
	// as the simulator does.  Sizing from a fixed prefix keeps the
	// deployment the same however long the run's trace is.  proxyFrac
	// may exceed 1, to give the proxies headroom over that population.
	proxyFrac, clientFrac float64
	// nominal is the rate p50_ms and cpu_us_per_req are read at, and
	// the first rung of the offered-load ladder max_rps climbs.
	nominal float64
}

// Settings every live workload shares.  warmupRequests are replayed
// closed-loop during set-up, so the caches are full before anything is
// timed.  latencyLimit bounds each ladder rung's p99 latency.  The
// ladder is nominal*ladderRatio^k for k from 0 to ladderRungs.
const (
	warmupRequests = 4000
	latencyLimit   = 50 * time.Millisecond
	ladderRatio    = 1.05
	ladderRungs    = 60
)

// Proxies and client caches per proxy of every live topology, and the
// trace prefix their caches are sized from.
const (
	numProxies     = 2
	cachesPerProxy = 3
	sizingRequests = 40_000
)

// simSweepFrac is the sim-sweep's proxy cache size, as a fraction of
// the infinite cache size: a point in the middle of Figure 2's axis.
const simSweepFrac = 0.3

var workloads = []*workload{
	{
		// The paper's Figure 2 sizing: one million requests over ten
		// thousand objects from 200 clients, 50% one-timers, alpha 0.7.
		name: "sim-sweep",
		trace: prowgen.Config{
			NumRequests: prowgen.DefaultNumRequests, NumObjects: prowgen.DefaultNumObjects,
			NumClients: prowgen.DefaultNumClients, OneTimerFrac: prowgen.DefaultOneTimerFrac,
			Alpha: prowgen.DefaultAlpha, StackFrac: prowgen.DefaultStackFrac,
		},
	},
	{
		// A small population with few one-timers, and proxies with 20%
		// headroom over it: after warmup about 99.6% of requests are
		// proxy memory hits, and the hops see a trickle.
		name: "live-hot",
		trace: prowgen.Config{
			NumObjects: 300, NumClients: 200, OneTimerFrac: 0.1,
			Alpha: prowgen.DefaultAlpha, StackFrac: prowgen.DefaultStackFrac,
		},
		live: &liveSpec{objectBytes: 1024, proxyFrac: 1.2, clientFrac: 0.05, nominal: 4000},
	},
	{name: "live-coop", trace: liveCoopTrace, live: liveCoop},
}

// live-coop is the hiergdd bench default mix with larger bodies:
// small proxy caches, so client-cache, remote-proxy and origin serves
// are each a visible share and every origin fill passes one object
// down.  sim-sweep's traced run serves its trace with this deployment.
var (
	liveCoopTrace = prowgen.Config{
		NumObjects: 2000, NumClients: 200, OneTimerFrac: prowgen.DefaultOneTimerFrac,
		Alpha: prowgen.DefaultAlpha, StackFrac: prowgen.DefaultStackFrac,
	}
	liveCoop = &liveSpec{objectBytes: 8192, proxyFrac: 0.05, clientFrac: 0.005, nominal: 1000}
)

// ladder returns the offered rates the climbs take, rounded to whole
// requests per second.
func (s *liveSpec) ladder() []float64 {
	var out []float64
	for k := 0; k <= ladderRungs; k++ {
		out = append(out, math.Round(s.nominal*math.Pow(ladderRatio, float64(k))))
	}
	return out
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// traceTimes splits the trace part of set-up by layer.
type traceTimes struct {
	gen, enc, dec time.Duration
}

// makeTrace generates the workload trace and sends it through the
// binary codec, as a replay tool loading a trace file would: the
// program only ever sees the decoded trace.  The round trip must
// reproduce the generated requests exactly.
func makeTrace(cfg prowgen.Config) (*trace.Trace, traceTimes, error) {
	var tt traceTimes
	t0 := time.Now()
	gen, err := prowgen.Generate(cfg)
	if err != nil {
		return nil, tt, fmt.Errorf("generating trace: %w", err)
	}
	t1 := time.Now()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, gen); err != nil {
		return nil, tt, fmt.Errorf("encoding trace: %w", err)
	}
	t2 := time.Now()
	tr, err := decodeTrace(buf.Bytes())
	if err != nil {
		return nil, tt, fmt.Errorf("decoding trace: %w", err)
	}
	t3 := time.Now()
	tt = traceTimes{gen: t1.Sub(t0), enc: t2.Sub(t1), dec: t3.Sub(t2)}
	if len(tr.Requests) != len(gen.Requests) || tr.NumClients != gen.NumClients || tr.NumObjects != gen.NumObjects {
		return nil, tt, fmt.Errorf("trace round trip: %d requests back of %d", len(tr.Requests), len(gen.Requests))
	}
	for i := range tr.Requests {
		if tr.Requests[i] != gen.Requests[i] {
			return nil, tt, fmt.Errorf("trace round trip: request %d decoded as %+v, generated %+v", i, tr.Requests[i], gen.Requests[i])
		}
	}
	return tr, tt, nil
}

// decodeTrace reads a binary trace through the batched decoder.
func decodeTrace(b []byte) (*trace.Trace, error) {
	br, err := trace.NewBatchReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	reqs := make([]trace.Request, br.Len())
	for got := 0; br.Remaining() > 0; {
		n, err := br.ReadBatch(reqs[got:])
		got += n
		if err != nil {
			return nil, err
		}
	}
	return &trace.Trace{Requests: reqs, NumClients: br.NumClients(), NumObjects: br.NumObjects()}, nil
}

// sweepConfigs is the sim-sweep's figure point: every paper scheme at
// the same sizing.
func sweepConfigs(seed int64) []sim.Config {
	var cfgs []sim.Config
	for _, s := range sim.AllSchemes() {
		cfgs = append(cfgs, sim.Config{Scheme: s, ProxyCacheFrac: simSweepFrac, Seed: seed})
	}
	return cfgs
}
