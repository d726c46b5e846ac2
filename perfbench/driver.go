package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webcache/internal/httpcache"
)

// seqHeader carries a request's index in the traced window, so the
// proxy-side handler wrapper can attribute its busy time to the exact
// request the driver timed.  The daemons ignore it.
const seqHeader = "X-Bench-Seq"

// failedLatency stands in for the latency of a request that failed: a
// failure misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// clock is the driver's time source; tests substitute a fake.  Each
// worker waits on its own waiter.
type clock interface {
	Now() time.Time
	newWaiter() waiter
}

// waiter blocks its goroutine until a given time.
type waiter interface {
	wait(until time.Time)
	close()
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// sleepWaiter waits with time.Sleep.  On Linux the runtime's timers can
// fire up to a millisecond late when the process is idle, which is why
// the wall clock prefers a timer file descriptor (waiter_linux.go).
type sleepWaiter struct{}

func (sleepWaiter) wait(until time.Time) {
	if d := time.Until(until); d > 0 {
		time.Sleep(d)
	}
}

func (sleepWaiter) close() {}

// dueTimes draws Poisson due times for rate req/s over dur, as offsets
// from the start of the step.  They are fixed before the step starts,
// so a slow system cannot push later arrivals back.
func dueTimes(rate float64, dur time.Duration, rng *rand.Rand) []time.Duration {
	var due []time.Duration
	t := 0.0
	end := dur.Seconds()
	for {
		t += rng.ExpFloat64() / rate
		if t >= end {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// dueCount draws n Poisson due times at rate req/s.
func dueCount(rate float64, n int, rng *rand.Rand) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// outcome is one request as the driver saw it.
type outcome struct {
	// Late is how long after its due time the request was sent;
	// Latency runs from the due time to the end of the response body
	// (failedLatency for a failure).
	Late, Latency time.Duration
	Tier          string
	OK            bool
	// Bad marks a wrong body or an unknown tier: the program's output
	// was incorrect, not merely slow.
	Bad bool
}

// sendFunc performs request i and reports the serving tier, whether it
// succeeded, and whether its output was wrong.
type sendFunc func(i int) (tier string, ok, bad bool)

// runOpenLoop issues request i at start+due[i] from a fixed set of
// workers.  A worker takes the next request in due order, waits for
// its due time (or sends at once if that has passed) and times it from
// the due time, so a stall is charged to every request it delays.
// Returns one outcome per request, in due order.
func runOpenLoop(clk clock, start time.Time, due []time.Duration, workers int, send sendFunc) []outcome {
	out := make([]outcome, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wt := clk.newWaiter()
			defer wt.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				wt.wait(at)
				sent := clk.Now()
				tier, ok, bad := send(i)
				o := &out[i]
				o.Late = sent.Sub(at)
				o.Tier, o.OK, o.Bad = tier, ok, bad
				if ok {
					o.Latency = clk.Now().Sub(at)
				} else {
					o.Latency = failedLatency
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// httpDriver is the benchmark's HTTP client: one transport, at most
// conns connections per proxy and a dial counter, so connection churn
// shows from outside.
type httpDriver struct {
	client *http.Client
	tr     *http.Transport
	dials  atomic.Int64
	bufs   sync.Pool
}

func newHTTPDriver(conns int, timeout time.Duration) *httpDriver {
	d := &httpDriver{bufs: sync.Pool{New: func() any { return new(bytes.Buffer) }}}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	d.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			d.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	d.client = &http.Client{Transport: d.tr, Timeout: timeout}
	return d
}

// fetch GETs url and checks the body with check.  seq >= 0 rides the
// request as seqHeader.  The returned error covers transport failures
// and non-200 answers; bad reports a body or tier the program should
// never produce.
func (d *httpDriver) fetch(url string, seq int, check func(body []byte) bool) (tier string, bad bool, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return "", false, err
	}
	if seq >= 0 {
		req.Header.Set(seqHeader, strconv.Itoa(seq))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return "", false, err
	}
	buf := d.bufs.Get().(*bytes.Buffer)
	defer d.bufs.Put(buf)
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", false, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", false, fmt.Errorf("status %d", resp.StatusCode)
	}
	tier = resp.Header.Get(httpcache.ServedByHeader)
	return tier, !servedTiers[tier] || !check(buf.Bytes()), nil
}

func (d *httpDriver) close() { d.tr.CloseIdleConnections() }
