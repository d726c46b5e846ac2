package main

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/loadgen"
	"webcache/internal/trace"
)

// fakeClock is a manual clock: waiting jumps time forward to the
// deadline, and the send function advances it by the service time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) newWaiter() waiter { return fakeWaiter{c} }

type fakeWaiter struct{ c *fakeClock }

func (w fakeWaiter) wait(until time.Time) {
	w.c.mu.Lock()
	if until.After(w.c.now) {
		w.c.now = until
	}
	w.c.mu.Unlock()
}

func (fakeWaiter) close() {}

// TestOpenLoopLateness drives one worker under a fake clock.  Requests
// are due every millisecond and each takes three, so request i is sent
// 2i ms late, and its latency, timed from the due time, is that
// lateness plus the service time.  When service is faster than
// arrivals, nothing is late.
func TestOpenLoopLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	for _, c := range []struct {
		service   time.Duration
		lateEvery time.Duration
	}{
		{3 * time.Millisecond, 2 * time.Millisecond},
		{500 * time.Microsecond, 0},
	} {
		clk := &fakeClock{now: start}
		out := runOpenLoop(clk, start, due, 1, func(int) (string, bool, bool) {
			clk.advance(c.service)
			return "proxy", true, false
		})
		for i, o := range out {
			wantLate := time.Duration(i) * c.lateEvery
			if o.Late != wantLate || o.Latency != wantLate+c.service {
				t.Errorf("service %s, request %d: late %s latency %s, want %s and %s",
					c.service, i, o.Late, o.Latency, wantLate, wantLate+c.service)
			}
		}
	}
}

// TestOpenLoopFailure checks that a failed request misses every limit.
func TestOpenLoopFailure(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	out := runOpenLoop(clk, clk.now, []time.Duration{0, time.Millisecond}, 2, func(i int) (string, bool, bool) {
		return "", i == 0, false
	})
	if !out[0].OK || out[1].OK || out[1].Latency != failedLatency {
		t.Fatalf("outcomes %+v: the failed request must carry failedLatency", out)
	}
}

func TestDueTimes(t *testing.T) {
	a := dueTimes(1000, time.Second, rand.New(rand.NewSource(7)))
	b := dueTimes(1000, time.Second, rand.New(rand.NewSource(7)))
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("1000 req/s for 1s drew %d and %d due times", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) || a[i] >= time.Second {
			t.Fatalf("due time %d: %s vs %s: not seeded, ordered and inside the step", i, a[i], b[i])
		}
	}
	if n := dueCount(500, 42, rand.New(rand.NewSource(1))); len(n) != 42 {
		t.Fatalf("dueCount drew %d", len(n))
	}
}

func TestBodyOK(t *testing.T) {
	good := []byte("origin:/obj/42:xxxxxxxx")
	if !bodyOK(good, 42, len(good)) {
		t.Fatal("the origin's body rejected")
	}
	if !bodyOK([]byte("origin:/ob"), 42, 10) {
		t.Fatal("a body truncated inside the prefix rejected")
	}
	for name, body := range map[string][]byte{
		"flipped pad byte":   []byte("origin:/obj/42:xxxxyxxx"),
		"flipped prefix":     []byte("origin:/obj/43:xxxxxxxx"),
		"short":              []byte("origin:/obj/42:xxxxxxx"),
		"another object":     []byte("origin:/obj/4:xxxxxxxxx"),
		"empty":              {},
		"zeroed pad (trunc)": []byte("origin:/obj/42:\x00\x00\x00\x00\x00\x00\x00\x00"),
	} {
		if bodyOK(body, 42, len(good)) {
			t.Errorf("%s: corrupted body %q accepted", name, body)
		}
	}
}

// TestFetchRejectsCorruptBody runs the checker end to end: a real
// loopback topology serves a correct body, and the same request
// through a proxy whose responses are corrupted in flight is reported
// as bad.
func TestFetchRejectsCorruptBody(t *testing.T) {
	const size = 256
	var corrupt atomic.Bool
	topo, err := loadgen.StartLoopback(loadgen.TopologyConfig{
		Proxies: 1, CachesPerProxy: 1, ObjectBytes: size,
		ProxyCapacityBytes: []uint64{64 * size}, CacheCapacityBytes: []uint64{16 * size},
		WrapProxy: func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if corrupt.Load() {
					w = &flipWriter{ResponseWriter: w}
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	drv := newHTTPDriver(1, 5*time.Second)
	defer func() {
		drv.close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		topo.Close(ctx)
	}()
	sched, err := loadgen.BuildSchedule(&trace.Trace{
		Requests:   []trace.Request{{Client: 0, Object: 7, Size: 1}},
		NumClients: 1, NumObjects: 8,
	}, topo.ProxyURLs, topo.OriginURL, func(trace.ClientID) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	check := func(b []byte) bool { return bodyOK(b, 7, size) }
	for _, c := range []struct {
		corrupt, wantBad bool
	}{{false, false}, {false, false}, {true, true}} {
		corrupt.Store(c.corrupt)
		tier, bad, err := drv.fetch(sched.Requests[0].URL, -1, check)
		if err != nil || bad != c.wantBad {
			t.Fatalf("corrupt=%v: tier %q bad=%v err=%v, want bad=%v", c.corrupt, tier, bad, err, c.wantBad)
		}
	}
}

// flipWriter corrupts the last byte of every write.
type flipWriter struct{ http.ResponseWriter }

func (f *flipWriter) Write(b []byte) (int, error) {
	c := append([]byte(nil), b...)
	if len(c) > 0 {
		c[len(c)-1] ^= 1
	}
	return f.ResponseWriter.Write(c)
}
