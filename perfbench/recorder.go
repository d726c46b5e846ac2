package main

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webcache/internal/httpcache"
)

// hop names a daemon endpoint the traced run times at its receiving
// handler.
type hop int

const (
	hopFetch      hop = iota // proxy GET /fetch: the client-facing request
	hopPeerLookup            // proxy GET /peer-lookup: a cooperating proxy asking
	hopObject                // client cache GET /object: the proxy's LAN fetch
	hopStore                 // client cache POST /store: a pass-down
	numHops
)

var proxyHops = map[string]hop{"/fetch": hopFetch, "/peer-lookup": hopPeerLookup}
var cacheHops = map[string]hop{"/object": hopObject, "/store": hopStore}

// hopLog is everything recorded at one endpoint while recording is on.
type hopLog struct {
	busy []time.Duration
	ok   int // 200 answers
	// remotes holds the distinct client addresses seen: one per
	// connection, so their count over requests measures dial churn.
	remotes map[string]bool
	// byTier splits /fetch busy time by X-Served-By.
	byTier map[string][]time.Duration
}

// recorder wraps daemon handlers from outside the program: each
// tracked request is timed around the real handler and its status,
// tier and peer address are logged.  Recording is off until set, so
// set-up traffic is not counted.
type recorder struct {
	on   atomic.Bool
	mu   sync.Mutex
	hops [numHops]hopLog
	// fetchBusy[i] is the handler time of the i-th recorded driver
	// request (matched through seqHeader), so the driver can split its
	// latency into handler time and waiting.
	fetchBusy []time.Duration
}

// newRecorder makes a recorder, off, for windows totalling n driver
// requests.
func newRecorder(n int) *recorder {
	rc := &recorder{fetchBusy: make([]time.Duration, n)}
	for i := range rc.hops {
		rc.hops[i] = hopLog{remotes: map[string]bool{}, byTier: map[string][]time.Duration{}}
	}
	return rc
}

// set turns recording on or off.
func (rc *recorder) set(on bool) { rc.on.Store(on) }

func (rc *recorder) wrapProxy(_ int, h http.Handler) http.Handler { return rc.wrap(h, proxyHops) }

func (rc *recorder) wrapCache(_, _ int, h http.Handler) http.Handler { return rc.wrap(h, cacheHops) }

func (rc *recorder) wrap(h http.Handler, hops map[string]hop) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k, tracked := hops[r.URL.Path]
		if !tracked || !rc.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h.ServeHTTP(sw, r)
		busy := time.Since(t0)
		rc.log(k, busy, sw.status, w.Header().Get(httpcache.ServedByHeader), r)
	})
}

func (rc *recorder) log(k hop, busy time.Duration, status int, tier string, r *http.Request) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	l := &rc.hops[k]
	l.busy = append(l.busy, busy)
	if status == http.StatusOK {
		l.ok++
	}
	l.remotes[r.RemoteAddr] = true
	if k != hopFetch {
		return
	}
	l.byTier[tier] = append(l.byTier[tier], busy)
	if seq, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil && seq >= 0 && seq < len(rc.fetchBusy) {
		rc.fetchBusy[seq] = busy
	}
}

// statusWriter remembers the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}
