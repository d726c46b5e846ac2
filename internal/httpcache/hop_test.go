package httpcache

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestHopConnectionReuse pins drain-on-non-2xx: a client cache that
// refuses every pass-down (507) and misses every LAN fetch (404) must
// keep answering on the proxy's pooled connection.  A hop that closes
// a refused body unread discards its connection, so the daemon would
// accept one connection per refusal.
func TestHopConnectionReuse(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	var conns, lans, stores atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /object", func(w http.ResponseWriter, r *http.Request) {
		lans.Add(1)
		http.NotFound(w, r)
	})
	mux.HandleFunc("POST /store", func(w http.ResponseWriter, r *http.Request) {
		stores.Add(1)
		http.Error(w, "no free space", http.StatusInsufficientStorage)
	})
	daemon := httptest.NewUnstartedServer(mux)
	daemon.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	daemon.Start()
	t.Cleanup(daemon.Close)

	// The proxy holds ~3 of the ~25-byte objects, so every later fill
	// evicts one and passes it down.
	px := NewProxy(52)
	srv := httptest.NewServer(px.Handler())
	t.Cleanup(srv.Close)
	px.ring.add(strings.TrimPrefix(daemon.URL, "http://"))

	const n = 20
	for i := 0; i < n; i++ {
		objURL := fmt.Sprintf("%s/reuse%02d", origin.srv.URL, i)
		plantDir(px, objURL)
		if status, tier := get(t, srv.URL+"/fetch?url="+url.QueryEscape(objURL)); status != http.StatusOK || tier != TierOrigin {
			t.Fatalf("fetch %d: status %d tier %q, want 200 %q", i, status, tier, TierOrigin)
		}
	}
	if lans.Load() < n || stores.Load() < n {
		t.Fatalf("daemon saw %d LAN fetches and %d stores, want >= %d of each", lans.Load(), stores.Load(), n)
	}
	if c := conns.Load(); c > 3 {
		t.Fatalf("daemon accepted %d connections for %d refused hops; refused bodies are not drained",
			c, lans.Load()+stores.Load())
	}
}

// writeOversized streams a body past maxBodyBytes, chunked (no
// Content-Length to reject it by).
func writeOversized(w http.ResponseWriter, _ *http.Request) {
	chunk := make([]byte, 1<<20)
	for i := 0; i <= maxBodyBytes>>20; i++ {
		if _, err := w.Write(chunk); err != nil {
			return
		}
	}
}

// TestOversizedBodyFailsHop is the byzantine-body test: a client cache
// (LAN hop) and a cooperating proxy (peer hop) that each stream more
// than maxBodyBytes fail their hop — the LAN one strikes the daemon,
// the peer one trips its breaker — and the request is served from
// origin instead of buffering the body.
func TestOversizedBodyFailsHop(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	defenses := Defenses{PeerTimeout: 20 * time.Second, BreakerFailures: 1, BreakerCooldown: time.Minute}

	t.Run("lan", func(t *testing.T) {
		daemon := httptest.NewServer(http.HandlerFunc(writeOversized))
		t.Cleanup(daemon.Close)
		addr := strings.TrimPrefix(daemon.URL, "http://")
		px, srv := defenseProxy(t, defenses)
		px.ring.add(addr)
		objURL := origin.srv.URL + "/huge-lan"
		plantDir(px, objURL)
		if status, tier := get(t, srv.URL+"/fetch?url="+url.QueryEscape(objURL)); status != http.StatusOK || tier != TierOrigin {
			t.Fatalf("status %d tier %q, want 200 %q", status, tier, TierOrigin)
		}
		if s := px.contribFor(addr).strikes(); s == 0 {
			t.Fatal("oversized LAN body did not strike the daemon")
		}
	})
	t.Run("peer", func(t *testing.T) {
		peer := httptest.NewServer(http.HandlerFunc(writeOversized))
		t.Cleanup(peer.Close)
		px, srv := defenseProxy(t, defenses)
		px.SetPeers([]string{peer.URL})
		objURL := origin.srv.URL + "/huge-peer"
		if status, tier := get(t, srv.URL+"/fetch?url="+url.QueryEscape(objURL)); status != http.StatusOK || tier != TierOrigin {
			t.Fatalf("status %d tier %q, want 200 %q", status, tier, TierOrigin)
		}
		if opens := px.snapshotStats().Defense.BreakerOpens; opens != 1 {
			t.Fatalf("breaker opens = %d, want 1 (the oversized peer answer is a failure)", opens)
		}
	})
}

// fakeMember is a scriptable fleet member: /fetch answers with status
// (200 when unset) after delay, or gives up when the caller does.
type fakeMember struct {
	srv    *httptest.Server
	delay  atomic.Int64 // nanoseconds
	status atomic.Int64
}

func newFakeMember(t *testing.T) *fakeMember {
	t.Helper()
	m := &fakeMember{}
	m.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(time.Duration(m.delay.Load())):
		case <-r.Context().Done():
			return
		}
		if s := int(m.status.Load()); s != 0 && s != http.StatusOK {
			http.Error(w, "fake member", s)
			return
		}
		serve(w, []byte("member-body"), TierProxy)
	}))
	t.Cleanup(m.srv.Close)
	return m
}

// TestFleetHedgedWins pins the hedge counters on the fleet path:
// HedgedWins counts only wins by the leg the hedge timer launched, so
// it never exceeds HedgedRequests.  A primary that wins after the
// hedge fired, and a second candidate promoted because the primary
// failed first, count no win.
func TestFleetHedgedWins(t *testing.T) {
	origin := newTestOrigin()
	t.Cleanup(origin.srv.Close)
	cases := []struct {
		name                 string
		hedgeDelay           time.Duration
		primaryDelay         time.Duration
		primaryStatus        int
		secondDelay          time.Duration
		wantHedged, wantWins int
	}{
		{"primary wins after the hedge fires", 5 * time.Millisecond, 100 * time.Millisecond, http.StatusOK, 5 * time.Second, 1, 0},
		{"early failure promotes the second", 500 * time.Millisecond, 0, http.StatusBadGateway, 0, 0, 0},
		{"hedge leg wins", 5 * time.Millisecond, 5 * time.Second, http.StatusOK, 0, 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := newFakeMember(t), newFakeMember(t)
			px, srv := defenseProxy(t, Defenses{Hedge: true, HedgeDelay: c.hedgeDelay, PeerTimeout: 10 * time.Second})
			px.EnableFleet(FleetOptions{Self: srv.URL, Members: []string{srv.URL, a.srv.URL, b.srv.URL}, Replication: 2})

			// An object both of whose holders are remote, so the front
			// proxy routes it through the hedge.
			var objURL string
			var cands []string
			for i := 0; len(cands) != 2; i++ {
				objURL = fmt.Sprintf("%s/hedge%d", origin.srv.URL, i)
				cands = px.fleet.ring.ReplicasOf(fold(keyOf(objURL)), 2)
				if cands[0] == srv.URL || cands[1] == srv.URL {
					cands = nil
				}
			}
			primary, second := a, b
			if px.fleet.peers.Order(cands)[0] == b.srv.URL {
				primary, second = b, a
			}
			primary.delay.Store(int64(c.primaryDelay))
			primary.status.Store(int64(c.primaryStatus))
			second.delay.Store(int64(c.secondDelay))

			if status, tier := get(t, srv.URL+"/fetch?url="+url.QueryEscape(objURL)); status != http.StatusOK || tier != TierRemoteProxy {
				t.Fatalf("status %d tier %q, want 200 %q", status, tier, TierRemoteProxy)
			}
			d := px.snapshotStats().Defense
			if d.HedgedRequests != c.wantHedged || d.HedgedWins != c.wantWins {
				t.Fatalf("hedged requests %d wins %d, want %d and %d", d.HedgedRequests, d.HedgedWins, c.wantHedged, c.wantWins)
			}
			if d.HedgedWins > d.HedgedRequests {
				t.Fatalf("hedged wins %d > hedged requests %d", d.HedgedWins, d.HedgedRequests)
			}
		})
	}
}

// TestServerDropsHalfSentHeader is the slowloris check on NewServer: a
// client that never finishes its request header is disconnected after
// readHeaderTimeout instead of pinning a server goroutine.
func TestServerDropsHalfSentHeader(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(http.NotFoundHandler())
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := io.WriteString(c, "GET /stats HTTP/1.1\r\nHost: daemon\r\n"); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	_, err = c.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("half-sent request still open after %v", time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection ended after %v (err %v), before the header timeout could fire", waited, err)
	}
}
