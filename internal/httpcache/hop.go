package httpcache

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"time"
)

// The outbound-hop primitive.  Every request a daemon in this package
// makes — to a client cache, a cooperating proxy, a fleet member or an
// origin — goes through roundTrip, and the proxy's go through
// Proxy.hop, which adds the per-kind deadline and the health hooks.
// DESIGN.md §11 states the contract.

// maxBodyBytes caps every body that crosses a daemon boundary, in
// either direction: the inbound /store, /accept-push and /fleet/store
// handlers and every outbound hop read at most this much.
const maxBodyBytes = 64 << 20

// hopDrainBytes bounds how much of a non-2xx answer is read off the
// wire so its connection can go back to the pool.  An error body
// longer than this costs the connection instead.
const hopDrainBytes = 64 << 10

// probeTimeout is the deadline of a liveness probe: a daemon that
// cannot answer within it is taken for dead.
const probeTimeout = 2 * time.Second

var errBodyTooLarge = errors.New("httpcache: body over the 64 MiB cap")

// hopKind names a class of outbound call.  The kind fixes where the
// call's deadline comes from (hopDeadline) and which health hooks its
// outcome feeds (Proxy.hop).
type hopKind uint8

const (
	hopLAN        hopKind = iota // proxy → own client cache, GET /object
	hopPeer                      // proxy → cooperating proxy, GET /peer-lookup
	hopFleet                     // proxy → fleet member, GET /fetch as a fleet hop
	hopFleetStore                // proxy → fleet member, POST /fleet/store
	hopOrigin                    // proxy → origin server
	hopPassDown                  // proxy → client cache, POST /store
	hopControl                   // push triggers and deliveries, fleet join/leave
	hopProbe                     // liveness sweep and fleet heartbeat
)

// hopReq is one outbound call.
type hopReq struct {
	kind   hopKind
	method string // "" means GET
	url    string
	body   []byte // request payload; nil sends none
	trace  string // TraceHeader value; "" sends none
	// target keys the health hooks: the client cache's address for
	// hopLAN and hopPassDown, the proxy's base URL for the peer kinds.
	target string
}

// hopResp is what came back: the status, the body of a 2xx answer
// (read under maxBodyBytes; nil otherwise) and the callee's
// ServedByHeader.
type hopResp struct {
	status int
	body   []byte
	tier   string
}

// contentTypeOctets is the shared (never mutated) Content-Type of
// every hop that carries a payload.
var contentTypeOctets = []string{"application/octet-stream"}

// roundTrip sends r on c under ctx.  It returns an error for a
// transport failure or an unreadable 2xx body (over maxBodyBytes or
// cut short); a non-2xx answer is not an error — its body is drained
// (bounded) and closed so the connection is reused.
func roundTrip(ctx context.Context, c *http.Client, r *hopReq) (hopResp, error) {
	method := r.method
	if method == "" {
		method = http.MethodGet
	}
	var payload io.Reader
	if r.body != nil {
		payload = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.url, payload)
	if err != nil {
		return hopResp{}, err
	}
	if r.body != nil {
		req.Header["Content-Type"] = contentTypeOctets
	}
	if r.trace != "" {
		req.Header.Set(TraceHeader, r.trace)
	}
	if r.kind == hopFleet {
		req.Header.Set(FleetHopHeader, "1")
	}
	resp, err := c.Do(req)
	if err != nil {
		return hopResp{}, err
	}
	defer resp.Body.Close()
	out := hopResp{status: resp.StatusCode, tier: resp.Header.Get(ServedByHeader)}
	if resp.StatusCode/100 != 2 {
		io.CopyN(io.Discard, resp.Body, hopDrainBytes)
		return out, nil
	}
	out.body, err = readBody(resp.Body)
	return out, err
}

// hopDeadline is the per-kind deadline layered under the client-wide
// timeout; 0 leaves that timeout alone.  Origin fetches take no
// shorter one on purpose: a coalesced flight serves every waiter, so
// it must not die with the requester who started it.
func (p *Proxy) hopDeadline(k hopKind) time.Duration {
	switch k {
	case hopLAN, hopPeer, hopFleet:
		return p.peerTimeout()
	case hopFleetStore:
		return p.defenses.PushTimeout
	case hopProbe:
		return probeTimeout
	}
	return 0
}

// hop performs one of the proxy's outbound calls.  ctx is the
// requester's context for the kinds PeerTimeout bounds and
// context.Background otherwise.  The outcome feeds the health hooks:
//
//   - a hop that ran out of time (its deadline, or the requester hung
//     up) on a PeerTimeout-bounded kind counts a peer timeout;
//   - client caches: a LAN serve lands in the latency histogram and the
//     contribution ledger; a timeout is a strike, an over-cap body a
//     byzantine strike, and any other failure drops the daemon from
//     the ring;
//   - proxies: a failure or a 5xx other than 507 (a capacity answer,
//     not ill health) counts against the peer's breaker, and any other
//     answer closes it.
func (p *Proxy) hop(ctx context.Context, r hopReq) (hopResp, error) {
	if d := p.hopDeadline(r.kind); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	start := time.Now()
	resp, err := roundTrip(ctx, p.client, &r)
	timedOut := err != nil && ctx.Err() != nil
	switch r.kind {
	case hopLAN, hopPassDown:
		switch {
		case err == nil:
			if r.kind == hopLAN && resp.status == http.StatusOK {
				p.lanLat.Observe(time.Since(start))
				p.contribFor(r.target).serves.Add(1)
			}
		case timedOut:
			// Deadline, not death: the daemon may just be slow.  The
			// sweeper judges repeat offenders.
			p.stats.peerTimeouts.Add(1)
			p.contribFor(r.target).timeouts.Add(1)
		case errors.Is(err, errBodyTooLarge):
			p.contribFor(r.target).digestFails.Add(1)
		default:
			// The daemon is gone; its keys re-home to the ring
			// neighbours on the next pass-down.
			p.ring.remove(r.target)
		}
	case hopPeer, hopFleet, hopFleetStore:
		if timedOut && r.kind != hopFleetStore {
			p.stats.peerTimeouts.Add(1)
		}
		if err != nil || resp.status >= 500 && resp.status != http.StatusInsufficientStorage {
			p.peerFailed(r.target)
		} else {
			p.peerOK(r.target)
		}
	}
	return resp, err
}

// hedge is the one hedging loop.  It tries cands in order, one leg at
// a time, and the first success wins.  With Defenses.Hedge on, the
// next candidate also starts early, once, when hedgeDelay fires; that
// leg is the hedge, and only its win counts in HedgedWins.  A failed
// leg is replaced by the next candidate at once either way.
func (p *Proxy) hedge(cands []string, try func(string) (hopResp, bool)) (hopResp, string, bool) {
	if !p.defenses.Hedge || len(cands) < 2 {
		for _, c := range cands {
			if resp, ok := try(c); ok {
				return resp, c, true
			}
		}
		return hopResp{}, "", false
	}
	type leg struct {
		resp   hopResp
		from   string
		ok     bool
		hedged bool
	}
	results := make(chan leg, len(cands)) // one send per candidate: a losing leg never blocks
	next := 0
	launch := func(hedged bool) {
		c := cands[next]
		next++
		go func() {
			resp, ok := try(c)
			results <- leg{resp, c, ok, hedged}
		}()
	}
	launch(false)
	timer := time.NewTimer(p.hedgeDelay())
	defer timer.Stop()
	for pending := 1; pending > 0; {
		select {
		case l := <-results:
			pending--
			if l.ok {
				if l.hedged {
					p.stats.hedgedWins.Add(1)
				}
				return l.resp, l.from, true
			}
			if next < len(cands) {
				launch(false)
				pending++
			}
		case <-timer.C:
			if next < len(cands) {
				p.stats.hedged.Add(1)
				launch(true)
				pending++
			}
		}
	}
	return hopResp{}, "", false
}
