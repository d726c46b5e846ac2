package httpcache

import (
	"net/http"
	"time"
)

// NewTransport returns the tuned *http.Transport every component of
// the live system shares the shape of: the proxy's outbound client
// (origin fetches, LAN fetches, peer lookups, pass-downs), the
// client-cache daemon's push client, and the load generator's driver
// (internal/loadgen).
//
// The stock http.DefaultTransport keeps only 2 idle connections per
// host (MaxIdleConnsPerHost), so under load every hot peer or origin
// serializes on two pooled connections and the rest of the traffic
// pays a fresh TCP handshake per request.  A proxy's outbound fan-in
// concentrates on a handful of hosts — its client caches, its peers,
// the origins — which is exactly the topology that default starves.
func NewTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no global cap; the per-host limit governs
	tr.MaxIdleConnsPerHost = 256
	tr.IdleConnTimeout = idleTimeout
	return tr
}

// Connection lifetimes shared by both ends of every hop: a pooled
// connection idles out after idleTimeout on either side, and a client
// gets readHeaderTimeout to finish sending its request header, so a
// slowloris cannot pin a daemon goroutine.
const (
	idleTimeout       = 90 * time.Second
	readHeaderTimeout = 5 * time.Second
)

// NewServer returns the http.Server every daemon serves h on, with the
// header-read and idle timeouts set.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// newHTTPClient builds a client on a fresh tuned transport.
func newHTTPClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: NewTransport()}
}

// CloseIdleConnections drops the proxy's pooled outbound connections.
// Shutdown paths call this before draining servers: a connection the
// transport dialed but never used sits in StateNew on the server side,
// and http.Server.Shutdown only reaps those after a hard-coded 5s
// grace — every graceful drain would stall that long otherwise.
func (p *Proxy) CloseIdleConnections() { p.client.CloseIdleConnections() }

// CloseIdleConnections drops the daemon's pooled outbound connections
// (push deliveries to proxies); see Proxy.CloseIdleConnections.
func (c *ClientCache) CloseIdleConnections() { c.client.CloseIdleConnections() }
