package httpcache

import (
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
)

// This file holds the request-path allocation helpers: the live data
// plane serves cache hits without allocating (TestFetchHitPathAllocs
// holds it to zero allocs per request), so anything a handler does per
// request either reuses a pooled buffer or touches nothing on the
// heap.  See DESIGN.md §14.

// queryParam returns the named parameter from a raw query string
// without materializing url.Values (which allocates a map and a slice
// per key); it agrees with url.ParseQuery(rawQuery).Get(key) whenever
// ParseQuery accepts rawQuery (FuzzQueryParam holds it to that).  The
// common case — unescaped keys and values, which is what the loopback
// drivers and the load generator send — returns a substring of
// rawQuery and allocates nothing; '%' or '+' escapes fall back to
// url.QueryUnescape.  A malformed escape returns "" (url.ParseQuery
// would have dropped the pair).
func queryParam(rawQuery, key string) string {
	for q := rawQuery; q != ""; {
		var kv string
		kv, q, _ = strings.Cut(q, "&")
		if kv == "" {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		if escaped(k) {
			var err error
			if k, err = url.QueryUnescape(k); err != nil {
				continue
			}
		}
		if k != key {
			continue
		}
		if !escaped(v) {
			return v
		}
		v, err := url.QueryUnescape(v)
		if err != nil {
			return ""
		}
		return v
	}
	return ""
}

func escaped(s string) bool {
	return strings.IndexByte(s, '%') >= 0 || strings.IndexByte(s, '+') >= 0
}

// servedBy holds one preallocated header value per serving tier, so
// the serve path assigns a shared slice into the response header map
// instead of allocating a fresh []string per response.  The slices
// are never mutated after construction.  ServedByHeader is already in
// canonical MIME form, so direct map assignment matches Header.Set.
var servedBy = map[string][]string{
	TierProxy:       {TierProxy},
	TierProxyDisk:   {TierProxyDisk},
	TierClientCache: {TierClientCache},
	TierRemoteProxy: {TierRemoteProxy},
	TierOrigin:      {TierOrigin},
	TierPeerProxy:   {TierPeerProxy},
	TierPeerP2P:     {TierPeerP2P},
}

// serve writes an object body with its serving-tier header.
func serve(w http.ResponseWriter, body []byte, tier string) {
	if v, ok := servedBy[tier]; ok {
		w.Header()[ServedByHeader] = v
	} else {
		// Unknown tier label (a fleet hop relaying a peer's tag):
		// fall back to the allocating path.
		w.Header().Set(ServedByHeader, tier)
	}
	w.Write(body)
}

// contentTypeJSON and receiptStoredClean back the store-receipt fast
// path: the steady-state receipt ("stored, nothing evicted, no
// refusal") is the overwhelmingly common one, and its serialization
// never changes.  The bytes match json.Encoder's output for
// StoreReceipt{Stored: true} exactly — including the trailing newline
// — which TestReceiptFastPathBytes pins.
var (
	contentTypeJSON    = []string{"application/json"}
	receiptStoredClean = []byte("{\"stored\":true}\n")
)

// bodyBuf is a pooled scratch buffer for reading bodies whose final
// destination retains the bytes (the store keeps object bodies
// forever, so they cannot live in a pool).  Reading through pooled
// scratch and copying once means each read costs exactly one
// right-sized allocation — the retained body — instead of io.ReadAll's
// log-of-size growth garbage.
type bodyBuf struct{ b []byte }

var bodyBufPool = sync.Pool{New: func() any { return &bodyBuf{b: make([]byte, 0, 64<<10)} }}

// readBody is the one bounded-read helper: it reads r to EOF into
// pooled scratch and returns an exact-size copy the caller owns, or
// errBodyTooLarge past maxBodyBytes.  Inbound handlers pass an
// http.MaxBytesReader, which fails first with its 413 semantics.
func readBody(r io.Reader) ([]byte, error) {
	bb := bodyBufPool.Get().(*bodyBuf)
	defer bodyBufPool.Put(bb)
	rd := io.LimitedReader{R: r, N: maxBodyBytes + 1}
	bb.b = bb.b[:0]
	for {
		if len(bb.b) == cap(bb.b) {
			bb.b = append(bb.b, 0)[:len(bb.b)]
		}
		n, err := rd.Read(bb.b[len(bb.b):cap(bb.b)])
		bb.b = bb.b[:len(bb.b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if len(bb.b) > maxBodyBytes {
		return nil, errBodyTooLarge
	}
	out := make([]byte, len(bb.b))
	copy(out, bb.b)
	return out, nil
}
