package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"webcache/internal/httpcache"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// servedTiers are the X-Served-By values a /fetch response may carry
// on the benchmark's topology (no disk tier, no fleet).
var servedTiers = map[string]bool{
	httpcache.TierProxy:       true,
	httpcache.TierClientCache: true,
	httpcache.TierRemoteProxy: true,
	httpcache.TierOrigin:      true,
}

// bodyOK reports whether body is the loopback origin's deterministic
// body for object obj: "origin:/obj/<id>:" padded with 'x' and
// truncated to size bytes.  Whichever tier served it, a cache must
// hand back exactly what the origin produced.
func bodyOK(body []byte, obj trace.ObjectID, size int) bool {
	if len(body) != size {
		return false
	}
	var scratch [48]byte
	prefix := append(scratch[:0], "origin:/obj/"...)
	prefix = strconv.AppendUint(prefix, uint64(obj), 10)
	prefix = append(prefix, ':')
	i := 0
	for ; i < len(body) && i < len(prefix); i++ {
		if body[i] != prefix[i] {
			return false
		}
	}
	for ; i < len(body); i++ {
		if body[i] != 'x' {
			return false
		}
	}
	return true
}

// resultsDigest is the SHA-256 over the JSON of each scheme's Result,
// in the same form as the simulator's pinned-digest test, so one
// number stands for every counter of every scheme.
func resultsDigest(results []*sim.Result) (string, error) {
	h := sha256.New()
	for _, r := range results {
		if r == nil {
			return "", fmt.Errorf("a scheme has no result")
		}
		blob, err := json.Marshal(r)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s:%s\n", r.Scheme, blob)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
