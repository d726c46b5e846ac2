package httpcache

import (
	"net/url"
	"testing"
)

// FuzzQueryParam holds the zero-alloc query scanner to url.ParseQuery
// on every query ParseQuery accepts: for the fuzzed key and for every
// key the query itself carries, queryParam must return what
// url.Values.Get does.
func FuzzQueryParam(f *testing.F) {
	f.Add("url=http://origin/page?a=1&b=2", "url")
	f.Add("key=0123456789abcdef0123456789abcdef&cost=2.5&ifFree=1", "ifFree")
	f.Add("url=http%3A%2F%2Forigin%2Fa%20page", "url")
	f.Add("u%72l=escaped-key&url=plain", "url")
	f.Add("url&url=second", "url")
	f.Add("&=empty-key", "")
	f.Add("a+b=c", "a b")
	f.Fuzz(func(t *testing.T, raw, key string) {
		vs, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		for k := range vs {
			if got, want := queryParam(raw, k), vs.Get(k); got != want {
				t.Fatalf("queryParam(%q, %q) = %q, url.ParseQuery gives %q", raw, k, got, want)
			}
		}
		if got, want := queryParam(raw, key), vs.Get(key); got != want {
			t.Fatalf("queryParam(%q, %q) = %q, url.ParseQuery gives %q", raw, key, got, want)
		}
	})
}
