package main

import (
	"math/rand"
	"testing"
	"time"
)

// TestTailPercentile pins the percentile rule: p99 once at least ten
// samples lie beyond it, the highest percentile leaving ten beyond it
// below that, and the maximum when no percentile above the median
// does.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 100}, {1, 100}, {19, 100},
		{20, 50}, {40, 75}, {500, 98}, {999, 98.99}, {1000, 99}, {100000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	for n := 2 * tailBeyond; n <= 5000; n++ {
		pct := tailPercentile(n)
		if beyond := n - 1 - rankAt(pct, n); beyond < tailBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it, want >= %d", n, pct, beyond, tailBeyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	d := make([]time.Duration, 2000)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Microsecond
	}
	rand.New(rand.NewSource(1)).Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	s := summarize(d)
	if s.N != 2000 || s.P50 != 1000*time.Microsecond || s.Tail != 1980*time.Microsecond || s.tailLabel() != "p99" {
		t.Fatalf("summarize(1..2000us) = %+v (%s)", s, s.tailLabel())
	}
	small := summarize([]time.Duration{3, 1, 2})
	if small.P50 != 2 || small.Tail != 3 || small.tailLabel() != "max" {
		t.Fatalf("summarize(3 samples) = %+v (%s), want the maximum as tail", small, small.tailLabel())
	}
	if empty := summarize(nil); empty.N != 0 || empty.P50 != 0 {
		t.Fatalf("summarize(nil) = %+v", empty)
	}
}

// steps builds a synthetic climb from per-step tail latencies in ms;
// a negative entry marks a step with a growing backlog.
func steps(tails ...float64) []stepVerdict {
	var out []stepVerdict
	rate := 1000.0
	for _, ms := range tails {
		v := stepVerdict{Rate: rate, Tail: time.Duration(ms * float64(time.Millisecond))}
		if ms < 0 {
			v.Tail, v.Backlog = time.Millisecond, true
		}
		out = append(out, v)
		rate *= 2
	}
	return out
}

// TestMaxRPS pins the ladder rule on synthetic latencies: the highest
// passing step before two consecutive failures end the climb.
func TestMaxRPS(t *testing.T) {
	limit := 10 * time.Millisecond
	for _, c := range []struct {
		name  string
		steps []stepVerdict
		want  float64
	}{
		{"all pass", steps(1, 2, 3), 4000},
		{"knee", steps(1, 2, 30, 40), 2000},
		{"limit is inclusive", steps(1, 10, 11, 12), 2000},
		{"one transient failure", steps(1, 30, 2, 3, 50, 60), 8000},
		{"pass after the climb ended", steps(1, 30, 40, 2), 1000},
		{"backlog fails a fast step", steps(1, -1, -1), 1000},
		{"nothing passes", steps(30, 40), 0},
		{"empty", nil, 0},
	} {
		if got := maxRPS(c.steps, limit); got != c.want {
			t.Errorf("%s: maxRPS = %g, want %g", c.name, got, c.want)
		}
	}
	if !climbOver(steps(1, 30, 40), limit) || climbOver(steps(30, 1, 40), limit) {
		t.Error("climbOver must end a climb exactly on two consecutive failures")
	}
}

// TestGrowingBacklog pins the backlog rule: lateness that grows across
// a step is a backlog even while it stays under the latency limit;
// jitter, and lateness that is high but steady, are not.
func TestGrowingBacklog(t *testing.T) {
	ramp := func(from, to time.Duration) []time.Duration {
		out := make([]time.Duration, 1000)
		for i := range out {
			out[i] = from + (to-from)*time.Duration(i)/time.Duration(len(out)-1)
		}
		return out
	}
	jitter := make([]time.Duration, 1000)
	for i := range jitter {
		jitter[i] = time.Duration(i%7) * 100 * time.Microsecond
	}
	for _, c := range []struct {
		name string
		late []time.Duration
		want bool
	}{
		{"timer jitter", jitter, false},
		{"steady but late", ramp(30*time.Millisecond, 31*time.Millisecond), false},
		{"just under the margin", ramp(0, 10*time.Millisecond), false},
		// 25% over capacity for 250 ms ends about 50 ms behind; 5% over
		// ends about 12 ms behind.
		{"25% over capacity", ramp(0, 50*time.Millisecond), true},
		{"5% over capacity", ramp(0, 12*time.Millisecond), true},
		{"empty", nil, false},
	} {
		if got := growingBacklog(c.late); got != c.want {
			t.Errorf("%s: growingBacklog = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}
