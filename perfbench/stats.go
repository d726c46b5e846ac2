package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailBeyond is the number of samples that must lie beyond a reported
// tail percentile for it to count as measured rather than as one
// unlucky sample.
const tailBeyond = 10

// summary is a timing distribution reduced to the two numbers the
// benchmark reports: the median and a tail, each tied to its sample
// count.
type summary struct {
	N int
	// P50 is the nearest-rank median.  Tail is the value at TailPct.
	P50, Tail time.Duration
	// TailPct is the percentile Tail was read at: 99 when the sample
	// supports it, lower when it does not, 100 (the maximum) when no
	// percentile above the median has tailBeyond samples beyond it.
	TailPct float64
}

// tailPercentile applies the percentile rule to a sample of n: the
// highest percentile, capped at p99, that leaves at least tailBeyond
// samples beyond it.  With fewer than 2*tailBeyond samples no
// percentile above the median qualifies, so the maximum is reported
// instead (100): the worst sample, never an understated tail.
func tailPercentile(n int) float64 {
	if n < 2*tailBeyond {
		return 100
	}
	// Nearest rank r = ceil(q*n) leaves n-r samples beyond it; the
	// largest q with n-r >= tailBeyond is (n-tailBeyond)/n.
	q := 100 * float64(n-tailBeyond) / float64(n)
	return math.Min(99, math.Floor(q*100)/100)
}

// rankAt is the nearest-rank index of percentile pct in n sorted
// samples.  The epsilon keeps a product that is whole in exact
// arithmetic (98.4% of 625) from rounding up to the next rank.
func rankAt(pct float64, n int) int {
	r := int(math.Ceil(pct/100*float64(n)-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// summarize sorts d in place and reads its median and tail.  An empty
// sample summarizes to zeros.
func summarize(d []time.Duration) summary {
	if len(d) == 0 {
		return summary{}
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	pct := tailPercentile(len(d))
	return summary{
		N:       len(d),
		P50:     d[rankAt(50, len(d))],
		Tail:    d[rankAt(pct, len(d))],
		TailPct: pct,
	}
}

// tailLabel names the tail percentile for the report ("p99", "p97.5",
// "max").
func (s summary) tailLabel() string {
	if s.TailPct >= 100 {
		return "max"
	}
	return fmt.Sprintf("p%g", s.TailPct)
}

// median of a float sample (the mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// stepVerdict is one ladder step as the max_rps rule sees it.
type stepVerdict struct {
	Rate float64
	// Tail is the step's tail latency (percentile rule), timed from
	// each request's due time, with failures counted as infinitely
	// late.
	Tail time.Duration
	// Backlog reports that sends fell further and further behind
	// their due times during the step.
	Backlog bool
}

// passes reports whether the step meets the latency limit with no
// growing backlog.
func (v stepVerdict) passes(limit time.Duration) bool {
	return v.Tail <= limit && !v.Backlog
}

// maxRPS is the ladder rule: the highest offered rate that met the
// limit, among the steps before the climb ended (climbOver).  Steps
// must be in ascending rate order.  0 means no step passed.
func maxRPS(steps []stepVerdict, limit time.Duration) float64 {
	best := 0.0
	for i, s := range steps {
		if climbOver(steps[:i], limit) {
			break
		}
		if s.passes(limit) {
			best = s.Rate
		}
	}
	return best
}

// climbOver reports whether a climb has ended: its last two steps both
// missed the limit.  One failing step alone does not end it, so a
// transient stall does not cap max_rps; two in a row mean the offered
// rate has passed what the system sustains.
func climbOver(steps []stepVerdict, limit time.Duration) bool {
	n := len(steps)
	return n >= 2 && !steps[n-1].passes(limit) && !steps[n-2].passes(limit)
}

// backlogMargin is how much later the sends at the end of a rung may
// run than those at its start before its backlog counts as growing.
// A rung offered at rate r above a capacity c for a time T ends about
// T(1-c/r) behind, so over a stepMin rung 10 ms catches any rate more
// than 4% above capacity, under one ladder rung.  A host stall of a
// few milliseconds moves a median over a tenth of the rung far less.
const backlogMargin = 10 * time.Millisecond

// growingBacklog reports whether the sends of a step fell further and
// further behind: the median lateness over the last tenth of the
// step's sends exceeds that over the first tenth by more than
// backlogMargin.  late is in send order.
func growingBacklog(late []time.Duration) bool {
	n := len(late)
	if n == 0 {
		return false
	}
	k := max(1, n/10)
	head := summarize(append([]time.Duration(nil), late[:k]...)).P50
	tail := summarize(append([]time.Duration(nil), late[n-k:]...)).P50
	return tail-head > backlogMargin
}
