package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one reported number, as it appears in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics in the order they were measured,
// each with a human-readable note (sample count, percentile used).
type report struct {
	order []string
	vals  map[string]metric
	notes map[string]string
}

func newReport() *report {
	return &report{vals: map[string]metric{}, notes: map[string]string{}}
}

// add records a metric.  A value that is not finite (a ratio over an
// empty sample) is reported as 0.
func (r *report) add(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, dup := r.vals[name]; !dup {
		r.order = append(r.order, name)
	}
	r.vals[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// addMicros records a summary's median, and its tail when tailName is
// not empty, in microseconds.
func (r *report) addMicros(p50Name, tailName string, s summary) {
	r.add(p50Name, float64(s.P50)/1e3, "us", fmt.Sprintf("p50, n=%d", s.N))
	if tailName != "" {
		r.add(tailName, float64(s.Tail)/1e3, "us", fmt.Sprintf("%s, n=%d", s.tailLabel(), s.N))
	}
}

// print writes one aligned line per metric.
func (r *report) print(w io.Writer) {
	for _, name := range r.order {
		m := r.vals[name]
		fmt.Fprintf(w, "  %-40s %14.6g %-8s %s\n", name, m.Value, m.Unit, r.notes[name])
	}
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result(correct bool, attempted, failed int64) result {
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: r.vals}
}

func writeResult(w io.Writer, res result) error {
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
