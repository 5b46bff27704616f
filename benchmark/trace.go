package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"
)

// span is one call (or one tight loop of calls) into a layer, recorded by
// the benchmark around its own call into the layer's public function.
// Calls is how many calls the interval covers: functions that run in tens
// of nanoseconds are called in a loop inside one span, so the clock reads
// do not dominate what they time.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Query  int64  `json:"query"`  // query id; -1 when the span serves no single query
	Calls  int    `json:"calls"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pass nil and pay one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, query int64) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Query: query, Calls: 1,
		Start: int64(time.Since(t.epoch))})
	return id
}

// end closes span id, which covered calls calls into its layer.
func (t *tracer) end(id int32, calls int) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	s.Calls = calls
}

// do wraps fn in a one-call span.
func (t *tracer) do(name string, parent int32, query int64, fn func() error) error {
	id := t.begin(name, parent, query)
	err := fn()
	t.end(id, 1)
	return err
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children are merged
// first, so time two children share is subtracted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		curS, curE := int64(0), int64(-1)
		flush := func() {
			if curE > curS {
				covered += curE - curS
			}
		}
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				flush()
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		flush()
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	Calls  int
	SelfNs int64
	// PerSpanUs holds each span's duration in microseconds, for percentiles.
	PerSpanUs []float64
}

// nsPerCall is the layer's mean self time per call, in nanoseconds.
func (l layerStat) nsPerCall() float64 {
	if l.Calls == 0 {
		return 0
	}
	return float64(l.SelfNs) / float64(l.Calls)
}

// layers folds spans into per-layer statistics keyed by span name.
func layers(spans []span) map[string]*layerStat {
	self := selfTimes(spans)
	out := make(map[string]*layerStat)
	for i, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &layerStat{}
			out[s.Name] = l
		}
		l.Calls += s.Calls
		l.SelfNs += self[i]
		l.PerSpanUs = append(l.PerSpanUs, float64(s.End-s.Start)/1e3)
	}
	return out
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := rank(p, len(sorted)) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// rank is the nearest-rank position of the p-th percentile among n samples
// (1-based), computed so that p·n/100 landing on a whole number is not
// pushed up by floating-point error.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentiles are the tail ranks a report may use, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for tails: the highest
// percentile that leaves at least ten samples beyond it. ok is false when
// even the median has fewer than ten samples beyond it.
func tailPercentile(sorted []float64) (pct, value float64, ok bool) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p, percentile(sorted, p), true
		}
	}
	return 0, 0, false
}

// metricName is the metric naming rule: a letter or digit first, then
// letters, digits, '_', '.' and '-', at most 64 characters in all.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics and rejects malformed names.
type metricSet map[string]metric

func (m metricSet) put(name, unit string, v float64) {
	m[name] = metric{Value: v, Unit: unit}
}

// validate checks that m holds exactly the metrics want declares, each
// under its declared unit, that every name follows the naming rule, and
// that every value is a finite number.
func (m metricSet) validate(want []metricDef) error {
	if len(m) != len(want) {
		return fmt.Errorf("%d metrics reported, %d declared", len(m), len(want))
	}
	for _, d := range want {
		v, ok := m[d.name]
		switch {
		case !metricName.MatchString(d.name):
			return fmt.Errorf("metric name %q breaks the naming rule", d.name)
		case !ok:
			return fmt.Errorf("metric %s declared but not reported", d.name)
		case v.Unit != d.unit:
			return fmt.Errorf("metric %s reported in %s, declared in %s", d.name, v.Unit, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %s is not a finite number", d.name)
		}
	}
	return nil
}
