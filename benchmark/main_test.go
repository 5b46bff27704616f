package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []span{
		{Name: "query", ID: 0, Parent: -1, Start: 0, End: 100, Calls: 1},
		// Two overlapping children cover [10, 50) together: 40, not 50.
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 30, Calls: 1},
		{Name: "b", ID: 2, Parent: 0, Start: 20, End: 50, Calls: 4},
		// A child running past its parent counts only inside the parent.
		{Name: "b", ID: 3, Parent: 0, Start: 90, End: 120, Calls: 1},
		// A grandchild is subtracted from its own parent only.
		{Name: "c", ID: 4, Parent: 1, Start: 12, End: 18, Calls: 2},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time = %d, want %d", i, got[i], want[i])
		}
	}
	lay := layers(spans)
	if l := lay["b"]; len(l.PerSpanUs) != 2 || l.Calls != 5 || l.SelfNs != 60 || l.nsPerCall() != 12 {
		t.Errorf("layer b = %+v, want 2 spans, 5 calls, 60 ns self, 12 ns/call", *l)
	}
}

func TestTracerRecordsParentsAndCalls(t *testing.T) {
	tr := newTracer()
	root := tr.begin("query", -1, 7)
	child := tr.begin("gnet.tokenize", root, 7)
	tr.end(child, probeReps)
	tr.end(root, 1)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Calls != probeReps || tr.spans[1].Query != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if s := tr.spans[0]; s.End < tr.spans[1].End || s.Start > tr.spans[1].Start {
		t.Fatalf("child %+v not inside parent %+v", tr.spans[1], s)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, -1); id != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", id)
	}
	nilTracer.end(-1, 1)
}

func TestTailPercentileRule(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n       int
		pct     float64
		value   float64
		reports bool
	}{
		{n: 10000, pct: 99.9, value: 9990, reports: true},
		{n: 1000, pct: 99, value: 990, reports: true},
		{n: 999, pct: 95, value: 950, reports: true},
		{n: 100, pct: 90, value: 90, reports: true},
		{n: 50, pct: 75, value: 38, reports: true},
		{n: 20, pct: 50, value: 10, reports: true},
		{n: 19, reports: false},
	} {
		pct, v, ok := tailPercentile(samples(tc.n))
		if ok != tc.reports || (ok && (pct != tc.pct || v != tc.value)) {
			t.Errorf("n=%d: got (p%v = %v, %v), want (p%v = %v, %v)", tc.n, pct, v, ok, tc.pct, tc.value, tc.reports)
		}
		if ok && tc.n-int(pct/100*float64(tc.n)) < 10 {
			t.Errorf("n=%d: p%v leaves fewer than ten samples beyond it", tc.n, pct)
		}
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, name := range []string{"setup_s", "gnet.flood_p99_us", "a", "9lives", "x-y.z_1", strings.Repeat("a", 64)} {
		if !metricName.MatchString(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range []string{"", "_lead", ".lead", "sp ace", "sla/sh", "per%", "ünï", strings.Repeat("a", 65)} {
		if metricName.MatchString(name) {
			t.Errorf("%q accepted", name)
		}
	}
	m := metricSet{}
	m.put("ok_name", "s", 1)
	if err := m.validate([]metricDef{{"ok_name", "s"}}); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	if err := m.validate([]metricDef{{"ok_name", "ms"}}); err == nil {
		t.Error("unit mismatch accepted")
	}
	if err := m.validate([]metricDef{{"other", "s"}}); err == nil {
		t.Error("undeclared metric accepted")
	}
	m.put("bad name", "s", 1)
	if err := m.validate([]metricDef{{"ok_name", "s"}, {"bad name", "s"}}); err == nil {
		t.Error("malformed name accepted")
	}
}

// digestLine matches the digest line every run prints.
var digestLine = regexp.MustCompile(`(?m)^digest (\S+) seed=(\d+) (\S+)$`)

func TestSeedChangesInputsNotMetricNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at test size")
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var names [2][]string
			var digests [2]string
			for i, seed := range []uint64{1, 2} {
				o := options{workload: name, seed: seed, seconds: 0.01, trace: traced, root: t.TempDir(), small: true}
				var log bytes.Buffer
				res, err := run(o, &log)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", name, seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("%s seed %d trace %v: %+v\n%s", name, seed, traced, res, log.String())
				}
				for k := range res.Metrics {
					names[i] = append(names[i], k)
				}
				sort.Strings(names[i])
				d := digestLine.FindStringSubmatch(log.String())
				if d == nil {
					t.Fatalf("%s: no digest line in\n%s", name, log.String())
				}
				digests[i] = d[3]
			}
			if strings.Join(names[0], ",") != strings.Join(names[1], ",") {
				t.Errorf("%s trace %v: metric names differ between seeds:\n%v\n%v", name, traced, names[0], names[1])
			}
			if digests[0] == digests[1] {
				t.Errorf("%s trace %v: seeds 1 and 2 produced the same outputs %s", name, traced, digests[0])
			}
		}
	}
}

func TestDigestRepeatsForOneSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at test size")
	}
	for _, name := range workloadNames {
		var digests [2]string
		for i := range digests {
			var log bytes.Buffer
			o := options{workload: name, seed: 3, seconds: 0.01, root: t.TempDir(), small: true}
			if _, err := run(o, &log); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			digests[i] = digestLine.FindStringSubmatch(log.String())[3]
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s then %s for one seed", name, digests[0], digests[1])
		}
	}
}

// TestBenchmarkJSONDeclaresWhatRunsReport keeps BENCHMARK.json and the
// metric lists the runs validate against in step.
func TestBenchmarkJSONDeclaresWhatRunsReport(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if strings.Join(wl, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wl, workloadNames)
	}
	same := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, runs report %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), runs report %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
