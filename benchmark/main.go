// Command benchmark is the repository's benchmark: it runs one named
// workload against the simulator's packages, checks the outputs against
// oracles, and prints one JSON result line.
//
//	bash benchmark/run.sh --workload wire-mismatch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from spans the benchmark records
// around its own calls into each layer (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"querycentric/internal/obs"
	"querycentric/internal/parallel"
)

// An untraced run builds its workload at least minSetups times, and keeps
// building until the builds have taken setupBudget or maxSetups is reached;
// the reported setup time is the median, and the last build is the one
// measured. Fast set-ups repeat more, so their median stays steady.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 4 * time.Second
)

// minUnits is the fewest measured units a run makes, however long they take,
// so medians and the cross-unit determinism check always have material.
const minUnits = 4

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
	// small shrinks every workload to test size.
	small bool
}

// unitResult is what one unit of measured work reports.
type unitResult struct {
	queries int // simulated queries completed
	failed  int // of those, how many returned an error or failed a check
}

// checkResult is what a workload's output checks report after the
// measured phase.
type checkResult struct {
	attempted int    // operations checked against an oracle
	failed    int    // of those, how many disagreed
	digest    string // fingerprint of the workload's simulation outputs
	notes     []string
}

// workload is one benchmark workload.
type workload interface {
	// setup builds the workload's inputs and program state from the seed,
	// replacing any earlier build. Calls into layers are traced under tr
	// (nil when untraced).
	setup(tr *tracer) error
	// instrument attaches reg to the layers the workload drives (nil
	// detaches); traced units run attached, untraced ones detached.
	instrument(reg *obs.Registry)
	// unit runs one unit of measured work; every unit does the same work.
	unit(tr *tracer) (unitResult, error)
	// verify runs the output checks on what the units produced.
	verify() (checkResult, error)
	// layerMetrics fills the per-layer metrics from the traced spans and
	// the registry, and returns the layer time per query the trace
	// explains (layer self time × call count, over queries).
	layerMetrics(m metricSet, lay map[string]*layerStat, reg *obs.Registry, tracedQueries int) (explainedNsPerQuery float64)
	// measuredWorkers is how many goroutines the measured phase runs on.
	measuredWorkers() int
	// close releases what setup built.
	close()
}

// resetter is a workload whose units mutate its program state; reset
// rebuilds that state before every unit after the first, outside the
// measured time, so every unit does the same work.
type resetter interface {
	reset() error
}

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"wire-mismatch", "graph-fig8", "adaptive-rewire"}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "wire-mismatch":
		return newWire(o), nil
	case "graph-fig8":
		return newGraph(o), nil
	case "adaptive-rewire":
		return newAdaptive(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
}

// workers is the goroutine bound for every parallel layer: one per CPU.
// Construction always uses it; a workload's measured phase may use fewer
// (see measuredWorkers).
func workers() int { return runtime.NumCPU() }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.root, "root", ".", "repository root; run outputs go under <root>/.bench_build")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag))
	}
	if o.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %v", o.seconds))
	}
	o.trace = traceFlag == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// workDir is the per-run scratch directory for files a workload writes.
func (o options) workDir() string {
	return filepath.Join(o.root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
}

// run executes one benchmark run and returns its result line; progress,
// the host block, the digest and sanity output go to log.
func run(o options, log io.Writer) (*result, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workDir(), 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.workDir())
	defer w.close()

	host := hostBlock(o, w.measuredWorkers())
	hb, _ := json.Marshal(map[string]any{"host": host})
	fmt.Fprintln(log, string(hb))

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	budget := setupBudget
	if o.small {
		budget = 0
	}
	var setups []float64
	var spent time.Duration
	var peakRSS float64
	for len(setups) == 0 || (!o.trace && len(setups) < maxSetups && (len(setups) < minSetups || spent < budget)) {
		w.close()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		if len(setups) == 1 {
			// Later builds reuse heap the first one left behind, so only
			// the first shows what building the population costs.
			peakRSS = peakRSSMB()
		}
	}
	fmt.Fprintf(log, "setups: %d, seconds: %s\n", len(setups), fmtList(setups, 3))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeap := float64(ms.HeapAlloc) / (1 << 20)

	m, attempted, failed, err := measure(o, w, tr, log)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		m.put("setup_s", "s", median(setups))
		m.put("peak_rss_mb", "MiB", peakRSS)
		m.put("live_heap_mb", "MiB", liveHeap)
	}
	want := endToEndMetrics
	if o.trace {
		want = perLayerMetrics
	}
	if err := m.validate(want); err != nil {
		return nil, err
	}
	if o.trace {
		path := filepath.Join(o.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, tr.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "spans: %d written to %s\n", len(tr.spans), path)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// unitSample is one measured unit's cost.
type unitSample struct {
	queries int
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	traced  bool
}

// measure runs units until the measured phase's time is up (and at least
// minUnits), then the output checks, and returns the run's metrics. A
// traced run alternates untraced and traced units, so tracing overhead is
// measured on the same work in the same run.
func measure(o options, w workload, tr *tracer, log io.Writer) (metricSet, int, int, error) {
	var reg *obs.Registry
	if o.trace {
		reg = obs.NewRegistry()
	}
	var samples []unitSample
	attempted, failed := 0, 0
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < minUnits || time.Now().Before(deadline); i++ {
		traced := o.trace && i%2 == 1
		var utr *tracer
		if traced {
			utr = tr
			w.instrument(reg)
			parallel.Instrument(reg)
		}
		if r, ok := w.(resetter); ok && i > 0 {
			if err := r.reset(); err != nil {
				return nil, 0, 0, fmt.Errorf("%s reset before unit %d: %w", o.workload, i, err)
			}
		}
		var ms0 runtime.MemStats
		if o.trace {
			runtime.ReadMemStats(&ms0)
		}
		c0, t0 := cpuTime(), time.Now()
		ur, err := w.unit(utr)
		wall, cpu := time.Since(t0), cpuTime()-c0
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s unit %d: %w", o.workload, i, err)
		}
		s := unitSample{queries: ur.queries, wall: wall, cpu: cpu, traced: traced}
		if o.trace {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			s.alloc = ms1.TotalAlloc - ms0.TotalAlloc
		}
		if traced {
			w.instrument(nil)
			parallel.Instrument(nil)
		}
		samples = append(samples, s)
		attempted += ur.queries
		failed += ur.failed
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)

	chk, err := w.verify()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s verify: %w", o.workload, err)
	}
	attempted += chk.attempted
	failed += chk.failed
	fmt.Fprintf(log, "digest %s seed=%d %s\n", o.workload, o.seed, chk.digest)
	for _, n := range chk.notes {
		fmt.Fprintln(log, n)
	}

	m := metricSet{}
	var qps, cpuPerQ, wallPerQ, tracedWallPerQ, allocPerQ []float64
	tracedQueries := 0
	for _, s := range samples {
		if s.queries == 0 {
			continue
		}
		perQ := s.wall.Seconds() / float64(s.queries)
		if s.traced {
			tracedWallPerQ = append(tracedWallPerQ, perQ)
			tracedQueries += s.queries
			continue
		}
		qps = append(qps, 1/perQ)
		wallPerQ = append(wallPerQ, perQ)
		cpuPerQ = append(cpuPerQ, s.cpu.Seconds()*1e6/float64(s.queries))
		allocPerQ = append(allocPerQ, float64(s.alloc)/1024/float64(s.queries))
	}
	if len(qps) == 0 {
		return nil, 0, 0, fmt.Errorf("%s: no untraced unit completed a query", o.workload)
	}
	fmt.Fprintf(log, "units: %d (%d traced), queries: %d\n", len(samples), len(tracedWallPerQ), attempted-chk.attempted)
	fmt.Fprintf(log, "untraced units queries_per_s: %s\n", fmtList(qps, 1))
	fmt.Fprintf(log, "untraced units cpu_us_per_query: %s\n", fmtList(cpuPerQ, 1))
	if !o.trace {
		m.put("queries_per_s", "1/s", median(qps))
		m.put("cpu_us_per_query", "us", median(cpuPerQ))
		return m, attempted, failed, nil
	}

	lay := layers(tr.spans)
	for _, d := range perLayerMetrics {
		m.put(d.name, d.unit, 0)
	}
	explainedNs := w.layerMetrics(m, lay, reg, tracedQueries)
	untracedNs := median(wallPerQ) * 1e9
	m.put("trace.explained_frac", "ratio", explainedNs/untracedNs)
	m.put("trace.unexplained_frac", "ratio", 1-explainedNs/untracedNs)
	m.put("trace.overhead_frac", "ratio", median(tracedWallPerQ)/median(wallPerQ)-1)
	m.put("trace.spans", "count", float64(len(tr.spans)))
	m.put("go.alloc_kb_per_query", "KiB", median(allocPerQ))
	m.put("go.gc_cycles", "count", float64(gc1.NumGC-gc0.NumGC))
	return m, attempted, failed, nil
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics is every metric an untraced run reports, in BENCHMARK.json
// order.
var endToEndMetrics = []metricDef{
	{"queries_per_s", "1/s"},
	{"cpu_us_per_query", "us"},
	{"peak_rss_mb", "MiB"},
	{"live_heap_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayerMetrics is every metric a traced run reports, in BENCHMARK.json
// order. A workload that does not reach a layer reports that layer's
// metrics as 0: the layer did no work and took no time in that workload.
var perLayerMetrics = []metricDef{
	{"catalog.build_s", "s"},
	{"gnet.build_s", "s"},
	{"snapshot.save_s", "s"},
	{"snapshot.load_mapped_s", "s"},
	{"snapshot.file_mb", "MiB"},
	{"querygen.generate_s", "s"},
	{"overlay.build_s", "s"},
	{"search.placement_s", "s"},
	{"gnet.flood_p50_us", "us"},
	{"gnet.flood_p99_us", "us"},
	{"gnet.flood_tail_pct", "pct"},
	{"gnet.flood_samples", "count"},
	{"gnet.msgs_per_flood", "count"},
	{"gnet.peers_reached_per_flood", "count"},
	{"gnet.hits_per_flood", "count"},
	{"gnet.dup_msg_frac", "ratio"},
	{"gnet.tokenize_ns", "ns"},
	{"dict.resolve_ns", "ns"},
	{"dict.unknown_term_frac", "ratio"},
	{"gnet.match_miss_ns", "ns"},
	{"gnet.match_hit_ns", "ns"},
	{"gnet.match_hit_frac", "ratio"},
	{"gmsg.query_encode_ns", "ns"},
	{"gmsg.query_decode_ns", "ns"},
	{"gmsg.hit_encode_ns", "ns"},
	{"gmsg.hit_decode_ns", "ns"},
	{"gmsg.query_bytes", "bytes"},
	{"search.flood_p50_us", "us"},
	{"search.flood_p99_us", "us"},
	{"search.flood_tail_pct", "pct"},
	{"search.flood_samples", "count"},
	{"search.nodes_visited_per_flood", "count"},
	{"overlay.bfs_us", "us"},
	{"parallel.speedup", "ratio"},
	{"parallel.map_units", "count"},
	{"adaptive.batch_ms", "ms"},
	{"adaptive.round_ms", "ms"},
	{"adaptive.round_frac", "ratio"},
	{"adaptive.rewires_per_round", "count"},
	{"adaptive.replicas_per_round", "count"},
	{"events.executed", "count"},
	{"events.per_s", "1/s"},
	{"capacity.enqueued", "count"},
	{"capacity.shed_frac", "ratio"},
	{"capacity.breaker_suppressed", "count"},
	{"capacity.commit_us", "us"},
	{"gnet.maint_pings_sent", "count"},
	{"gnet.maint_repair_attempts", "count"},
	{"gnet.maint_tick_ms", "ms"},
	{"go.alloc_kb_per_query", "KiB"},
	{"go.gc_cycles", "count"},
	{"trace.explained_frac", "ratio"},
	{"trace.unexplained_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// putTail reports a layer's span-duration median and tail under prefix,
// with the tail's percentile and the sample count.
func putTail(m metricSet, prefix string, l *layerStat) {
	if l == nil || len(l.PerSpanUs) == 0 {
		return
	}
	sorted := append([]float64(nil), l.PerSpanUs...)
	sort.Float64s(sorted)
	m.put(prefix+"_p50_us", "us", percentile(sorted, 50))
	if pct, v, ok := tailPercentile(sorted); ok {
		m.put(prefix+"_p99_us", "us", v)
		m.put(prefix+"_tail_pct", "pct", pct)
	}
	m.put(prefix+"_samples", "count", float64(len(sorted)))
}

// setupSeconds reports the wall time of every span called name (the
// setup calls into one layer) under metric.
func setupSeconds(m metricSet, lay map[string]*layerStat, name, metric string) {
	if l := lay[name]; l != nil {
		m.put(metric, "s", float64(l.SelfNs)/1e9)
	}
}

// fmtList formats xs with the given number of decimals.
func fmtList(xs []float64, decimals int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', decimals, 64)
	}
	return strings.Join(parts, " ")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counter reads a counter from a registry snapshot (0 when absent).
func counter(reg *obs.Registry, name string) float64 {
	for _, sm := range reg.Snapshot().Metrics {
		if sm.Name == name {
			return float64(sm.Value)
		}
	}
	return 0
}
