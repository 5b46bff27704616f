package main

import (
	"fmt"
	"math"
	"time"

	"querycentric/internal/obs"
	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
)

// graphConfig sizes the graph-fig8 workload.
type graphConfig struct {
	nodes, objects int
	trials         int // SuccessRateN trials per (curve, TTL) in one pass
	maxTTL         int
	checkEvery     int // every checkEvery-th trial of each (curve, TTL) is checked against Coverage
	probeEvery     int // every probeEvery-th trial of a traced pass is replayed under a span
	sanityOrigins  int
}

// fig8Bases are the paper's uniform replica counts at 40,000 nodes.
var fig8Bases = []int{1, 4, 9, 19, 39}

// fig8Curve is one placement of the sweep with its engine and the seed its
// trials derive from (seed+ttl per TTL, as experiments.Fig8 does).
type fig8Curve struct {
	label string
	place *search.Placement
	eng   *search.Engine
	seed  uint64
}

// graphWorkload runs the paper's Fig. 8 sweep on the 40,000-node two-tier
// graph: search.Engine.SuccessRateN at TTL 1-5 for the uniform and Zipf
// placements, fanned out over one worker per CPU.
type graphWorkload struct {
	o options
	c graphConfig

	g      *overlay.Graph
	curves []fig8Curve

	passes  int
	rates   []float64 // first pass, curve-major then TTL
	visited int
	replays int
}

func newGraph(o options) *graphWorkload {
	c := graphConfig{nodes: 40000, objects: 300, trials: 50, maxTTL: 5, checkEvery: 8, probeEvery: 4, sanityOrigins: 100}
	if o.small {
		c = graphConfig{nodes: 8000, objects: 300, trials: 40, maxTTL: 5, checkEvery: 4, probeEvery: 2, sanityOrigins: 20}
	}
	return &graphWorkload{o: o, c: c}
}

func (w *graphWorkload) setup(tr *tracer) error {
	seed := w.o.seed
	if err := tr.do("overlay.build", -1, -1, func() (err error) {
		w.g, err = overlay.NewGnutella(w.c.nodes, overlay.DefaultGnutellaConfig(), seed)
		return err
	}); err != nil {
		return err
	}
	w.curves = w.curves[:0]
	err := tr.do("search.placement", -1, -1, func() error {
		for _, base := range fig8Bases {
			reps := min(max(int(math.Round(float64(base)*float64(w.c.nodes)/40000)), 1), w.c.nodes)
			p, err := search.UniformPlacement(w.c.nodes, w.c.objects, reps, seed+6)
			if err != nil {
				return err
			}
			w.curves = append(w.curves, fig8Curve{label: fmt.Sprintf("uniform-%d", base), place: p, seed: seed + 7})
		}
		p, err := search.ZipfPlacement(w.c.nodes, w.c.objects, 2.45, w.c.nodes/10, seed+8)
		if err != nil {
			return err
		}
		w.curves = append(w.curves, fig8Curve{label: "zipf", place: p, seed: seed + 20})
		for i := range w.curves {
			if w.curves[i].eng, err = search.NewEngine(w.g, w.curves[i].place); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.passes, w.rates, w.visited, w.replays = 0, nil, 0, 0
	return nil
}

func (w *graphWorkload) instrument(*obs.Registry) {}

// pick draws the target object uniformly, as experiments.Fig8 does.
func (w *graphWorkload) pick(r *rng.Source) int { return r.Intn(w.c.objects) }

// trial replays trial i of the sweep's (curve, ttl) stream exactly as
// SuccessRateN derives it.
func (w *graphWorkload) trial(c fig8Curve, ttl, i int) (origin, obj int) {
	r := rng.NewNamed(c.seed+uint64(ttl), "search/success").Derive(fmt.Sprintf("trial/%d", i))
	origin = r.Intn(w.c.nodes)
	return origin, w.pick(r)
}

// sweep runs one full pass of the sweep on the given worker count.
func (w *graphWorkload) sweep(tr *tracer, nworkers int) ([]float64, error) {
	var rates []float64
	for _, c := range w.curves {
		for ttl := 1; ttl <= w.c.maxTTL; ttl++ {
			id := tr.begin("search.success_rate", -1, -1)
			rate, err := c.eng.SuccessRateN(ttl, w.c.trials, w.pick, c.seed+uint64(ttl), nworkers)
			tr.end(id, w.c.trials)
			if err != nil {
				return nil, err
			}
			rates = append(rates, rate)
		}
	}
	return rates, nil
}

func (w *graphWorkload) unit(tr *tracer) (unitResult, error) {
	ur := unitResult{queries: len(w.curves) * w.c.maxTTL * w.c.trials}
	rates, err := w.sweep(tr, w.measuredWorkers())
	if err != nil {
		return ur, err
	}
	if w.passes == 0 {
		w.rates = rates
	} else {
		for i := range rates {
			if rates[i] != w.rates[i] {
				ur.failed += w.c.trials
			}
		}
	}
	w.passes++
	if tr == nil {
		return ur, nil
	}
	// Replay a sample of the pass's own (origin, object, TTL) stream through
	// a Searcher and the coverage BFS, one span per call.
	cov := overlay.NewCoverage(w.g)
	for _, c := range w.curves {
		s := c.eng.NewSearcher()
		for ttl := 1; ttl <= w.c.maxTTL; ttl++ {
			for i := 0; i < w.c.trials; i += w.c.probeEvery {
				origin, obj := w.trial(c, ttl, i)
				id := tr.begin("search.flood", -1, int64(i))
				res, err := s.Flood(origin, obj, ttl)
				tr.end(id, 1)
				if err != nil {
					return ur, err
				}
				w.visited += res.Peers
				w.replays++
				id = tr.begin("overlay.bfs", -1, int64(i))
				cov.Reached(origin, ttl)
				tr.end(id, 1)
			}
		}
	}
	return ur, nil
}

// verify replays every trial of the first pass: the replayed successes must
// sum to the rate SuccessRateN reported, and every checkEvery-th trial must
// agree with the coverage oracle (found iff the origin or a peer in
// Coverage.Reached holds the object). Zipf success at TTL 3 must stay below
// uniform-39's, the paper's gap.
func (w *graphWorkload) verify() (checkResult, error) {
	var cr checkResult
	cov := overlay.NewCoverage(w.g)
	for ci, c := range w.curves {
		s := c.eng.NewSearcher()
		holds := make([]map[int32]bool, w.c.objects)
		for ttl := 1; ttl <= w.c.maxTTL; ttl++ {
			found := 0
			for i := 0; i < w.c.trials; i++ {
				origin, obj := w.trial(c, ttl, i)
				res, err := s.Flood(origin, obj, ttl)
				if err != nil {
					return cr, err
				}
				if res.Found {
					found++
				}
				if i%w.c.checkEvery != 0 {
					continue
				}
				cr.attempted++
				if holds[obj] == nil {
					holds[obj] = make(map[int32]bool)
					for _, h := range c.place.Holders[obj] {
						holds[obj][h] = true
					}
				}
				want := holds[obj][int32(origin)]
				if !want {
					reached := cov.Reached(origin, ttl)
					hits := 0
					for _, v := range reached {
						if holds[obj][v] {
							hits++
						}
					}
					want = hits > 0
					if res.Peers != len(reached) || res.Results != hits {
						cr.failed++
						continue
					}
				}
				if res.Found != want {
					cr.failed++
				}
			}
			cr.attempted++
			if float64(found)/float64(w.c.trials) != w.rates[ci*w.c.maxTTL+ttl-1] {
				cr.failed++
			}
		}
	}
	zipf3 := w.rates[(len(w.curves)-1)*w.c.maxTTL+2]
	uni39 := w.rates[(len(fig8Bases)-1)*w.c.maxTTL+2]
	cr.attempted++
	if !(zipf3 < uni39) {
		cr.failed++
	}
	bits := make([]uint64, len(w.rates))
	for i, r := range w.rates {
		bits[i] = math.Float64bits(r)
	}
	cr.digest = digestHashes(bits)
	cr.notes = append(cr.notes, fmt.Sprintf("graph-fig8: %d passes; TTL-3 success zipf %.4f < uniform-39 %.4f", w.passes, zipf3, uni39))
	cr.notes = append(cr.notes, w.reachSanity()...)
	return cr, nil
}

// reachSanity prints the mean number of nodes a flood reaches at each TTL
// beside the closed-form flooding-cost estimate from the measured degree
// distribution: the origin sends to its <k> neighbours, and each node a
// copy reaches forwards to its other d-1 neighbours if it relays, so the
// mean branching factor is sum over relays of d(d-1) / sum of d (a copy
// arrives at a node with probability proportional to its degree). The
// tree-like estimate ignores duplicates, so it overshoots once floods
// saturate; it is a sanity check, not a metric.
func (w *graphWorkload) reachSanity() []string {
	n := w.g.N()
	var sumD, sumRelay float64
	for v := 0; v < n; v++ {
		d := float64(w.g.Degree(v))
		sumD += d
		if w.g.Ultra(v) {
			sumRelay += d * (d - 1)
		}
	}
	meanK, branch := sumD/float64(n), sumRelay/sumD
	cov := overlay.NewCoverage(w.g)
	r := rng.NewNamed(w.o.seed, "benchmark/graph-fig8/sanity")
	origins := make([]int, w.c.sanityOrigins)
	for i := range origins {
		origins[i] = r.Intn(n)
	}
	var out []string
	est, ring := 0.0, meanK
	for ttl := 1; ttl <= w.c.maxTTL; ttl++ {
		total := 0
		for _, o := range origins {
			total += len(cov.Reached(o, ttl))
		}
		est += ring
		ring *= branch
		out = append(out, fmt.Sprintf("graph-fig8 reach ttl=%d measured_mean=%.1f closed_form=%.1f (capped at %d)",
			ttl, float64(total)/float64(len(origins)), min(est, float64(n-1)), n-1))
	}
	return out
}

func (w *graphWorkload) layerMetrics(m metricSet, lay map[string]*layerStat, reg *obs.Registry, tracedQueries int) float64 {
	setupSeconds(m, lay, "overlay.build", "overlay.build_s")
	setupSeconds(m, lay, "search.placement", "search.placement_s")
	putTail(m, "search.flood", lay["search.flood"])
	if w.replays > 0 {
		m.put("search.nodes_visited_per_flood", "count", float64(w.visited)/float64(w.replays))
	}
	if l := lay["overlay.bfs"]; l != nil {
		m.put("overlay.bfs_us", "us", l.nsPerCall()/1e3)
	}
	units := counter(reg, "parallel_map_units_total")
	m.put("parallel.map_units", "count", units)

	t0 := time.Now()
	if _, err := w.sweep(nil, 1); err == nil {
		one := time.Since(t0)
		t0 = time.Now()
		if _, err := w.sweep(nil, w.measuredWorkers()); err == nil {
			m.put("parallel.speedup", "ratio", one.Seconds()/time.Since(t0).Seconds())
		}
	}
	l := lay["search.flood"]
	if l == nil || tracedQueries == 0 {
		return 0
	}
	return units / float64(tracedQueries) * l.nsPerCall() / float64(w.measuredWorkers())
}

// measuredWorkers is one per CPU: this is the workload that measures the
// parallel trial engine.
func (w *graphWorkload) measuredWorkers() int { return workers() }

func (w *graphWorkload) close() { w.g, w.curves = nil, nil }
