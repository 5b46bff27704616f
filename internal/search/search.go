// Package search implements the object-location mechanisms compared in the
// paper's Section V simulation: TTL-bounded flooding, expanding ring, and
// k-walker random walks over an overlay graph, against configurable replica
// placements (uniform with fixed replica counts, or the power-law placement
// observed in real systems).
//
// The central quantity is the Figure 8 one: the probability that a
// TTL-bounded search from a random origin locates any replica of a target
// object, as a function of TTL and of the placement model.
package search

import (
	"fmt"

	"querycentric/internal/overlay"
	"querycentric/internal/parallel"
	"querycentric/internal/rng"
	"querycentric/internal/zipf"
)

// Placement assigns object replicas to nodes.
type Placement struct {
	Nodes   int
	Holders [][]int32 // Holders[obj] = nodes holding a replica of obj
}

// Objects returns the number of placed objects.
func (p *Placement) Objects() int { return len(p.Holders) }

// MeanReplicas returns the mean replica count per object.
func (p *Placement) MeanReplicas() float64 {
	if len(p.Holders) == 0 {
		return 0
	}
	total := 0
	for _, h := range p.Holders {
		total += len(h)
	}
	return float64(total) / float64(len(p.Holders))
}

// ReplicaCounts returns the per-object replica counts.
func (p *Placement) ReplicaCounts() []int {
	out := make([]int, len(p.Holders))
	for i, h := range p.Holders {
		out[i] = len(h)
	}
	return out
}

// UniformPlacement places each of objects on exactly replicas distinct
// random nodes — the model prior P2P evaluations assumed (the paper varies
// replicas over 1, 4, 9, 19, 39 on 40,000 nodes).
func UniformPlacement(nodes, objects, replicas int, seed uint64) (*Placement, error) {
	if nodes <= 0 || objects <= 0 {
		return nil, fmt.Errorf("search: nodes and objects must be positive")
	}
	if replicas < 1 || replicas > nodes {
		return nil, fmt.Errorf("search: replicas %d out of range [1,%d]", replicas, nodes)
	}
	r := rng.NewNamed(seed, "search/uniform-placement")
	p := &Placement{Nodes: nodes, Holders: make([][]int32, objects)}
	for i := range p.Holders {
		idx := r.SampleInts(nodes, replicas)
		h := make([]int32, replicas)
		for j, v := range idx {
			h[j] = int32(v)
		}
		p.Holders[i] = h
	}
	return p, nil
}

// ZipfPlacement draws each object's replica count from the truncated power
// law P(k) ∝ k^-alpha, k ∈ [1, maxReplicas] — the distribution the paper
// measured in deployed systems — and places the replicas on distinct random
// nodes.
func ZipfPlacement(nodes, objects int, alpha float64, maxReplicas int, seed uint64) (*Placement, error) {
	if nodes <= 0 || objects <= 0 {
		return nil, fmt.Errorf("search: nodes and objects must be positive")
	}
	if maxReplicas <= 0 || maxReplicas > nodes {
		maxReplicas = nodes
	}
	dist, err := zipf.New(maxReplicas, alpha)
	if err != nil {
		return nil, err
	}
	r := rng.NewNamed(seed, "search/zipf-placement")
	p := &Placement{Nodes: nodes, Holders: make([][]int32, objects)}
	for i := range p.Holders {
		k := dist.Sample(r)
		idx := r.SampleInts(nodes, k)
		h := make([]int32, k)
		for j, v := range idx {
			h[j] = int32(v)
		}
		p.Holders[i] = h
	}
	return p, nil
}

// Result is the outcome of one search.
type Result struct {
	Found    bool
	Hops     int // hops at which the first replica was found (0 if origin holds it)
	Messages int // query transmissions
	Peers    int // peers that processed the query (excluding origin)
	Results  int // replica holders encountered (the hybrid rare-query rule counts these)
}

// Engine holds the immutable state of one (graph, placement) pair. Its
// search methods delegate to a default Searcher, so a single-goroutine
// caller can use the Engine directly; parallel trial loops give each worker
// its own Searcher via NewSearcher.
type Engine struct {
	g     *overlay.Graph
	place *Placement
	def   *Searcher
}

// Searcher carries the per-goroutine scratch of one search worker:
// epoch-stamped visited and holder marks, so no per-search map or clearing
// pass is needed, and the flood's frontier buffers. A Searcher must not be
// shared between goroutines; the Engine it was built from is read-only and
// may be shared freely.
type Searcher struct {
	e              *Engine
	mark           []int32 // visited stamp
	holderMark     []int32 // current object's holders stamp
	epoch          int32
	frontier, next []int32
}

// NewEngine builds a search engine. The placement must cover the graph's
// node set.
func NewEngine(g *overlay.Graph, p *Placement) (*Engine, error) {
	if p.Nodes != g.N() {
		return nil, fmt.Errorf("search: placement for %d nodes, graph has %d", p.Nodes, g.N())
	}
	e := &Engine{g: g, place: p}
	e.def = e.NewSearcher()
	return e, nil
}

// NewSearcher returns a fresh search worker over this engine's graph and
// placement.
func (e *Engine) NewSearcher() *Searcher {
	n := e.g.N()
	return &Searcher{e: e, mark: make([]int32, n), holderMark: make([]int32, n)}
}

// GraphN returns the number of nodes in the engine's graph.
func (e *Engine) GraphN() int { return e.g.N() }

// Flood, ExpandingRing and RandomWalk on the Engine use its default
// searcher (single-goroutine convenience).
func (e *Engine) Flood(origin, obj, ttl int) (Result, error) {
	return e.def.Flood(origin, obj, ttl)
}

func (e *Engine) ExpandingRing(origin, obj, maxTTL int) (Result, error) {
	return e.def.ExpandingRing(origin, obj, maxTTL)
}

func (e *Engine) RandomWalk(origin, obj, walkers, maxSteps int, r *rng.Source) (Result, error) {
	return e.def.RandomWalk(origin, obj, walkers, maxSteps, r)
}

// begin opens a new search epoch and stamps obj's holders, replacing the
// per-search holder map of the naive implementation with an O(replicas)
// stamping pass over a reused array.
func (s *Searcher) begin(obj int) int32 {
	s.epoch++
	if s.epoch == 1<<31-1 {
		for i := range s.mark {
			s.mark[i] = 0
			s.holderMark[i] = 0
		}
		s.epoch = 1
	}
	for _, h := range s.e.place.Holders[obj] {
		s.holderMark[h] = s.epoch
	}
	return s.epoch
}

// Flood performs a TTL-bounded flood from origin for object obj. The origin
// holding the object counts as an immediate hit at hop 0.
func (s *Searcher) Flood(origin, obj, ttl int) (Result, error) {
	e := s.e
	if err := e.check(origin, obj); err != nil {
		return Result{}, err
	}
	if ttl < 1 {
		return Result{}, fmt.Errorf("search: TTL must be at least 1, got %d", ttl)
	}
	epoch := s.begin(obj)
	res := Result{}
	if s.holderMark[origin] == epoch {
		res.Found = true
		res.Results = 1
		// The origin's own copy counts, but the flood still goes out (a
		// real servent searches its own library first and would stop; for
		// measurement we report the immediate hit).
		return res, nil
	}
	s.mark[origin] = epoch
	frontier := append(s.frontier[:0], e.g.Neighbors(origin)...)
	res.Messages = len(frontier)
	next := s.next[:0]
	found := false
	for hop := 1; hop <= ttl && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, v := range frontier {
			if s.mark[v] == epoch {
				continue
			}
			s.mark[v] = epoch
			res.Peers++
			if s.holderMark[v] == epoch {
				res.Results++
				if !found {
					found = true
					res.Found = true
					res.Hops = hop
					// A real flood keeps propagating after the first hit;
					// cost keeps accruing but the first-hit hop is kept.
				}
			}
			if hop == ttl || !e.g.Ultra(int(v)) {
				continue
			}
			for _, nb := range e.g.Neighbors(int(v)) {
				if s.mark[nb] != epoch {
					next = append(next, nb)
					res.Messages++
				}
			}
		}
		frontier, next = next, frontier
	}
	s.frontier, s.next = frontier, next
	return res, nil
}

// ExpandingRing floods with TTL 1, 2, ... maxTTL until the object is found,
// accumulating cost across rings (the classic flooding-cost reduction).
func (s *Searcher) ExpandingRing(origin, obj, maxTTL int) (Result, error) {
	if maxTTL < 1 {
		return Result{}, fmt.Errorf("search: maxTTL must be at least 1, got %d", maxTTL)
	}
	total := Result{}
	for ttl := 1; ttl <= maxTTL; ttl++ {
		res, err := s.Flood(origin, obj, ttl)
		if err != nil {
			return Result{}, err
		}
		total.Messages += res.Messages
		total.Peers += res.Peers
		if res.Found {
			total.Found = true
			total.Hops = res.Hops
			return total, nil
		}
	}
	return total, nil
}

// RandomWalk launches walkers concurrent random walks of at most maxSteps
// steps each (Lv et al. style). Walkers check every visited node for the
// object; success is any walker finding a replica.
func (s *Searcher) RandomWalk(origin, obj, walkers, maxSteps int, r *rng.Source) (Result, error) {
	e := s.e
	if err := e.check(origin, obj); err != nil {
		return Result{}, err
	}
	if walkers < 1 || maxSteps < 1 {
		return Result{}, fmt.Errorf("search: walkers and maxSteps must be positive")
	}
	epoch := s.begin(obj)
	if s.holderMark[origin] == epoch {
		return Result{Found: true, Hops: 0}, nil
	}
	s.mark[origin] = epoch
	res := Result{}
	for w := 0; w < walkers; w++ {
		cur := int32(origin)
		for step := 1; step <= maxSteps; step++ {
			nbs := e.g.Neighbors(int(cur))
			if len(nbs) == 0 {
				break
			}
			cur = nbs[r.Intn(len(nbs))]
			res.Messages++
			if s.mark[cur] != epoch {
				s.mark[cur] = epoch
				res.Peers++
			}
			if s.holderMark[cur] == epoch {
				if !res.Found || step < res.Hops {
					res.Found = true
					res.Hops = step
				}
				break
			}
		}
	}
	return res, nil
}

func (e *Engine) check(origin, obj int) error {
	if origin < 0 || origin >= e.g.N() {
		return fmt.Errorf("search: origin %d out of range", origin)
	}
	if obj < 0 || obj >= len(e.place.Holders) {
		return fmt.Errorf("search: object %d out of range", obj)
	}
	return nil
}

// SuccessRate measures the fraction of trials in which a flood at the given
// TTL finds the target, with targets chosen by pick (e.g. uniform over
// objects, or popularity-weighted) and origins uniform at random. It is
// SuccessRateN on one worker: trial i draws from the derived stream
// "trial/i", so the measured rate is identical at any worker count.
func (e *Engine) SuccessRate(ttl, trials int, pick func(r *rng.Source) int, seed uint64) (float64, error) {
	return e.SuccessRateN(ttl, trials, pick, seed, 1)
}

// SuccessRateN is SuccessRate fanned out over a bounded worker pool. Each
// trial derives its own RNG stream from the seed by trial index, so the
// result is byte-identical for every workers value. Trials run
// overlay.BatchWidth at a time through one overlay.BatchFlood per worker:
// trial i finds its object iff a holder (its origin included) has bit i
// set, which is exactly Searcher.Flood's Found. pick must be safe for
// concurrent calls (pure functions of r are).
func (e *Engine) SuccessRateN(ttl, trials int, pick func(r *rng.Source) int, seed uint64, workers int) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("search: trials must be positive")
	}
	if ttl < 1 {
		return 0, fmt.Errorf("search: TTL must be at least 1, got %d", ttl)
	}
	base := rng.NewNamed(seed, "search/success")
	type batchScratch struct {
		bf      *overlay.BatchFlood
		origins []int32
		objs    []int
	}
	batches := (trials + overlay.BatchWidth - 1) / overlay.BatchWidth
	found, err := parallel.MapWith(workers, batches,
		func() *batchScratch { return &batchScratch{bf: overlay.NewBatchFlood(e.g)} },
		func(sc *batchScratch, k int) (int, error) {
			lo, hi := k*overlay.BatchWidth, min((k+1)*overlay.BatchWidth, trials)
			sc.origins, sc.objs = sc.origins[:0], sc.objs[:0]
			for i := lo; i < hi; i++ {
				r := base.Derive(fmt.Sprintf("trial/%d", i))
				origin := r.Intn(e.g.N())
				obj := pick(r)
				if err := e.check(origin, obj); err != nil {
					return 0, err
				}
				sc.origins = append(sc.origins, int32(origin))
				sc.objs = append(sc.objs, obj)
			}
			if err := sc.bf.Run(sc.origins, ttl, nil); err != nil {
				return 0, err
			}
			hits := 0
			for j, obj := range sc.objs {
				for _, h := range e.place.Holders[obj] {
					if sc.bf.Seen(h)>>j&1 != 0 {
						hits++
						break
					}
				}
			}
			return hits, nil
		})
	if err != nil {
		return 0, err
	}
	hits := 0
	for _, n := range found {
		hits += n
	}
	return float64(hits) / float64(trials), nil
}
