package overlay

import (
	"fmt"

	"querycentric/internal/parallel"
	"querycentric/internal/rng"
)

// BFS computes the set of vertices a TTL-bounded flood from origin
// processes, excluding the origin itself. In two-tier graphs only
// ultrapeers relay (leaves receive but do not forward), matching Gnutella
// semantics. It allocates a fresh engine per call; sweeps over many origins
// reuse one Coverage instead.
func (g *Graph) BFS(origin, ttl int) []int32 {
	return NewCoverage(g).Reached(origin, ttl)
}

// Coverage is a reusable TTL-bounded flood engine over one graph.
type Coverage struct {
	g              *Graph
	mark           []int32 // visited stamp
	epoch          int32
	buf            []int32
	frontier, next []int32
}

// NewCoverage creates a reusable engine.
func NewCoverage(g *Graph) *Coverage {
	return &Coverage{g: g, mark: make([]int32, g.N())}
}

// Reached returns the vertices processed by a TTL-bounded flood from
// origin (origin excluded), in processing order. The returned slice is
// reused by the next call.
func (c *Coverage) Reached(origin, ttl int) []int32 {
	c.buf = c.buf[:0]
	g := c.g
	if origin < 0 || origin >= g.n || ttl < 1 {
		return c.buf
	}
	c.epoch++
	if c.epoch == 1<<31-1 {
		// Stale stamps must never equal a live epoch: start over from a
		// cleared array rather than wrapping.
		clear(c.mark)
		c.epoch = 1
	}
	epoch := c.epoch
	c.mark[origin] = epoch
	frontier := append(c.frontier[:0], g.adj[origin]...)
	next := c.next[:0]
	for hop := 1; hop <= ttl && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, v := range frontier {
			if c.mark[v] == epoch {
				continue
			}
			c.mark[v] = epoch
			c.buf = append(c.buf, v)
			if hop == ttl || !g.Ultra(int(v)) {
				continue
			}
			for _, nb := range g.adj[v] {
				if c.mark[nb] != epoch {
					next = append(next, nb)
				}
			}
		}
		frontier, next = next, frontier
	}
	c.frontier, c.next = frontier, next
	return c.buf
}

// CoverageStats reports the mean fraction of the network processed by
// floods at each TTL in 1..maxTTL, averaged over sample random origins —
// the quantity behind the paper's "TTL 1..5 reach 0.05%...82.95%" table.
// It is CoverageStatsN on one worker.
func CoverageStats(g *Graph, maxTTL, samples int, seed uint64) ([]float64, error) {
	return CoverageStatsN(g, maxTTL, samples, seed, 1)
}

// CoverageStatsN is CoverageStats fanned out over a bounded worker pool.
// Sample i draws its origin from the derived stream "sample/i"; one batch
// flood to maxTTL answers every TTL at once, and per-sample fractions are
// summed in sample order, so the result is byte-identical for every
// workers value.
func CoverageStatsN(g *Graph, maxTTL, samples int, seed uint64, workers int) ([]float64, error) {
	if maxTTL < 1 {
		return nil, fmt.Errorf("overlay: maxTTL must be positive, got %d", maxTTL)
	}
	if samples < 1 {
		return nil, fmt.Errorf("overlay: samples must be positive, got %d", samples)
	}
	perSample, err := sampleHopCounts(g, maxTTL, samples, rng.NewNamed(seed, "overlay/coverage"), workers)
	if err != nil {
		return nil, err
	}
	sums := make([]float64, maxTTL)
	for _, counts := range perSample { // sample order: bit-identical floats
		reached := int32(0)
		for i, c := range counts {
			reached += c
			sums[i] += float64(reached) / float64(g.N())
		}
	}
	for i := range sums {
		sums[i] /= float64(samples)
	}
	return sums, nil
}

// MeanQueryHops estimates the mean number of hops a query takes to reach a
// processed peer under a TTL-bounded flood (the paper cites 2.47 hops mean
// for queries observed in 2006). It is MeanQueryHopsN on one worker.
func MeanQueryHops(g *Graph, ttl, samples int, seed uint64) (float64, error) {
	return MeanQueryHopsN(g, ttl, samples, seed, 1)
}

// MeanQueryHopsN is MeanQueryHops fanned out over a bounded worker pool.
// Sample i draws its origin from the derived stream "sample/i"; the
// per-sample (hops, peers) tallies are summed in sample order, so the
// result is byte-identical for every workers value.
func MeanQueryHopsN(g *Graph, ttl, samples int, seed uint64, workers int) (float64, error) {
	if ttl < 1 || samples < 1 {
		return 0, fmt.Errorf("overlay: invalid ttl %d or samples %d", ttl, samples)
	}
	perSample, err := sampleHopCounts(g, ttl, samples, rng.NewNamed(seed, "overlay/hops"), workers)
	if err != nil {
		return 0, err
	}
	var totalHops, totalPeers float64
	for _, counts := range perSample {
		for i, c := range counts {
			totalHops += float64(i+1) * float64(c)
			totalPeers += float64(c)
		}
	}
	if totalPeers == 0 {
		return 0, fmt.Errorf("overlay: floods reached no peers")
	}
	return totalHops / totalPeers, nil
}

// sampleHopCounts floods from each sample's origin, drawn from base's
// derived stream "sample/i", to maxTTL, BatchWidth samples per kernel pass.
// It returns, in sample order, how many vertices each flood processes
// first at each hop 1..maxTTL.
func sampleHopCounts(g *Graph, maxTTL, samples int, base *rng.Source, workers int) ([][]int32, error) {
	batches := (samples + BatchWidth - 1) / BatchWidth
	perBatch, err := parallel.MapWith(workers, batches,
		func() *BatchFlood { return NewBatchFlood(g) },
		func(bf *BatchFlood, k int) ([][]int32, error) {
			lo, hi := k*BatchWidth, min((k+1)*BatchWidth, samples)
			origins := make([]int32, 0, hi-lo)
			for i := lo; i < hi; i++ {
				origins = append(origins, int32(base.Derive(fmt.Sprintf("sample/%d", i)).Intn(g.N())))
			}
			newAt := make([][BatchWidth]int32, maxTTL)
			if err := bf.Run(origins, maxTTL, newAt); err != nil {
				return nil, err
			}
			out := make([][]int32, len(origins))
			for j := range out {
				out[j] = make([]int32, maxTTL)
				for h := range newAt {
					out[j][h] = newAt[h][j]
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	perSample := make([][]int32, 0, samples)
	for _, b := range perBatch {
		perSample = append(perSample, b...)
	}
	return perSample, nil
}
