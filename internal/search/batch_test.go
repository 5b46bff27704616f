package search

import (
	"fmt"
	"testing"

	"querycentric/internal/overlay"
	"querycentric/internal/rng"
)

// TestSuccessRateMatchesPerTrialFloods is SuccessRateN's oracle: the
// batched rate must equal the share of per-trial Searcher.Flood hits over
// the same derived (origin, object) streams, on a two-tier and a flat
// graph, at TTL 1-5, for trial counts on both sides of a batch edge and at
// 1 and 4 workers. The placement puts replicas on leaves and ultrapeers
// alike, and one object is held by every tenth node, so some trials start
// on a leaf and some at a holder.
func TestSuccessRateMatchesPerTrialFloods(t *testing.T) {
	tier, err := overlay.NewGnutella(2000, overlay.DefaultGnutellaConfig(), 41)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := overlay.NewErdosRenyi(500, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*overlay.Graph{"gnutella": tier, "er": flat} {
		p, err := ZipfPlacement(g.N(), 40, 2.45, g.N()/20, 43)
		if err != nil {
			t.Fatal(err)
		}
		common := make([]int32, 0, g.N()/10)
		for v := 0; v < g.N(); v += 10 {
			common = append(common, int32(v))
		}
		p.Holders = append(p.Holders, common)
		objects := len(p.Holders)
		eng, err := NewEngine(g, p)
		if err != nil {
			t.Fatal(err)
		}
		pick := func(r *rng.Source) int { return r.Intn(objects) }
		s := eng.NewSearcher()
		var leafOrigins, holderOrigins int
		for ttl := 1; ttl <= 5; ttl++ {
			for _, trials := range []int{1, 63, 64, 65, 200} {
				seed := uint64(100*ttl + trials)
				base := rng.NewNamed(seed, "search/success")
				hits := 0
				for i := 0; i < trials; i++ {
					r := base.Derive(fmt.Sprintf("trial/%d", i))
					origin := r.Intn(g.N())
					obj := pick(r)
					res, err := s.Flood(origin, obj, ttl)
					if err != nil {
						t.Fatal(err)
					}
					if res.Found {
						hits++
					}
					if !g.Ultra(origin) {
						leafOrigins++
					}
					if res.Found && res.Hops == 0 {
						holderOrigins++
					}
				}
				want := float64(hits) / float64(trials)
				for _, workers := range []int{1, 4} {
					got, err := eng.SuccessRateN(ttl, trials, pick, seed, workers)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s ttl=%d trials=%d workers=%d: rate %v, per-trial floods %v", name, ttl, trials, workers, got, want)
					}
				}
			}
		}
		if name == "gnutella" && leafOrigins == 0 {
			t.Errorf("%s: no trial started on a leaf", name)
		}
		if holderOrigins == 0 {
			t.Errorf("%s: no trial started at a holder", name)
		}
	}
}

func TestSuccessRateValidation(t *testing.T) {
	g := ringGraph(t, 10)
	e, err := NewEngine(g, placementAt(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	pick := func(r *rng.Source) int { return 0 }
	if _, err := e.SuccessRateN(0, 5, pick, 1, 1); err == nil {
		t.Error("TTL 0 accepted")
	}
	if _, err := e.SuccessRateN(2, 0, pick, 1, 1); err == nil {
		t.Error("zero trials accepted")
	}
	bad := func(r *rng.Source) int { return 1 }
	if _, err := e.SuccessRateN(2, 70, bad, 1, 4); err == nil {
		t.Error("out-of-range object accepted")
	}
}
