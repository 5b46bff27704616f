package overlay

import (
	"fmt"
	"testing"

	"querycentric/internal/rng"
)

// oracleGraphs are the topologies the batch kernel is checked on: a
// two-tier graph, where leaves receive but never relay, and a flat one.
func oracleGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	tier, err := NewGnutella(3000, DefaultGnutellaConfig(), 21)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewErdosRenyi(600, 4, 22)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{"gnutella": tier, "er": flat}
}

// TestBatchFloodMatchesCoverage is the kernel's oracle: for every bit, the
// seen set equals {origin} ∪ Coverage.Reached(origin, ttl), and the
// per-hop counts add up to Reached's size at every smaller TTL. Batches
// mix leaf and ultrapeer origins and repeat an origin under two bits.
func TestBatchFloodMatchesCoverage(t *testing.T) {
	for name, g := range oracleGraphs(t) {
		bf := NewBatchFlood(g)
		cov := NewCoverage(g)
		r := rng.NewNamed(23, "batch-oracle")
		leaf, ultra := -1, -1
		for v := 0; v < g.N(); v++ {
			if g.Ultra(v) && ultra < 0 {
				ultra = v
			}
			if !g.Ultra(v) && leaf < 0 {
				leaf = v
			}
		}
		for ttl := 1; ttl <= 5; ttl++ {
			for _, width := range []int{1, 2, 37, BatchWidth} {
				origins := make([]int32, width)
				for i := range origins {
					origins[i] = int32(r.Intn(g.N()))
				}
				origins[0] = int32(ultra)
				if width > 1 {
					origins[width-1] = origins[0] // two floods, one origin
				}
				if leaf >= 0 && width > 2 {
					origins[1] = int32(leaf)
				}
				newAt := make([][BatchWidth]int32, ttl)
				if err := bf.Run(origins, ttl, newAt); err != nil {
					t.Fatal(err)
				}
				for i, o := range origins {
					want := map[int32]bool{o: true}
					for _, v := range cov.Reached(int(o), ttl) {
						want[v] = true
					}
					got := 0
					for v := 0; v < g.N(); v++ {
						if bf.Seen(int32(v))>>i&1 == 0 {
							continue
						}
						got++
						if !want[int32(v)] {
							t.Fatalf("%s ttl=%d width=%d bit %d (origin %d): vertex %d seen, not reached", name, ttl, width, i, o, v)
						}
					}
					if got != len(want) {
						t.Fatalf("%s ttl=%d width=%d bit %d (origin %d): seen %d vertices, want %d", name, ttl, width, i, o, got, len(want))
					}
					sum := int32(0)
					for h := 1; h <= ttl; h++ {
						sum += newAt[h-1][i]
						if n := len(cov.Reached(int(o), h)); int(sum) != n {
							t.Fatalf("%s ttl=%d bit %d: %d vertices by hop %d, Reached has %d", name, ttl, i, sum, h, n)
						}
					}
				}
				for i := len(origins); i < BatchWidth; i++ {
					for v := 0; v < g.N(); v++ {
						if bf.Seen(int32(v))>>i&1 != 0 {
							t.Fatalf("%s ttl=%d width=%d: unused bit %d set at vertex %d", name, ttl, width, i, v)
						}
					}
				}
			}
		}
	}
}

func TestBatchFloodValidation(t *testing.T) {
	g, err := NewErdosRenyi(50, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	bf := NewBatchFlood(g)
	if err := bf.Run(make([]int32, BatchWidth+1), 2, nil); err == nil {
		t.Error("65 floods accepted")
	}
	if err := bf.Run([]int32{50}, 2, nil); err == nil {
		t.Error("out-of-range origin accepted")
	}
	if err := bf.Run([]int32{0}, 2, make([][BatchWidth]int32, 3)); err == nil {
		t.Error("hop rows not matching the TTL accepted")
	}
	// TTL 0 processes the origins only, and leaves nothing behind for the
	// next run.
	if err := bf.Run([]int32{3, 4}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if bf.Seen(3) != 1 || bf.Seen(4) != 2 || bf.Seen(5) != 0 {
		t.Errorf("TTL 0 seen words: %b %b %b", bf.Seen(3), bf.Seen(4), bf.Seen(5))
	}
	if err := bf.Run([]int32{10}, 1, nil); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		want := uint64(0)
		if v == 10 || g.HasEdge(v, 10) {
			want = 1
		}
		if bf.Seen(int32(v)) != want {
			t.Errorf("after TTL 0 run: vertex %d seen %b, want %b", v, bf.Seen(int32(v)), want)
		}
	}
}

// TestCoverageStatsMatchPerTTLFloods checks the batched CoverageStatsN and
// MeanQueryHopsN bit for bit against per-sample, per-TTL Coverage floods,
// over sample counts on both sides of a batch edge and at 1 and 4 workers.
func TestCoverageStatsMatchPerTTLFloods(t *testing.T) {
	for name, g := range oracleGraphs(t) {
		cov := NewCoverage(g)
		for _, samples := range []int{1, 63, 64, 65, 130} {
			const maxTTL = 4
			fracs := make([]float64, maxTTL)
			base := rng.NewNamed(31, "overlay/coverage")
			for i := 0; i < samples; i++ {
				origin := base.Derive(fmt.Sprintf("sample/%d", i)).Intn(g.N())
				for ttl := 1; ttl <= maxTTL; ttl++ {
					fracs[ttl-1] += float64(len(cov.Reached(origin, ttl))) / float64(g.N())
				}
			}
			for i := range fracs {
				fracs[i] /= float64(samples)
			}
			var hops, peers float64
			base = rng.NewNamed(32, "overlay/hops")
			for i := 0; i < samples; i++ {
				origin := base.Derive(fmt.Sprintf("sample/%d", i)).Intn(g.N())
				prev := 0
				for ttl := 1; ttl <= 3; ttl++ {
					n := len(cov.Reached(origin, ttl))
					hops += float64(ttl * (n - prev))
					peers += float64(n - prev)
					prev = n
				}
			}
			wantHops := hops / peers
			for _, workers := range []int{1, 4} {
				got, err := CoverageStatsN(g, maxTTL, samples, 31, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != fracs[i] {
						t.Errorf("%s samples=%d workers=%d: coverage %v, want %v", name, samples, workers, got, fracs)
						break
					}
				}
				h, err := MeanQueryHopsN(g, 3, samples, 32, workers)
				if err != nil {
					t.Fatal(err)
				}
				if h != wantHops {
					t.Errorf("%s samples=%d workers=%d: mean hops %v, want %v", name, samples, workers, h, wantHops)
				}
			}
		}
	}
}

// TestCoverageEpochWrap starts the epoch just below the reset point, with
// every stamp left over from epoch 1: the engine must clear the stamps
// rather than reuse epoch 1, or the stale stamps would read as visited.
func TestCoverageEpochWrap(t *testing.T) {
	g, err := NewErdosRenyi(300, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	cov := NewCoverage(g)
	for i := range cov.mark {
		cov.mark[i] = 1
	}
	cov.epoch = 1<<31 - 4
	for trial := 0; trial < 6; trial++ {
		origin := trial * 11 % g.N()
		want := len(g.BFS(origin, 3))
		if got := len(cov.Reached(origin, 3)); got != want {
			t.Fatalf("call %d (epoch %d): reached %d, want %d", trial, cov.epoch, got, want)
		}
		if cov.epoch <= 0 {
			t.Fatalf("call %d: epoch %d wrapped", trial, cov.epoch)
		}
	}
}
