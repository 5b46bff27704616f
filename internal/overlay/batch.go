package overlay

import (
	"fmt"
	"math/bits"
)

// BatchWidth is the number of floods one BatchFlood pass carries: flood i
// owns bit i of a uint64 per vertex.
const BatchWidth = 64

// BatchFlood runs up to BatchWidth TTL-bounded floods over one graph in a
// single wavefront pass. Each vertex has three words: seen (processed, the
// origin included), front (first reached at the current hop) and next
// (first reached at the following hop). Every origin sends at hop 1; after
// that only ultrapeers relay, so bit i of Seen is exactly
// {origins[i]} ∪ Coverage.Reached(origins[i], ttl).
//
// A BatchFlood is per-goroutine scratch (the trial engines create one per
// worker); the graph it floods is shared read-only.
type BatchFlood struct {
	g                 *Graph
	seen, front, next []uint64
	touched           []int32 // vertices with a nonzero seen word
	active, upcoming  []int32 // vertices with a nonzero front / next word
}

// NewBatchFlood returns a batch flood kernel over g.
func NewBatchFlood(g *Graph) *BatchFlood {
	n := g.N()
	return &BatchFlood{g: g, seen: make([]uint64, n), front: make([]uint64, n), next: make([]uint64, n)}
}

// Run floods from origins[i] under bit i for ttl hops, replacing the
// previous run's result; two floods may share an origin. If newAt is
// non-nil it must have ttl rows, and newAt[h-1][i] is set to the number of
// vertices flood i processes first at hop h, so the vertices a flood to TTL
// t reaches are the sum of its first t rows.
func (b *BatchFlood) Run(origins []int32, ttl int, newAt [][BatchWidth]int32) error {
	if len(origins) > BatchWidth {
		return fmt.Errorf("overlay: %d floods in one batch, at most %d", len(origins), BatchWidth)
	}
	if newAt != nil && len(newAt) != ttl {
		return fmt.Errorf("overlay: %d hop rows for TTL %d", len(newAt), ttl)
	}
	for _, o := range origins {
		if o < 0 || int(o) >= b.g.n {
			return fmt.Errorf("overlay: origin %d out of range", o)
		}
	}
	for _, v := range b.touched {
		b.seen[v] = 0
	}
	b.touched, b.active = b.touched[:0], b.active[:0]
	for i, o := range origins {
		if b.seen[o] == 0 {
			b.touched = append(b.touched, o)
			b.active = append(b.active, o)
		}
		b.seen[o] |= 1 << i
		b.front[o] |= 1 << i
	}
	for h := range newAt {
		newAt[h] = [BatchWidth]int32{}
	}
	adj, ultra := b.g.adj, b.g.ultra
	for hop := 1; hop <= ttl && len(b.active) > 0; hop++ {
		// The last hop only marks what it reaches: nothing relays after it.
		relay := hop < ttl
		var counts *[BatchWidth]int32
		if newAt != nil {
			counts = &newAt[hop-1]
		}
		b.upcoming = b.upcoming[:0]
		for _, v := range b.active {
			f := b.front[v]
			b.front[v] = 0
			for _, u := range adj[v] {
				s := b.seen[u]
				fresh := f &^ s
				if fresh == 0 {
					continue
				}
				if s == 0 {
					b.touched = append(b.touched, u)
				}
				b.seen[u] = s | fresh
				if counts != nil {
					for w := fresh; w != 0; w &= w - 1 {
						counts[bits.TrailingZeros64(w)]++
					}
				}
				if relay && (ultra == nil || ultra[u]) {
					if b.next[u] == 0 {
						b.upcoming = append(b.upcoming, u)
					}
					b.next[u] |= fresh
				}
			}
		}
		b.front, b.next = b.next, b.front
		b.active, b.upcoming = b.upcoming, b.active
	}
	// A flood that stopped early (ttl < 1) leaves its origins' words set.
	for _, v := range b.active {
		b.front[v] = 0
	}
	b.active = b.active[:0]
	return nil
}

// Seen returns v's seen word from the last Run: bit i is set iff flood i
// processed v (its origin included).
func (b *BatchFlood) Seen(v int32) uint64 { return b.seen[v] }
