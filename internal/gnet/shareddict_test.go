package gnet

import (
	"reflect"
	"strings"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/rng"
)

// handAssembledNet builds a network the way the adaptive head-to-head
// does: New plus Library assignments, with no catalog and so no shared
// dictionary until BuildIndexes runs.
func handAssembledNet(t *testing.T, peers int) *Network {
	t.Helper()
	cat, err := catalog.Build(catalog.Config{
		Seed: 8, Peers: peers, UniqueObjects: peers * 20, ReplicaAlpha: 2.45,
		VariantProb: 0.05, NonSpecificPeerFrac: 0.03,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(DefaultConfig(8), peers)
	if err != nil {
		t.Fatal(err)
	}
	sizes := NewFileSizeRNG(8)
	for id, lib := range cat.Libraries {
		files := make([]File, len(lib))
		for i, name := range lib {
			files[i] = File{Index: uint32(i), Size: DrawFileSize(sizes), Name: name}
		}
		nw.Peers[id].Library = files
	}
	return nw
}

// sharedDictQueries is the oracle's query mix: single-term, multi-term,
// an unknown term conjoined with known ones, and the keywordless cases
// (browse, empty, punctuation only).
func sharedDictQueries(t *testing.T, nw *Network) []string {
	t.Helper()
	qs := []string{BrowseCriteria, "", "--"}
	for i := 0; i < 6; i++ {
		name := fileOf(t, nw, i*29+5)
		qs = append(qs, name, strings.Fields(name)[0], name+" zqxjkwv")
	}
	return qs
}

// assertTwinFloods floods both networks from sampled origins at TTL 1–4
// with path capture on and requires identical FloodResults and answer
// paths.
func assertTwinFloods(t *testing.T, shared, lazy *Network, queries []string) {
	t.Helper()
	cs, cl := shared.NewFloodCtx(), lazy.NewFloodCtx()
	cs.SetPathCapture(true)
	cl.SetPathCapture(true)
	hits := 0
	for qi, q := range queries {
		for ttl := 1; ttl <= 4; ttl++ {
			origin := (qi*37 + ttl*11) % len(shared.Peers)
			seed := uint64(qi*8 + ttl)
			want, err := cl.Flood(origin, q, ttl, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			got, err := cs.Flood(origin, q, ttl, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %q ttl %d from %d: shared-dictionary flood diverged:\n%+v\nvs\n%+v",
					q, ttl, origin, got, want)
			}
			for _, h := range got.Hits {
				if ps, pl := cs.AnswerPath(h.PeerID), cl.AnswerPath(h.PeerID); !reflect.DeepEqual(ps, pl) {
					t.Fatalf("query %q ttl %d: answer path to %d diverged: %v vs %v", q, ttl, h.PeerID, ps, pl)
				}
			}
			hits += len(got.Hits)
		}
	}
	if hits == 0 {
		t.Fatal("no flood produced a hit; workload too weak to compare match paths")
	}
}

// TestSharedDictMatchesPerPeerDicts is the oracle for the shared
// dictionary BuildIndexes gives hand-assembled networks: floods over it
// must equal floods over the lazy per-peer dictionaries — hits, file
// order, messages, QRP decisions and answer paths — before and after
// AddFile installs a replica of a known name and a name with a novel term.
func TestSharedDictMatchesPerPeerDicts(t *testing.T) {
	for _, qrpOn := range []bool{false, true} {
		name := "plain"
		if qrpOn {
			name = "qrp"
		}
		t.Run(name, func(t *testing.T) {
			shared := handAssembledNet(t, 160)
			lazy := handAssembledNet(t, 160)
			if shared.TermDict() != nil {
				t.Fatal("hand-assembled network has a dictionary before BuildIndexes")
			}
			if err := shared.BuildIndexes(2); err != nil {
				t.Fatal(err)
			}
			d := shared.TermDict()
			if d == nil {
				t.Fatal("BuildIndexes left the hand-assembled network without a shared dictionary")
			}
			for _, p := range shared.Peers {
				if p.dict != d {
					t.Fatalf("peer %d not on the shared dictionary", p.ID)
				}
			}
			enableQRP := func() {
				if !qrpOn {
					return
				}
				for _, nw := range []*Network{shared, lazy} {
					if err := nw.EnableQRP(16); err != nil {
						t.Fatal(err)
					}
				}
			}
			enableQRP()
			queries := sharedDictQueries(t, shared)
			assertTwinFloods(t, shared, lazy, queries)
			if lazy.TermDict() != nil {
				t.Fatal("lazily indexed network gained a shared dictionary")
			}

			// A replica of a known name stays on the shared dictionary; a
			// novel term forces a peer-local fallback.
			const replicaPeer, novelPeer = 3, 4
			const novel = "zzqx unseen replica token"
			replica := fileOf(t, shared, 17)
			for _, nw := range []*Network{shared, lazy} {
				if err := nw.AddFile(replicaPeer, replica, 4096); err != nil {
					t.Fatal(err)
				}
				if err := nw.AddFile(novelPeer, novel, 1); err != nil {
					t.Fatal(err)
				}
			}
			enableQRP()
			for _, id := range []int{replicaPeer, novelPeer} {
				for _, q := range []string{replica, novel, "zzqx"} {
					if got, want := shared.Peers[id].Match(q), lazy.Peers[id].Match(q); !reflect.DeepEqual(got, want) {
						t.Fatalf("peer %d Match(%q) after AddFile: %v vs %v", id, q, got, want)
					}
				}
			}
			if shared.Peers[replicaPeer].dict != d {
				t.Fatal("replica of a known name moved its peer off the shared dictionary")
			}
			if shared.Peers[novelPeer].dict == d {
				t.Fatal("novel-term peer did not fall back to a local dictionary")
			}
			queries = append(queries, replica, novel, "zzqx")
			assertTwinFloods(t, shared, lazy, queries)
			// A TTL-1 flood from each mutated peer's neighbor reaches it and
			// finds the installed file down both paths.
			for id, q := range map[int]string{replicaPeer: replica, novelPeer: novel} {
				nb := shared.Peers[id].Neighbors[0]
				a, err := shared.Flood(nb, q, 1, rng.New(5))
				if err != nil {
					t.Fatal(err)
				}
				b, err := lazy.Flood(nb, q, 1, rng.New(5))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("TTL-1 flood of %q from %d diverged:\n%+v\nvs\n%+v", q, nb, a, b)
				}
				found := false
				for _, h := range a.Hits {
					found = found || h.PeerID == id
				}
				if !found {
					t.Fatalf("TTL-1 flood of %q from %d missed peer %d's installed file", q, nb, id)
				}
			}
		})
	}
}

// TestSharedDictWorkerInvariant: the shared dictionary and every index
// built over it are identical for any BuildIndexes worker count.
func TestSharedDictWorkerInvariant(t *testing.T) {
	one, eight := handAssembledNet(t, 160), handAssembledNet(t, 160)
	if err := one.BuildIndexes(1); err != nil {
		t.Fatal(err)
	}
	if err := eight.BuildIndexes(8); err != nil {
		t.Fatal(err)
	}
	a, err := one.IndexChecksum()
	if err != nil {
		t.Fatal(err)
	}
	b, err := eight.IndexChecksum()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("index checksum at 1 worker %#x != at 8 workers %#x", a, b)
	}
}

// TestSharedDictSkippedAfterLazyIndexing: once a peer holds a dictionary
// of its own, BuildIndexes must not retrofit a shared one (the peer's
// index IDs would no longer match it).
func TestSharedDictSkippedAfterLazyIndexing(t *testing.T) {
	nw := handAssembledNet(t, 60)
	nw.Peers[0].Match("anything")
	if err := nw.BuildIndexes(1); err != nil {
		t.Fatal(err)
	}
	if nw.TermDict() != nil {
		t.Fatal("BuildIndexes built a shared dictionary after a peer was indexed lazily")
	}
	if _, err := nw.ExportState(); err == nil {
		t.Fatal("ExportState accepted a network without a shared dictionary")
	}
}

// TestIndexStatsCountsLocalDicts: IndexStats.HeapBytes includes the
// peer-local dictionary a novel-term AddFile forces, counted once.
func TestIndexStatsCountsLocalDicts(t *testing.T) {
	nw := handAssembledNet(t, 120)
	before, err := nw.IndexStats()
	if err != nil {
		t.Fatal(err)
	}
	p := nw.Peers[7]
	oldIdx := p.idx.heapBytes()
	if err := nw.AddFile(p.ID, "zzqx unseen replica token", 1); err != nil {
		t.Fatal(err)
	}
	after, err := nw.IndexStats()
	if err != nil {
		t.Fatal(err)
	}
	if p.dict == nw.TermDict() {
		t.Fatal("novel-term peer did not fall back to a local dictionary")
	}
	local := p.dict.HeapBytes()
	if after.HeapBytes < before.HeapBytes+local {
		t.Fatalf("HeapBytes grew %d → %d, less than the %d-byte local dictionary",
			before.HeapBytes, after.HeapBytes, local)
	}
	if want := before.HeapBytes - oldIdx + p.idx.heapBytes() + local; after.HeapBytes != want {
		t.Fatalf("HeapBytes = %d, want %d (index swap plus one local dictionary)", after.HeapBytes, want)
	}
}
