package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"querycentric/internal/capacity"
	"querycentric/internal/catalog"
	"querycentric/internal/gnet"
	"querycentric/internal/obs"
	"querycentric/internal/querygen"
	"querycentric/internal/rng"
	"querycentric/internal/snapshot"
)

// wireConfig sizes the wire-mismatch workload.
type wireConfig struct {
	peers, objects int
	streams        int // independent query streams, each with its own vocabulary
	queries        int // queries per stream; every unit replays every stream once
	ttl            int
	checkEvery     int   // every checkEvery-th query of the first pass is checked against the oracle
	probeEvery     int   // every probeEvery-th query of a traced pass is probed layer by layer
	termSample     int   // file terms are ranked over every termSample-th library
	loadEvery      int   // every loadEvery-th query is flooded again in the loaded pass
	loadStepS      int64 // simulated seconds between two loaded floods
}

// wireWorkload floods the paper's mismatched query stream over a two-tier
// population ten times the default scale, restored from a mapped snapshot:
// most query terms are absent from the file dictionary, so most per-peer
// probes end at the dictionary lookup or the membership filter. Each unit
// then floods a sample of the stream again through a bounded-ingress
// capacity plane (the loaded pass).
type wireWorkload struct {
	o   options
	c   wireConfig
	reg *obs.Registry

	nw        *gnet.Network
	ctx       *gnet.FloodCtx
	snapBytes int64
	criteria  []string
	origins   []int
	floodSeed []uint64

	passes int
	hashes []uint64 // per-query output fingerprints from the first pass
	checks []floodCheck
	prober prober

	loadHashes   []uint64 // loaded-pass fingerprints from the first pass, then its plane's tallies
	loadFloods   int      // floods per loaded pass
	tracedLoads  int      // loaded passes run attached to the registry
	unconserved  int      // loaded passes whose plane lost or invented messages
	lastCapStats capacity.Stats
	lastBacklog  int64
}

// floodCheck is one first-pass flood kept for the oracle check.
type floodCheck struct {
	origin   int
	criteria string
	reached  int
	hits     map[int]int // hit peer -> matching files
}

func newWire(o options) *wireWorkload {
	c := wireConfig{peers: 10000, objects: 810000, streams: 32, queries: 400, ttl: 3, checkEvery: 64, probeEvery: 16, termSample: 10,
		loadEvery: 4, loadStepS: 1}
	if o.small {
		c = wireConfig{peers: 400, objects: 16000, streams: 2, queries: 100, ttl: 3, checkEvery: 4, probeEvery: 2, termSample: 2,
			loadEvery: 2, loadStepS: 10}
	}
	return &wireWorkload{o: o, c: c}
}

func (w *wireWorkload) setup(tr *tracer) error {
	ccfg := catalog.DefaultConfig(w.o.seed)
	ccfg.Peers, ccfg.UniqueObjects = w.c.peers, w.c.objects
	var cat *catalog.Catalog
	if err := tr.do("catalog.build", -1, -1, func() (err error) {
		cat, err = catalog.BuildWorkers(ccfg, workers())
		return err
	}); err != nil {
		return err
	}
	terms := rankedFileTerms(cat.Libraries, w.c.termSample)
	// Collecting between stages makes each stage start from its live data
	// alone, so the peak resident size depends on what the stages hold, not
	// on where the collector's pacing happened to fall.
	runtime.GC()
	var built *gnet.Network
	if err := tr.do("gnet.build", -1, -1, func() (err error) {
		built, err = gnet.NewFromCatalogWorkers(gnet.DefaultConfig(w.o.seed), cat, workers())
		return err
	}); err != nil {
		return err
	}
	cat = nil
	runtime.GC()
	path := filepath.Join(w.o.workDir(), "wire.qcsnap")
	if err := tr.do("snapshot.save", -1, -1, func() (err error) {
		w.snapBytes, err = snapshot.Save(path, built, workers())
		return err
	}); err != nil {
		return err
	}
	built = nil
	runtime.GC()
	if err := tr.do("snapshot.load_mapped", -1, -1, func() (err error) {
		w.nw, err = snapshot.LoadMapped(path, workers())
		return err
	}); err != nil {
		return err
	}
	w.ctx = w.nw.NewFloodCtx()

	// Each stream draws its own persistent core vocabulary, so one run
	// averages over several vocabularies rather than hanging on one draw.
	w.criteria = w.criteria[:0]
	for k := 0; k < w.c.streams; k++ {
		qcfg := querygen.DefaultConfig(subSeed(w.o.seed, "wire-mismatch/stream", k))
		qcfg.Queries = w.c.queries
		qcfg.FileTerms = terms
		var wl *querygen.Workload
		if err := tr.do("querygen.generate", -1, -1, func() (err error) {
			wl, err = querygen.Generate(qcfg)
			return err
		}); err != nil {
			return err
		}
		for _, r := range wl.Trace.Records {
			w.criteria = append(w.criteria, r.Query)
		}
	}
	r := rng.NewNamed(w.o.seed, "benchmark/wire-mismatch")
	w.origins, w.floodSeed = make([]int, len(w.criteria)), make([]uint64, len(w.criteria))
	for i := range w.criteria {
		w.origins[i] = r.Intn(w.c.peers)
		w.floodSeed[i] = r.Uint64()
	}
	w.passes, w.hashes, w.checks, w.prober = 0, make([]uint64, len(w.criteria)), nil, prober{}
	w.loadHashes, w.tracedLoads, w.unconserved = nil, 0, 0
	return nil
}

// rankedFileTerms ranks the terms of the shared file names by how many
// names carry them, most first (ties by term), over every every-th library:
// the file vocabulary the query generator overlaps (Fig. 7).
func rankedFileTerms(libs [][]string, every int) []string {
	count := make(map[string]int)
	for p := 0; p < len(libs); p += every {
		for _, name := range libs[p] {
			for _, t := range gnet.TokenizeQuery(name) {
				count[t]++
			}
		}
	}
	terms := make([]string, 0, len(count))
	for t := range count {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		if count[terms[i]] != count[terms[j]] {
			return count[terms[i]] > count[terms[j]]
		}
		return terms[i] < terms[j]
	})
	return terms
}

func (w *wireWorkload) instrument(reg *obs.Registry) {
	w.reg = reg
	w.nw.Instrument(reg, nil)
}

// subSeed derives the seed of the k-th independent draw a workload makes
// from the run's seed.
func subSeed(seed uint64, name string, k int) uint64 {
	return rng.NewNamed(seed, fmt.Sprintf("benchmark/%s/%d", name, k)).Uint64()
}

// unit floods every query of the pass once, from one goroutine, each after
// the previous one returns, then runs the loaded pass.
func (w *wireWorkload) unit(tr *tracer) (unitResult, error) {
	first := w.passes == 0
	ur := unitResult{queries: len(w.criteria)}
	for i, crit := range w.criteria {
		q := tr.begin("query", -1, int64(i))
		fl := tr.begin("gnet.flood", q, int64(i))
		res, err := w.ctx.Flood(w.origins[i], crit, w.c.ttl, rng.New(w.floodSeed[i]))
		tr.end(fl, 1)
		if err != nil {
			ur.failed++
			tr.end(q, 1)
			continue
		}
		h := floodHash(res)
		switch {
		case first:
			w.hashes[i] = h
			if i%w.c.checkEvery == 0 {
				w.checks = append(w.checks, newFloodCheck(w.origins[i], res))
			}
		case h != w.hashes[i]:
			ur.failed++
		}
		if tr != nil && i%w.c.probeEvery == 0 {
			if err := w.prober.probe(tr, q, int64(i), w.nw, w.origins[i], crit, w.c.ttl, res); err != nil {
				return ur, err
			}
		}
		tr.end(q, 1)
	}
	floods, failed, err := w.loadedPass(tr, first)
	ur.queries += floods
	ur.failed += failed
	w.passes++
	return ur, err
}

// loadedPass floods every loadEvery-th query of the stream again, one
// simulated loadStepS apart, through a fresh TTL-aware capacity plane with
// circuit breakers: each peer queues at most 16 messages and serves one per
// 10 simulated seconds, so busy ultrapeers shed. The plane's clock advances
// before every flood and its admissions fold every CommitEvery floods, as
// events.Scenario does. Every loaded pass must repeat the first one's
// floods, and its plane must conserve messages: every message it enqueued
// was served or is still queued. The gnet counters stay detached, so they
// describe the unloaded floods alone.
func (w *wireWorkload) loadedPass(tr *tracer, first bool) (floods, failed int, err error) {
	ccfg := capacity.DefaultConfig(w.o.seed)
	ccfg.Policy, ccfg.Breakers = capacity.TTLAware, true
	pl, err := capacity.New(ccfg, len(w.nw.Peers))
	if err != nil {
		return 0, 0, err
	}
	pl.Instrument(w.reg)
	w.nw.Instrument(nil, nil)
	w.nw.SetCapacity(pl)
	defer func() {
		w.nw.SetCapacity(nil)
		w.nw.Instrument(w.reg, nil)
	}()
	var now int64
	for i := 0; i < len(w.criteria); i += w.c.loadEvery {
		now = int64(floods) * w.c.loadStepS
		q := tr.begin("query", -1, int64(i))
		id := tr.begin("capacity.advance", q, int64(i))
		pl.Advance(now)
		tr.end(id, 1)
		id = tr.begin("gnet.flood_loaded", q, int64(i))
		res, err := w.ctx.Flood(w.origins[i], w.criteria[i], w.c.ttl, rng.New(w.floodSeed[i]))
		tr.end(id, 1)
		if err != nil {
			failed++
		} else if h := floodHash(res); first {
			w.loadHashes = append(w.loadHashes, h)
		} else if h != w.loadHashes[floods] {
			failed++
		}
		floods++
		if floods%ccfg.CommitEvery == 0 {
			id = tr.begin("capacity.commit", q, int64(i))
			pl.Commit(now)
			tr.end(id, 1)
		}
		tr.end(q, 1)
	}
	pl.Commit(now)
	st := pl.Stats()
	backlog := int64(0)
	for p := range w.nw.Peers {
		backlog += pl.Depth(p)
	}
	if st.Enqueued != st.Served+backlog {
		w.unconserved++
	}
	if first {
		w.loadHashes = append(w.loadHashes, uint64(st.Enqueued), uint64(st.Shed), uint64(st.Served), uint64(st.BreakerSuppressed))
	} else if st != w.lastCapStats {
		failed++
	}
	w.lastCapStats, w.lastBacklog, w.loadFloods = st, backlog, floods
	if w.reg != nil {
		w.tracedLoads++
	}
	return floods, failed, nil
}

func newFloodCheck(origin int, res *gnet.FloodResult) floodCheck {
	fc := floodCheck{origin: origin, criteria: res.Criteria, reached: res.PeersReached, hits: make(map[int]int, len(res.Hits))}
	for _, h := range res.Hits {
		fc.hits[h.PeerID] = len(h.Files)
	}
	return fc
}

// floodHash fingerprints one flood's outputs (FNV-1a over its counts and
// its hits' peers, hops and file indexes).
func floodHash(res *gnet.FloodResult) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(res.PeersReached))
	mix(uint64(res.Messages))
	mix(uint64(res.TotalResults))
	for _, hit := range res.Hits {
		mix(uint64(hit.PeerID))
		mix(uint64(hit.Hops))
		for _, f := range hit.Files {
			mix(uint64(f.FileIndex))
		}
	}
	return h
}

// verify checks the sampled first-pass floods: the flood reached exactly
// Network.Reach(origin, ttl) peers, and its hits are exactly the reached
// peers whose Peer.Match is non-empty, with as many files each.
func (w *wireWorkload) verify() (checkResult, error) {
	cr := checkResult{attempted: len(w.checks) + w.passes, failed: w.unconserved}
	for _, fc := range w.checks {
		if !checkFlood(w.nw, &w.prober, fc, w.c.ttl) {
			cr.failed++
		}
	}
	cr.digest = digestHashes(append(append([]uint64(nil), w.hashes...), w.loadHashes...))
	st := w.lastCapStats
	cr.notes = append(cr.notes, fmt.Sprintf("wire-mismatch: %d passes of %d floods; %d floods checked against Reach and Peer.Match; snapshot %.1f MiB",
		w.passes, len(w.criteria), len(w.checks), float64(w.snapBytes)/(1<<20)),
		fmt.Sprintf("wire-mismatch loaded pass: %d floods, capacity enqueued %d = served %d + backlog %d, shed %d, breaker-suppressed %d; %d of %d passes conserved",
			w.loadFloods, st.Enqueued, st.Served, w.lastBacklog, st.Shed, st.BreakerSuppressed, w.passes-w.unconserved, w.passes))
	return cr, nil
}

// checkFlood is the wire-level flood oracle.
func checkFlood(nw *gnet.Network, p *prober, fc floodCheck, ttl int) bool {
	set, _, _ := p.reachSet(nw, fc.origin, ttl)
	if reach := nw.Reach(fc.origin, ttl); len(set) != reach || fc.reached != reach {
		return false
	}
	want := 0
	for _, v := range set {
		files := nw.Peers[v].Match(fc.criteria)
		if len(files) == 0 {
			continue
		}
		want++
		if fc.hits[int(v)] != len(files) {
			return false
		}
	}
	return want == len(fc.hits)
}

func digestHashes(hs []uint64) string {
	d := sha256.New()
	var b [8]byte
	for _, h := range hs {
		binary.LittleEndian.PutUint64(b[:], h)
		d.Write(b[:])
	}
	return hex.EncodeToString(d.Sum(nil))[:16]
}

func (w *wireWorkload) layerMetrics(m metricSet, lay map[string]*layerStat, reg *obs.Registry, tracedQueries int) float64 {
	setupSeconds(m, lay, "catalog.build", "catalog.build_s")
	setupSeconds(m, lay, "gnet.build", "gnet.build_s")
	setupSeconds(m, lay, "snapshot.save", "snapshot.save_s")
	setupSeconds(m, lay, "snapshot.load_mapped", "snapshot.load_mapped_s")
	setupSeconds(m, lay, "querygen.generate", "querygen.generate_s")
	m.put("snapshot.file_mb", "MiB", float64(w.snapBytes)/(1<<20))
	floodNs := floodLayerMetrics(m, lay, reg, &w.prober)
	capNs := 0.0
	for _, name := range []string{"capacity.advance", "capacity.commit"} {
		if l := lay[name]; l != nil {
			capNs += float64(l.SelfNs)
		}
	}
	if l := lay["capacity.commit"]; l != nil {
		m.put("capacity.commit_us", "us", l.nsPerCall()/1e3)
	}
	if w.tracedLoads > 0 {
		passes := float64(w.tracedLoads)
		enq, shed := counter(reg, "capacity_enqueued_total"), counter(reg, "capacity_shed_total_ttl")
		m.put("capacity.enqueued", "count", enq/passes)
		m.put("capacity.breaker_suppressed", "count", counter(reg, "capacity_breaker_suppressed_total")/passes)
		if enq+shed > 0 {
			m.put("capacity.shed_frac", "ratio", shed/(enq+shed))
		}
	}
	if tracedQueries == 0 {
		return 0
	}
	return floodNs + capNs/float64(tracedQueries)
}

// measuredWorkers is one: floods run one after another from one goroutine.
func (w *wireWorkload) measuredWorkers() int { return 1 }

func (w *wireWorkload) close() {
	if w.nw != nil {
		w.nw.Close()
		w.nw, w.ctx = nil, nil
	}
	os.Remove(filepath.Join(w.o.workDir(), "wire.qcsnap"))
}
