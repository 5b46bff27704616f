package main

import (
	"fmt"
	"slices"

	"querycentric/internal/adaptive"
	"querycentric/internal/events"
	"querycentric/internal/gnet"
	"querycentric/internal/obs"
	"querycentric/internal/rng"
	"querycentric/internal/strategy"
	"querycentric/internal/zipf"
)

// adaptiveConfig sizes the adaptive-rewire workload.
type adaptiveConfig struct {
	peers       int
	populations int // independent populations; a unit runs one episode on each
	batches     int // measurement batches per episode; a round runs between each two
	ttl         int
	probes      int // flood probes per population after a traced episode, and oracle floods at the end
	maintEvery  int // a maintenance round runs every maintEvery batches on the first population
}

// adaptPeriodS is the simulated time between two batches of an episode.
const adaptPeriodS = 60

// adaptiveWorkload drives the query-centric adaptive overlay over a flat
// wire network and an anti-correlated Zipf object population (the hottest
// queries target near-singletons): an event engine alternates measurement
// batches and adaptation rounds (events.ScheduleAdaptationRounds), in the
// order System.RunWorkload uses, with rewiring and replication on. On the
// first population it also runs a maintenance round (keepalive pings,
// degree repair) every few batches; a round pings every link of the
// network, so running it on every population would make maintenance the
// bulk of the workload.
//
// Every query names an existing object, so floods that reach a holder take
// the hit path; rounds mutate edges and add replicas through copy-on-write
// Network.AddFile index rebuilds, and repair reconnects peers that rewiring
// left below their target degree. Each unit runs one episode on each of
// several independent populations, every one freshly built, so every unit
// must end in the same states; averaging over populations keeps one
// population's luck (where its hottest object sits) from setting the figure.
type adaptiveWorkload struct {
	o    options
	c    adaptiveConfig
	acfg adaptive.Config
	reg  *obs.Registry

	pops             []*adaptivePop
	episodes         int
	tracedEpisodes   int // episodes run attached to the registry
	tracedMaintained int // of those, episodes under maintenance
	prober           prober
}

// adaptivePop is one population: its objects, query distribution, network,
// adaptive system and maintainer, and the state its first episode ended in.
type adaptivePop struct {
	seed  uint64
	objs  []adaptive.Object
	pick  func(r *rng.Source) int
	nw    *gnet.Network
	sys   *adaptive.System
	maint *gnet.Maintainer // nil on every population but the first
	state []uint64
}

func newAdaptive(o options) *adaptiveWorkload {
	c := adaptiveConfig{peers: 8000, populations: 6, batches: 32, ttl: 3, probes: 16, maintEvery: 16}
	if o.small {
		c = adaptiveConfig{peers: 600, populations: 2, batches: 4, ttl: 3, probes: 4, maintEvery: 2}
	}
	return &adaptiveWorkload{o: o, c: c}
}

// setup draws every population: peers/50 objects under a Zipf(1.2) query
// distribution, object i held by 1 + i²·maxRep/(m-1)² random peers
// (reversed popularity), and builds each one's first network.
func (w *adaptiveWorkload) setup(tr *tracer) error {
	w.acfg = adaptive.DefaultConfig(0)
	w.acfg.TTL = w.c.ttl
	w.acfg.Workers = w.measuredWorkers()
	w.pops, w.episodes, w.tracedEpisodes, w.tracedMaintained, w.prober = nil, 0, 0, 0, prober{}
	m := w.c.peers / 50
	qd, err := zipf.New(m, 1.2)
	if err != nil {
		return err
	}
	maxRep := max(w.c.peers/18, 8)
	for k := 0; k < w.c.populations; k++ {
		p := &adaptivePop{seed: subSeed(w.o.seed, "adaptive-rewire/population", k)}
		p.pick = func(r *rng.Source) int { return qd.Sample(r) - 1 }
		place := rng.NewNamed(p.seed, "benchmark/adaptive-rewire/place")
		p.objs = make([]adaptive.Object, m)
		for i := range p.objs {
			rep := 1 + i*i*maxRep/((m-1)*(m-1))
			p.objs[i] = adaptive.Object{Name: fmt.Sprintf("object%04d studio master", i), Size: 1 << 20}
			for _, h := range place.SampleInts(w.c.peers, rep) {
				p.objs[i].Holders = append(p.objs[i].Holders, int32(h))
			}
		}
		if err := w.build(tr, p, k == 0); err != nil {
			return err
		}
		w.pops = append(w.pops, p)
	}
	return nil
}

// build constructs a fresh flat degree-4 network holding the population, an
// adaptive system over it and, if maintained, a maintainer.
func (w *adaptiveWorkload) build(tr *tracer, p *adaptivePop, maintained bool) error {
	err := tr.do("gnet.build", -1, -1, func() error {
		nw, err := gnet.New(gnet.Config{Seed: p.seed, FlatDegree: 4}, w.c.peers)
		if err != nil {
			return err
		}
		libs := make([][]string, w.c.peers)
		for _, o := range p.objs {
			for _, h := range o.Holders {
				libs[h] = append(libs[h], o.Name)
			}
		}
		sizes := gnet.NewFileSizeRNG(p.seed)
		for id, lib := range libs {
			files := make([]gnet.File, len(lib))
			for i, name := range lib {
				files[i] = gnet.File{Index: uint32(i), Size: gnet.DrawFileSize(sizes), Name: name}
			}
			nw.Peers[id].Library = files
		}
		if err := nw.BuildIndexes(workers()); err != nil {
			return err
		}
		p.nw = nw
		return nil
	})
	if err != nil {
		return err
	}
	p.nw.Instrument(w.reg, nil)
	cfg := w.acfg
	cfg.Seed = p.seed
	if p.sys, err = adaptive.New(p.nw, p.objs, cfg); err != nil {
		return err
	}
	p.sys.Instrument(w.reg)
	if p.maint = nil; !maintained {
		return nil
	}
	// The maintainer binds the network's registry when it is built, so a
	// traced unit's maintainer counts into that unit's registry.
	rcfg := gnet.DefaultRepairConfig(p.seed)
	rcfg.PingInterval = int64(w.c.maintEvery) * adaptPeriodS
	p.maint, err = gnet.NewMaintainer(p.nw, rcfg, nil)
	return err
}

func (w *adaptiveWorkload) instrument(reg *obs.Registry) {
	w.reg = reg
	for _, p := range w.pops {
		p.nw.Instrument(reg, nil)
		p.sys.Instrument(reg)
	}
}

func (w *adaptiveWorkload) reset() error {
	for k, p := range w.pops {
		if err := w.build(nil, p, k == 0); err != nil {
			return err
		}
	}
	return nil
}

func (w *adaptiveWorkload) unit(tr *tracer) (unitResult, error) {
	var ur unitResult
	for _, p := range w.pops {
		q, failed, err := w.episode(tr, p)
		if err != nil {
			return ur, err
		}
		ur.queries += q
		if failed {
			ur.failed += q
		}
	}
	w.episodes++
	if tr != nil {
		for _, p := range w.pops {
			if err := w.probeFloods(tr, p); err != nil {
				return ur, err
			}
		}
	}
	return ur, nil
}

// episode runs one population's batches, rounds and maintenance rounds on
// an event engine and reports whether its outputs failed a check. Batch b
// runs at b·adaptPeriodS; round r runs at (r+1)·adaptPeriodS, before the
// batch of that instant; maintenance, if any, runs before both.
func (w *adaptiveWorkload) episode(tr *tracer, p *adaptivePop) (queries int, failed bool, err error) {
	interval := w.acfg.AdaptInterval
	base := strategy.WorkloadStream(p.seed)
	horizon := int64(w.c.batches-1) * adaptPeriodS
	eng, err := events.New(p.seed, horizon)
	if err != nil {
		return 0, false, err
	}
	eng.Instrument(w.reg)
	run := tr.begin("events.run", -1, -1)
	for b := 0; b < w.c.batches; b++ {
		err := eng.Schedule(int64(b)*adaptPeriodS, events.PrioQuery, fmt.Sprintf("batch/%d", b), func(int64, *rng.Source) error {
			id := tr.begin("adaptive.batch", run, -1)
			defer tr.end(id, 1)
			return p.sys.RunBatch(base, b*interval, interval, p.pick)
		})
		if err != nil {
			return 0, false, err
		}
	}
	rewires, replicas := 0, 0
	err = events.ScheduleAdaptationRounds(eng, adaptPeriodS, adaptPeriodS, func(int, int64) error {
		id := tr.begin("adaptive.round", run, -1)
		rw, rp := p.sys.AdaptRound()
		tr.end(id, 1)
		rewires += rw
		replicas += rp
		return nil
	})
	if err != nil {
		return 0, false, err
	}
	every, ticks := int64(w.c.maintEvery)*adaptPeriodS, 0
	for t := every; p.maint != nil && t <= horizon; t += every {
		err := eng.Schedule(t, events.PrioMaint, fmt.Sprintf("maint/%d", ticks), func(now int64, _ *rng.Source) error {
			id := tr.begin("gnet.maint_tick", run, -1)
			p.maint.Tick(now)
			tr.end(id, 1)
			return nil
		})
		if err != nil {
			return 0, false, err
		}
		ticks++
	}
	err = eng.Run()
	tr.end(run, int(eng.Processed()))
	if err != nil {
		return 0, false, err
	}
	if w.reg != nil {
		w.tracedEpisodes++
		if p.maint != nil {
			w.tracedMaintained++
		}
	}
	// The rounds' own tallies and the rewire log must agree, the engine
	// must have run every event it was given, and every episode of a
	// population must end in the same state.
	scheduled := uint64(2*w.c.batches - 1 + ticks)
	failed = len(p.sys.RewireLog()) != rewires || eng.Processed() != scheduled || eng.Pending() != 0
	st := episodeState(p, rewires, replicas)
	if w.episodes == 0 {
		p.state = st
	} else if !slices.Equal(st, p.state) {
		failed = true
	}
	return w.c.batches * interval, failed, nil
}

// probeFloods floods a sample of the population's own queries over its
// adapted network, timing the flood and its stages (detached from the
// registry, so the gnet counters keep describing the episode's floods alone).
func (w *adaptiveWorkload) probeFloods(tr *tracer, p *adaptivePop) error {
	p.nw.Instrument(nil, nil)
	ctx := p.nw.NewFloodCtx()
	r := rng.NewNamed(p.seed, "benchmark/adaptive-rewire/probe")
	for i := 0; i < w.c.probes; i++ {
		origin, crit := r.Intn(w.c.peers), p.objs[p.pick(r)].Name
		if err := w.prober.floodAndProbe(tr, ctx, p.nw, int64(i), origin, crit, w.c.ttl, r); err != nil {
			return err
		}
	}
	return nil
}

// episodeState lists an episode's outputs: the round tallies, every rewire
// decision, the maintainer's tallies, the final topology and every
// library's size.
func episodeState(p *adaptivePop, rewires, replicas int) []uint64 {
	st := []uint64{uint64(rewires), uint64(replicas)}
	if p.maint != nil {
		ms := p.maint.Stats()
		st = append(st, uint64(ms.PingsSent), uint64(ms.PingsLost), uint64(ms.FailuresDetected),
			uint64(ms.RepairAttempts), uint64(ms.RepairSuccesses))
	}
	for _, r := range p.sys.RewireLog() {
		st = append(st, uint64(r.Round), uint64(r.Peer), uint64(r.Dropped), uint64(r.Added))
	}
	for _, peer := range p.nw.Peers {
		st = append(st, uint64(len(peer.Library)), uint64(len(peer.Neighbors)))
		for _, nb := range peer.Neighbors {
			st = append(st, uint64(nb))
		}
	}
	return st
}

// verify floods a sample of each population's own queries over its adapted
// network and checks each against the wire-level oracle (Network.Reach and
// Peer.Match on the mutated network). The digest covers every population's
// episode state and those floods.
func (w *adaptiveWorkload) verify() (checkResult, error) {
	var cr checkResult
	var all []uint64
	repairs := 0
	for _, p := range w.pops {
		all = append(all, p.state...)
		if p.maint != nil {
			repairs += p.maint.Stats().RepairSuccesses
		}
		p.nw.Instrument(nil, nil)
		ctx := p.nw.NewFloodCtx()
		r := rng.NewNamed(p.seed, "benchmark/adaptive-rewire/check")
		for i := 0; i < w.c.probes; i++ {
			origin, crit := r.Intn(w.c.peers), p.objs[p.pick(r)].Name
			res, err := ctx.Flood(origin, crit, w.c.ttl, r)
			if err != nil {
				return cr, err
			}
			cr.attempted++
			if !checkFlood(p.nw, &w.prober, newFloodCheck(origin, res), w.c.ttl) {
				cr.failed++
			}
			all = append(all, floodHash(res))
		}
	}
	cr.digest = digestHashes(all)
	cr.notes = []string{fmt.Sprintf("adaptive-rewire: %d units of one %d-batch episode on each of %d populations; every episode of a population ended in the same state; maintenance repaired %d edges in the last; %d floods over the adapted networks checked against Reach and Peer.Match",
		w.episodes, w.c.batches, len(w.pops), repairs, cr.attempted)}
	return cr, nil
}

func (w *adaptiveWorkload) layerMetrics(m metricSet, lay map[string]*layerStat, reg *obs.Registry, tracedQueries int) float64 {
	setupSeconds(m, lay, "gnet.build", "gnet.build_s")
	floodNs := floodLayerMetrics(m, lay, reg, &w.prober)
	batch, round, run := lay["adaptive.batch"], lay["adaptive.round"], lay["events.run"]
	if batch == nil || round == nil || run == nil || tracedQueries == 0 || w.tracedEpisodes == 0 {
		return 0
	}
	m.put("adaptive.batch_ms", "ms", batch.nsPerCall()/1e6)
	m.put("adaptive.round_ms", "ms", round.nsPerCall()/1e6)
	m.put("adaptive.round_frac", "ratio", float64(round.SelfNs)/float64(round.SelfNs+batch.SelfNs))
	rounds := counter(reg, "adaptive_rounds_total")
	if rounds > 0 {
		m.put("adaptive.rewires_per_round", "count", counter(reg, "adaptive_rewires_total")/rounds)
		m.put("adaptive.replicas_per_round", "count", counter(reg, "adaptive_replicas_total")/rounds)
	}
	episodes := float64(w.tracedEpisodes)
	executed := counter(reg, "events_executed_total")
	m.put("events.executed", "count", executed/episodes)
	if run.SelfNs > 0 {
		// The engine's own time is what the run span leaves after its
		// handlers' spans: queue operations and per-event stream derivation.
		m.put("events.per_s", "1/s", executed/(float64(run.SelfNs)/1e9))
	}
	if w.tracedMaintained > 0 {
		maintained := float64(w.tracedMaintained)
		m.put("gnet.maint_pings_sent", "count", counter(reg, "gnet_maint_pings_sent_total")/maintained)
		m.put("gnet.maint_repair_attempts", "count", counter(reg, "gnet_maint_repair_attempts_total")/maintained)
	}
	maintNs := 0.0
	if l := lay["gnet.maint_tick"]; l != nil {
		m.put("gnet.maint_tick_ms", "ms", l.nsPerCall()/1e6)
		maintNs = float64(l.SelfNs)
	}
	floods := counter(reg, "gnet_floods_total")
	return (floods*floodNs + float64(round.SelfNs) + maintNs + float64(run.SelfNs)) / float64(tracedQueries)
}

// measuredWorkers is one. On a two-CPU host a second worker raised
// throughput by about a quarter but spent more CPU per query and doubled the
// run-to-run spread; graph-fig8 is the workload that measures parallel
// fan-out.
func (w *adaptiveWorkload) measuredWorkers() int { return 1 }

func (w *adaptiveWorkload) close() { w.pops = nil }
