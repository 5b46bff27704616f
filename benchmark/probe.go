package main

import (
	"querycentric/internal/dict"
	"querycentric/internal/gmsg"
	"querycentric/internal/gnet"
	"querycentric/internal/obs"
	"querycentric/internal/rng"
)

// probeReps is how many times a probe calls a function that runs in
// nanoseconds inside one span, so the two clock reads do not dominate.
const probeReps = 16

// prober times the stages of one wire-level flood alone, through each
// layer's public functions, on the inputs a real flood just processed:
// tokenizing and resolving the query, matching it at every peer the flood
// reached (split by outcome), and encoding and decoding the Query and
// QueryHit descriptors. It also carries the reach oracle the output checks
// use.
type prober struct {
	seen  []int32
	epoch int32

	ids     []dict.TermID
	scratch []string

	probes       int
	terms        int
	unknownTerms int
	rings        int // descriptor decodes a flood makes: one per TTL ring
	encodes      int // descriptor encodes: the origin's plus one per forwarding ring
	queryBytes   int
}

// reachSet returns the peers a fault-free TTL-limited flood from origin
// processes (origin excluded), with the flood's ring and encode counts. It
// follows the forwarding rule gnet.Network.Reach implements, so its size
// must equal Reach; unlike Reach it returns the peers themselves.
func (p *prober) reachSet(nw *gnet.Network, origin, ttl int) (set []int32, rings, encodes int) {
	if len(p.seen) != len(nw.Peers) {
		p.seen, p.epoch = make([]int32, len(nw.Peers)), 0
	}
	p.epoch++
	ep := p.epoch
	p.seen[origin] = ep
	type hop struct{ id, ttl int }
	var frontier, next []hop
	for _, nb := range nw.Peers[origin].Neighbors {
		frontier = append(frontier, hop{nb, ttl})
	}
	twoTier := nw.Config.UltrapeerFrac > 0
	encodes = 1
	for len(frontier) > 0 {
		rings++
		forwarded := false
		next = next[:0]
		for _, h := range frontier {
			if p.seen[h.id] == ep {
				continue
			}
			p.seen[h.id] = ep
			set = append(set, int32(h.id))
			peer := nw.Peers[h.id]
			if h.ttl <= 1 || (twoTier && !peer.Ultrapeer) {
				continue
			}
			forwarded = true
			for _, nb := range peer.Neighbors {
				if p.seen[nb] != ep {
					next = append(next, hop{nb, h.ttl - 1})
				}
			}
		}
		if forwarded {
			encodes++
		}
		frontier, next = next, frontier
	}
	return set, rings, encodes
}

// probe times the flood stages for one query whose flood returned res, as
// children of span parent.
func (p *prober) probe(tr *tracer, parent int32, q int64, nw *gnet.Network, origin int, criteria string, ttl int, res *gnet.FloodResult) error {
	p.probes++
	var toks []string
	id := tr.begin("gnet.tokenize", parent, q)
	for i := 0; i < probeReps; i++ {
		toks = gnet.TokenizeQuery(criteria)
	}
	tr.end(id, probeReps)

	if d := nw.TermDict(); d != nil {
		id = tr.begin("dict.resolve", parent, q)
		for i := 0; i < probeReps; i++ {
			p.ids, _ = d.Resolve(toks, p.ids[:0])
		}
		tr.end(id, probeReps)
		for _, t := range p.ids {
			p.terms++
			if t == dict.NoTerm {
				p.unknownTerms++
			}
		}
	}

	set, rings, encodes := p.reachSet(nw, origin, ttl)
	p.rings += rings
	p.encodes += encodes
	hit := make(map[int32]bool, len(res.Hits))
	for _, h := range res.Hits {
		hit[int32(h.PeerID)] = true
	}
	var misses, hits []int32
	for _, v := range set {
		if hit[v] {
			hits = append(hits, v)
		} else {
			misses = append(misses, v)
		}
	}
	id = tr.begin("gnet.match_miss", parent, q)
	for _, v := range misses {
		_, p.scratch = nw.Peers[v].MatchTokens(toks, p.scratch)
	}
	tr.end(id, len(misses))
	if len(hits) > 0 {
		id = tr.begin("gnet.match_hit", parent, q)
		for _, v := range hits {
			_, p.scratch = nw.Peers[v].MatchTokens(toks, p.scratch)
		}
		tr.end(id, len(hits))
	}

	qm := &gmsg.Message{
		Header: gmsg.Header{GUID: res.GUID, Type: gmsg.TypeQuery, TTL: byte(ttl)},
		Query:  &gmsg.Query{Criteria: criteria},
	}
	raw, err := codecLoop(tr, parent, q, "gmsg.query", qm)
	if err != nil {
		return err
	}
	p.queryBytes += len(raw)
	if len(res.Hits) > 0 {
		h := res.Hits[0]
		peer := nw.Peers[h.PeerID]
		// One QueryHit descriptor carries at most 255 results; a peer that
		// matches more answers in several, so the probe codes the first.
		hm := &gmsg.Message{
			Header: gmsg.Header{GUID: res.GUID, Type: gmsg.TypeQueryHit, TTL: byte(h.Hops)},
			QueryHit: &gmsg.QueryHit{Port: peer.Addr.Port, IP: peer.Addr.IP, Speed: 1000,
				Results: h.Files[:min(len(h.Files), 255)], ServentID: peer.ServentID},
		}
		if _, err := codecLoop(tr, parent, q, "gmsg.hit", hm); err != nil {
			return err
		}
	}
	return nil
}

// floodAndProbe floods criteria from origin under a query span, with the
// flood in a child span, and probes the flood's stages.
func (p *prober) floodAndProbe(tr *tracer, ctx *gnet.FloodCtx, nw *gnet.Network, q int64, origin int, criteria string, ttl int, r *rng.Source) error {
	root := tr.begin("query", -1, q)
	defer tr.end(root, 1)
	id := tr.begin("gnet.flood", root, q)
	res, err := ctx.Flood(origin, criteria, ttl, r)
	tr.end(id, 1)
	if err != nil {
		return err
	}
	return p.probe(tr, root, q, nw, origin, criteria, ttl, res)
}

// codecLoop encodes and decodes m probeReps times each, in one span per
// direction named prefix+"_encode" and prefix+"_decode".
func codecLoop(tr *tracer, parent int32, q int64, prefix string, m *gmsg.Message) ([]byte, error) {
	var raw []byte
	var err error
	id := tr.begin(prefix+"_encode", parent, q)
	for i := 0; i < probeReps && err == nil; i++ {
		raw, err = gmsg.Encode(m)
	}
	tr.end(id, probeReps)
	if err != nil {
		return nil, err
	}
	id = tr.begin(prefix+"_decode", parent, q)
	for i := 0; i < probeReps && err == nil; i++ {
		_, _, err = gmsg.Decode(raw)
	}
	tr.end(id, probeReps)
	return raw, err
}

// floodLayerMetrics reports the wire-level flood layers from the flood
// spans, the probes and the gnet counters, and returns the flood-path time
// per flood the probes explain: tokenize and resolve once, the per-peer
// match at every reached peer, and the descriptor codec once per encode and
// ring. MatchTokens resolves the query's terms on every call, which a flood
// does once, so the per-peer cost is the probe's match time less one
// resolve.
func floodLayerMetrics(m metricSet, lay map[string]*layerStat, reg *obs.Registry, p *prober) (nsPerFlood float64) {
	putTail(m, "gnet.flood", lay["gnet.flood"])
	floods := counter(reg, "gnet_floods_total")
	if floods == 0 {
		return 0
	}
	msgs := counter(reg, "gnet_flood_messages_total")
	reached := counter(reg, "gnet_flood_peers_reached_total")
	hits := counter(reg, "gnet_flood_hit_hops")
	m.put("gnet.msgs_per_flood", "count", msgs/floods)
	m.put("gnet.peers_reached_per_flood", "count", reached/floods)
	m.put("gnet.hits_per_flood", "count", hits/floods)
	if msgs > 0 {
		m.put("gnet.dup_msg_frac", "ratio", (msgs-reached)/msgs)
	}
	if reached > 0 {
		m.put("gnet.match_hit_frac", "ratio", hits/reached)
	}
	ns := func(name string) float64 {
		if l := lay[name]; l != nil {
			return l.nsPerCall()
		}
		return 0
	}
	tok, res := ns("gnet.tokenize"), ns("dict.resolve")
	miss, hit := ns("gnet.match_miss"), ns("gnet.match_hit")
	m.put("gnet.tokenize_ns", "ns", tok)
	m.put("dict.resolve_ns", "ns", res)
	m.put("gnet.match_miss_ns", "ns", miss)
	m.put("gnet.match_hit_ns", "ns", hit)
	for _, c := range []string{"gmsg.query_encode", "gmsg.query_decode", "gmsg.hit_encode", "gmsg.hit_decode"} {
		m.put(c+"_ns", "ns", ns(c))
	}
	if p.terms > 0 {
		m.put("dict.unknown_term_frac", "ratio", float64(p.unknownTerms)/float64(p.terms))
	}
	if p.probes == 0 {
		return 0
	}
	m.put("gmsg.query_bytes", "bytes", float64(p.queryBytes)/float64(p.probes))
	encPerFlood := float64(p.encodes) / float64(p.probes)
	decPerFlood := float64(p.rings) / float64(p.probes)
	missPerFlood, hitPerFlood := (reached-hits)/floods, hits/floods
	return tok + res +
		missPerFlood*max(miss-res, 0) + hitPerFlood*max(hit-res, 0) +
		encPerFlood*ns("gmsg.query_encode") + decPerFlood*ns("gmsg.query_decode")
}
