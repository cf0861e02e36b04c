// Package bgp computes anycast catchments: which site each source AS's
// traffic reaches, along what AS-path length, and through which geographic
// waypoints.
//
// The selection logic is a compact model of the BGP decision process the
// paper blames for inflation (§7.1–7.2):
//
//   - Direct peer routes (2 AS hops) win on local preference and path
//     length; their early-exit choice is made *at the source*, so they pick
//     the nearest interconnect — this is why the CDN's wide peering keeps
//     inflation low.
//   - Otherwise the shortest AS path wins, even when a longer path would
//     reach a geographically closer site. With more sites and heterogeneous
//     host connectivity, the shortest-path winner is more often a distant
//     site — larger deployments become less "efficient".
//   - Ties are broken hot-potato: each transit minimizes only its own leg,
//     and deeper in the hierarchy the decision point is farther from the
//     user's interest, so deep paths pick sites nearly arbitrarily.
package bgp

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anycastctx/internal/geo"
	"anycastctx/internal/obs"
	"anycastctx/internal/par"
	"anycastctx/internal/topology"
)

// Observability handles. Route outcomes are counted by decision phase:
// direct (2-AS peering win), provider (shortest AS path via transit), and
// unreachable (no visible site). The cache metrics track the per-resolver
// route memo: routes_resolved and its phase counters advance only on cache
// misses (the route is computed once per resolver lifetime, unless
// concurrent fills race: see Resolver.Route);
// route_cache_hits counts calls served from the memo, and
// route_cache_entries gauges total cached routes across all resolvers.
var (
	obsResolvers     = obs.NewCounter("bgp.resolvers_built")
	obsRoutes        = obs.NewCounter("bgp.routes_resolved")
	obsDirectRoutes  = obs.NewCounter("bgp.routes_direct")
	obsProvRoutes    = obs.NewCounter("bgp.routes_provider")
	obsUnreachable   = obs.NewCounter("bgp.routes_unreachable")
	obsCatchBatches  = obs.NewCounter("bgp.catchment_batches")
	obsCatchPerAS    = obs.NewHistogram("bgp.catchment_ns_per_as")
	obsBestPathTies  = obs.NewCounter("bgp.best_path_decisions")
	obsDeepDecisions = obs.NewCounter("bgp.deep_path_decisions")
	obsCacheHits     = obs.NewCounter("bgp.route_cache_hits")
	obsCacheMisses   = obs.NewCounter("bgp.route_cache_misses")
	obsCacheEntries  = obs.NewGauge("bgp.route_cache_entries")
	obsCacheSeeded   = obs.NewCounter("bgp.route_cache_seeded")
)

// Site is one anycast site of a deployment.
type Site struct {
	// ID indexes the site within its deployment.
	ID int
	// Loc is the site's physical location.
	Loc geo.Coord
	// Host is the AS announcing the site's prefix.
	Host topology.ASN
	// Global indicates a globally announced site; local sites restrict
	// announcement propagation and are reachable only nearby (§2.1).
	Global bool
}

// Route is the outcome of the BGP decision for one source AS.
type Route struct {
	// SiteID is the chosen site's ID.
	SiteID int
	// PathLen is the number of ASes on the path, endpoints included
	// (2 = direct peering, as counted in Fig 6a).
	PathLen int
	// Direct reports a settlement-free direct path (source peers with the
	// site's host).
	Direct bool
	// Via is the first-hop AS (the host itself for direct routes).
	Via topology.ASN
	// Waypoints traces the path geographically from source to site,
	// suitable for propagation-delay computation. Always ≥ 2 points.
	Waypoints []geo.Coord
}

// Dist returns the summed great-circle length of the route's waypoint legs
// in kilometers.
func (r Route) Dist() float64 {
	var d float64
	for i := 1; i < len(r.Waypoints); i++ {
		d += geo.DistanceKm(r.Waypoints[i-1], r.Waypoints[i])
	}
	return d
}

// routeSlot is one source's memoized route decision. state moves from
// slotEmpty through slotFilling to slotFilled exactly once; the other
// fields are written while filling and read only after a load observes
// slotFilled, so a hit takes no lock.
type routeSlot struct {
	state   atomic.Uint32
	site    int32
	pathLen int32
	via     topology.ASN
	direct  bool
	ok      bool
	wp      []geo.Coord
}

const (
	slotEmpty uint32 = iota
	slotFilling
	slotFilled
)

// route returns the slot's decision. The slot must be filled.
func (s *routeSlot) route() (Route, bool) {
	return Route{SiteID: int(s.site), PathLen: int(s.pathLen), Direct: s.direct, Via: s.via, Waypoints: s.wp}, s.ok
}

// fill stores rt unless another caller filled the slot first, and returns
// the slot's decision either way: the first fill wins, so every caller
// shares one Waypoints slice. won reports whether this call filled it.
func (s *routeSlot) fill(rt Route, ok bool) (_ Route, _ bool, won bool) {
	if s.state.CompareAndSwap(slotEmpty, slotFilling) {
		s.site, s.pathLen, s.via = int32(rt.SiteID), int32(rt.PathLen), rt.Via
		s.direct, s.ok, s.wp = rt.Direct, ok, rt.Waypoints
		s.state.Store(slotFilled)
		return rt, ok, true
	}
	// The winner is between its two stores: a few field writes.
	for s.state.Load() != slotFilled {
		runtime.Gosched()
	}
	rt, ok = s.route()
	return rt, ok, false
}

// Resolver computes routes from source ASes to one anycast deployment. It
// precomputes per-transit reachability so per-source resolution is cheap,
// and memoizes each source's route so the BGP decision (and its Waypoints
// allocation) runs exactly once per resolver lifetime. The topology and
// site set are immutable after construction; the memo fills lock-free,
// so a Resolver is safe for concurrent use.
type Resolver struct {
	g     *topology.Graph
	sites []Site
	// transitDist[p][siteID] = AS hops from transit/tier-1 p to the site's
	// host (1 = adjacent, 2 = via one intermediate, 3 = via tier-1 mesh).
	// Computed lazily on the first route resolution (or seeded from a
	// persisted artifact) under tablesOnce: a resolver whose routes are
	// never asked for costs nothing but its site list. The values are
	// stable against the world's post-construction graph mutations —
	// host-AS additions and CDN peering never change the transit/tier-1
	// membership or any transit↔host adjacency — and callers that mutate
	// the graph after construction (the scenario engine) pin the tables
	// at construction time via EnsureTables.
	// Rows are indexed by the transit's dense graph position
	// (topology.Graph.Index); every other AS has a nil row, and the slice
	// ends at the last transit or tier-1.
	transitDist [][]uint8
	tablesOnce  sync.Once

	// hostSlot[siteID] is the site's host's slot in resolveRoute's
	// per-call host cache, or -1 when the host serves no other site (its
	// peering and entry point are then looked up once anyway). Hosts
	// shared by several sites — the CDN's one network, a letter's partner
	// host — hold slots 0..sharedHosts-1.
	hostSlot    []int32
	sharedHosts int

	// presKm[siteID][i] = geo.DistanceKm(host.Presence[i], site.Loc) for
	// the site's host: the in-host leg of every early-exit tie-break key
	// (an entry, egress or interconnect point is always one of the host's
	// presence points). Each key is then the same float64 sum as pricing
	// the leg with its own haversine, so the first-wins minimum picks the
	// same site. Built in NewResolver (not under tablesOnce, which
	// RestoreState bypasses). Host Presence is
	// frozen before any resolver exists: its only mutation is the shared
	// partner host in anycastnet's letter builder, which completes before
	// the letter's resolver is built.
	presKm [][]float64

	// slots is the route memo: one slot per AS of the graph as it stood
	// at NewResolver, indexed by dense graph position. It is allocated on
	// the first route, seed or restore, so a resolver that never routes
	// pays nothing for it. A source added to the graph later has no slot
	// and resolves uncached on every call.
	slots  atomic.Pointer[[]routeSlot]
	nSlots int
}

// NewResolver prepares catchment computation for the given sites on g.
func NewResolver(g *topology.Graph, sites []Site) (*Resolver, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("bgp: deployment has no sites")
	}
	for i, s := range sites {
		if g.AS(s.Host) == nil {
			return nil, fmt.Errorf("bgp: site %d host AS%d not in graph", i, s.Host)
		}
		if s.ID != i {
			return nil, fmt.Errorf("bgp: site %d has ID %d; IDs must be dense and ordered", i, s.ID)
		}
	}
	r := &Resolver{g: g, sites: sites, hostSlot: make([]int32, len(sites)), nSlots: g.Len()}
	first := make(map[topology.ASN]int, len(sites)) // host → its first site
	for i, s := range sites {
		r.hostSlot[i] = -1
		j, seen := first[s.Host]
		if !seen {
			first[s.Host] = i
			continue
		}
		if r.hostSlot[j] < 0 {
			r.hostSlot[j] = int32(r.sharedHosts)
			r.sharedHosts++
		}
		r.hostSlot[i] = r.hostSlot[j]
	}
	n := 0
	for _, s := range sites {
		n += len(g.AS(s.Host).Presence)
	}
	flat := make([]float64, n)
	r.presKm = make([][]float64, len(sites))
	for i, s := range sites {
		pres := g.AS(s.Host).Presence
		row := flat[:len(pres):len(pres)]
		flat = flat[len(pres):]
		for j, p := range pres {
			row[j] = geo.DistanceKm(p, s.Loc)
		}
		r.presKm[i] = row
	}
	obsResolvers.Inc()
	return r, nil
}

// computeTables fills transitDist for every transit and tier-1.
func (r *Resolver) computeTables() {
	mids := make([]topology.ASN, 0, len(r.g.Transits())+len(r.g.Tier1s()))
	mids = append(mids, r.g.Transits()...)
	mids = append(mids, r.g.Tier1s()...)
	rows := 0
	for _, p := range mids {
		rows = max(rows, r.g.Index(p)+1)
	}
	td := make([][]uint8, rows)
	flat := make([]uint8, len(mids)*len(r.sites))
	for _, p := range mids {
		dists := flat[:len(r.sites):len(r.sites)]
		flat = flat[len(r.sites):]
		for j, s := range r.sites {
			dists[j] = r.hopsFromTransit(p, s.Host)
		}
		td[r.g.Index(p)] = dists
	}
	r.transitDist = td
}

// transitRow returns transit p's hop counts to every site (computing the
// tables on first use), or nil when p is not a transit or tier-1.
func (r *Resolver) transitRow(p topology.ASN) []uint8 {
	r.tablesOnce.Do(r.computeTables)
	if i := r.g.Index(p); i >= 0 && i < len(r.transitDist) {
		return r.transitDist[i]
	}
	return nil
}

// EnsureTables forces the transit-distance tables to be computed now,
// against the graph's current state. The scenario engine calls this at
// deployment construction so later graph mutations in the same spec
// (e.g. a peering upgrade after an add_site) cannot leak into an
// earlier deployment's tables.
func (r *Resolver) EnsureTables() { r.tablesOnce.Do(r.computeTables) }

// hopsFromTransit returns the valley-free AS-hop count from transit p to
// host h: 1 if adjacent, 2 via one of h's providers, else 3 through the
// tier-1 mesh (always reachable).
func (r *Resolver) hopsFromTransit(p topology.ASN, h topology.ASN) uint8 {
	if p == h {
		return 0
	}
	if r.g.Connected(p, h) {
		return 1
	}
	H := r.g.AS(h)
	for _, u := range H.Providers {
		if u == p {
			return 1 // h buys from p (already covered by Connected, kept for clarity)
		}
		if r.adjacentUp(p, u) {
			return 2
		}
	}
	return 3
}

// adjacentUp reports whether p can use u as a next hop for a route u
// learned from a customer: p peers with u, p buys from u, or u buys from p.
func (r *Resolver) adjacentUp(p, u topology.ASN) bool {
	if p == u {
		return true
	}
	P := r.g.AS(p)
	U := r.g.AS(u)
	if P == nil || U == nil {
		return false
	}
	for _, pr := range P.Providers {
		if pr == u {
			return true
		}
	}
	for _, pr := range U.Providers {
		if pr == p {
			return true
		}
	}
	return r.g.Peered(p, u)
}

// Sites returns the deployment's sites.
func (r *Resolver) Sites() []Site { return r.sites }

// visible reports whether src can use site s at all: global sites always,
// local sites only from the same region or with direct peering to the host.
func (r *Resolver) visible(src *topology.AS, s *Site) bool {
	if s.Global {
		return true
	}
	host := r.g.AS(s.Host)
	if host != nil && host.Region >= 0 && host.Region == src.Region {
		return true
	}
	return r.g.Peered(src.ASN, s.Host)
}

// slotTable returns the route memo, allocating it on first use.
func (r *Resolver) slotTable() []routeSlot {
	if p := r.slots.Load(); p != nil {
		return *p
	}
	t := make([]routeSlot, r.nSlots)
	if r.slots.CompareAndSwap(nil, &t) {
		return t
	}
	return *r.slots.Load()
}

// filledSlots returns the route memo, or nil if nothing was ever cached.
func (r *Resolver) filledSlots() []routeSlot {
	if p := r.slots.Load(); p != nil {
		return *p
	}
	return nil
}

// slot returns src's memo slot, or nil when src has none (unknown to the
// graph, or added after NewResolver).
func (r *Resolver) slot(src topology.ASN) *routeSlot {
	i := r.g.Index(src)
	if i < 0 || i >= r.nSlots {
		return nil
	}
	return &r.slotTable()[i]
}

// Route resolves the catchment decision for source AS src. ok is false if
// src is unknown or no site is visible. The result is memoized: repeated
// calls for the same source return the cached Route (including the shared
// Waypoints slice, which callers must treat as read-only — every caller
// does, via Route.Dist or direct iteration).
//
// Under concurrent fills of one empty slot both racers resolve the route
// and the loser returns the winner's, so bgp.routes_resolved, its phase
// counters (routes_direct, routes_provider, routes_unreachable) and the
// path-decision counters depend on scheduling unless GOMAXPROCS is 1
// (par then runs every fan-out on the caller's goroutine). The loser
// counts as a route_cache_hit, so hits and misses stay exact.
func (r *Resolver) Route(src topology.ASN) (Route, bool) {
	s := r.slot(src)
	if s == nil {
		obsCacheMisses.Inc()
		return r.resolveRoute(src)
	}
	if s.state.Load() == slotFilled {
		obsCacheHits.Inc()
		return s.route()
	}
	rt, ok, won := s.fill(r.resolveRoute(src))
	if !won {
		// Lost a concurrent fill race to the entry every caller shares.
		obsCacheHits.Inc()
		return rt, ok
	}
	obsCacheMisses.Inc()
	obsCacheEntries.Add(1)
	return rt, ok
}

// WarmCtx fills the route cache for srcs across one worker per CPU. It is
// a pure pre-computation: outputs of later Route/CatchmentsCtx calls are
// byte-identical whether or not it ran. A traced build shows per-worker
// "bgp.warm.shard" spans under the calling stage.
func (r *Resolver) WarmCtx(ctx context.Context, srcs []topology.ASN) {
	ctx, warm := obs.StartSpanCtx(ctx, "bgp.warm")
	defer warm.End()
	par.DoCtx(ctx, len(srcs), func(ctx context.Context, lo, hi int) {
		_, sp := obs.StartSpanCtx(ctx, "bgp.warm.shard")
		defer sp.End()
		for _, s := range srcs[lo:hi] {
			r.Route(s)
		}
	})
}

// ForEachCached calls fn once per memoized route decision, including
// negative (unreachable) entries, in ascending ASN order. It may run
// concurrently with cache fills; a fill still in flight is skipped.
func (r *Resolver) ForEachCached(fn func(src topology.ASN, rt Route, ok bool)) {
	all, slots := r.g.All(), r.filledSlots()
	for i := range slots {
		if s := &slots[i]; s.state.Load() == slotFilled {
			rt, ok := s.route()
			fn(all[i], rt, ok)
		}
	}
}

// SeedFrom copies base's memoized decisions into r's cache for every
// source keep returns true for, translating site IDs through remap
// (remap[oldID] = newID in r's site set, negative = site withdrawn).
// A nil remap is the identity; a nil keep keeps everything. A source r
// already holds, or has no slot for, is not seeded.
//
// This is the scenario engine's cache-invalidation primitive: keep
// encodes the mutation's dirty-set rule, so entries whose decision the
// mutation could change are left unseeded and re-resolve lazily against
// r's own graph and sites. A kept positive entry whose site was
// withdrawn indicates a dirty-rule bug; such entries are skipped (they
// re-resolve, which is always sound) and excluded from the returned
// seeded count, so equivalence tests can still see the discrepancy as a
// performance signal rather than a corruption.
//
// Route values are copied shallowly: the Waypoints backing arrays stay
// shared with base, which is safe because Routes are read-only
// everywhere by contract.
func (r *Resolver) SeedFrom(base *Resolver, remap []int, keep func(src topology.ASN, rt Route, ok bool) bool) int {
	seeded := 0
	base.ForEachCached(func(src topology.ASN, rt Route, ok bool) {
		if keep != nil && !keep(src, rt, ok) {
			return
		}
		if ok && remap != nil {
			if rt.SiteID < 0 || rt.SiteID >= len(remap) || remap[rt.SiteID] < 0 {
				return
			}
			rt.SiteID = remap[rt.SiteID]
		}
		if ok && (rt.SiteID < 0 || rt.SiteID >= len(r.sites)) {
			return
		}
		if s := r.slot(src); s != nil {
			if _, _, won := s.fill(rt, ok); won {
				seeded++
			}
		}
	})
	obsCacheSeeded.Add(uint64(seeded))
	obsCacheEntries.Add(float64(seeded))
	return seeded
}

// stackSites bounds the deployments whose per-call site scratch (the
// visibility flags and candidate lists) stays on the stack; every letter
// and CDN ring fits. Larger deployments spill to the heap.
const stackSites = 256

// scratch returns buf[:n] when n fits, else a fresh slice of length n.
func scratch[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// hostMemo is one shared host's nearest-presence lookup within a single
// resolveRoute call: idx indexes the host's Presence, km is the distance
// to the lookup point. peered is phase 1's direct-peering test.
type hostMemo struct {
	known, peered bool
	idx           int32
	km            float64
}

// nearestExit returns site id's host's presence nearest to c as a
// Presence index and km. Hosts shared by several sites answer from memo
// (one slot per shared host, all priced against the same c).
func (r *Resolver) nearestExit(memo []hostMemo, id int, c geo.Coord) (int, float64) {
	slot := r.hostSlot[id]
	if slot >= 0 && memo[slot].known {
		return int(memo[slot].idx), memo[slot].km
	}
	i, km := r.g.AS(r.sites[id].Host).NearestPresence(c)
	if slot >= 0 {
		memo[slot] = hostMemo{known: true, idx: int32(i), km: km}
	}
	return i, km
}

// resolveRoute computes the BGP decision for src (the uncached path; see
// Route). Visibility is decided once per call and shared by every phase;
// early-exit keys add a host lookup to a presKm entry, so no candidate
// costs a haversine of its own.
func (r *Resolver) resolveRoute(src topology.ASN) (Route, bool) {
	S := r.g.AS(src)
	if S == nil {
		obsUnreachable.Inc()
		return Route{}, false
	}
	var visBuf [stackSites]bool
	var memoBuf [8]hostMemo
	vis := scratch(visBuf[:], len(r.sites))
	memo := scratch(memoBuf[:], r.sharedHosts)
	for i := range r.sites {
		vis[i] = r.visible(S, &r.sites[i])
	}

	// Phase 1: direct peer routes (path length 2). BGP prefers these on
	// local-pref and length; early exit picks the nearest interconnect.
	// Peering and entry points are per-host, so hosts shared by several
	// sites (the CDN's network) are looked up once per call.
	best := Route{SiteID: -1}
	bestKey := 0.0
	var bestEntry geo.Coord
	for id := range r.sites {
		if !vis[id] {
			continue
		}
		var he hostMemo
		slot := r.hostSlot[id]
		if slot >= 0 {
			he = memo[slot]
		}
		if !he.known {
			he.known = true
			he.peered = r.g.Peered(src, r.sites[id].Host)
			if he.peered {
				i, km := r.g.AS(r.sites[id].Host).NearestPresence(S.Loc)
				he.idx, he.km = int32(i), km
			}
			if slot >= 0 {
				memo[slot] = he
			}
		}
		if !he.peered {
			continue
		}
		// The source exits at its nearest interconnect with the host;
		// inside the host network the anycast address is routed to the
		// nearest site in the deployment (near-optimal WAN, §6).
		key := he.km + r.presKm[id][he.idx]
		if best.SiteID == -1 || key < bestKey {
			s := &r.sites[id]
			best = Route{SiteID: id, PathLen: 2, Direct: true, Via: s.Host}
			bestKey, bestEntry = key, r.g.AS(s.Host).Presence[he.idx]
		}
	}
	if best.SiteID != -1 {
		best.Waypoints = []geo.Coord{S.Loc, bestEntry, r.sites[best.SiteID].Loc}
		obsRoutes.Inc()
		obsDirectRoutes.Inc()
		return best, true
	}

	// Phase 2: provider routes. Shortest AS path across all providers wins
	// (equal local-pref multihoming); the first provider in preference
	// order achieving it carries the traffic.
	bestLen := uint8(255)
	var chosen topology.ASN
	for _, p := range S.Providers {
		dists := r.transitRow(p)
		if dists == nil {
			// Provider is not a transit (shouldn't happen); skip.
			continue
		}
		md := uint8(255)
		for id, d := range dists {
			if d < md && vis[id] {
				md = d
			}
		}
		if md < bestLen {
			bestLen, chosen = md, p
		}
	}
	if bestLen == 255 {
		obsUnreachable.Inc()
		return Route{}, false
	}
	obsBestPathTies.Inc()

	obsRoutes.Inc()
	obsProvRoutes.Inc()
	clear(memo)
	return r.routeViaTransit(S, vis, memo, chosen, bestLen), true
}

// routeViaTransit picks the site reached through provider p among the
// visible sites at transit distance d, applying hot-potato selection at
// each stage. memo must arrive zeroed.
func (r *Resolver) routeViaTransit(S *topology.AS, vis []bool, memo []hostMemo, p topology.ASN, d uint8) Route {
	if d >= 2 {
		obsDeepDecisions.Inc()
	}
	P := r.g.AS(p)
	pi := P.ClosestPresence(S.Loc)
	entry := P.Presence[pi]
	dists := r.transitRow(p)

	var candBuf [stackSites]int32
	candidates := candBuf[:0]
	for id, dd := range dists {
		if dd == d && vis[id] {
			candidates = append(candidates, int32(id))
		}
	}

	switch d {
	case 0, 1:
		// p hands off directly to the host; its egress is the host
		// interconnect, which for single-site hosts is the site itself.
		// Inside a multi-presence host (the CDN), the anycast address
		// then travels the internal WAN to the nearest deployed site.
		best, bestKey := int(candidates[0]), math.Inf(1)
		var bestEgress geo.Coord
		for _, c := range candidates {
			id := int(c)
			eg, dEg := r.nearestExit(memo, id, entry)
			if key := dEg + r.presKm[id][eg]; key < bestKey {
				best, bestKey = id, key
				bestEgress = r.g.AS(r.sites[id].Host).Presence[eg]
			}
		}
		return Route{
			SiteID:    best,
			PathLen:   int(d) + 2,
			Via:       p,
			Waypoints: []geo.Coord{S.Loc, entry, bestEgress, r.sites[best].Loc},
		}
	case 2:
		// p learned the prefix from several upstream neighbors, all with
		// equal path length; its own hot-potato leg is ~0 to each (they
		// are well-spread networks), so the neighbor choice is effectively
		// arbitrary (router-id / session age). The chosen neighbor u then
		// routes within ITS customer cone: only sites whose hosts attach
		// to u are reachable at this length, and u hot-potato-exits to the one whose
		// interconnect is nearest u's entry. With heterogeneous hosts (the
		// root letters) u's cone holds few sites, so the "nearest" one can
		// be far from the user — the paper's large-deployment inflation.
		var nsBuf [16]neighbor
		ns := nsBuf[:0]
		for _, c := range candidates {
			for _, u := range r.g.AS(r.sites[c].Host).Providers {
				if hasNeighbor(ns, u) || !r.adjacentUp(p, u) {
					continue
				}
				ns = append(ns, neighbor{u, r.g.PairUnit(p, u)})
			}
		}
		slices.SortFunc(ns, func(a, b neighbor) int {
			if a.pref != b.pref {
				return cmp.Compare(a.pref, b.pref)
			}
			return cmp.Compare(a.u, b.u)
		})
		// Only the neighbor that returns fills memo (keys are finite, so
		// any candidate in its cone becomes best): no reset in between.
		for _, n := range ns {
			U := r.g.AS(n.u)
			ui := U.ClosestPresence(entry)
			uEntry := U.Presence[ui]
			best, bestKey := -1, math.Inf(1)
			var bestIx geo.Coord
			for _, c := range candidates {
				id := int(c)
				if !r.hasProvider(r.sites[id].Host, n.u) {
					continue
				}
				ix, dIx := r.nearestExit(memo, id, uEntry)
				if key := dIx + r.presKm[id][ix]; key < bestKey {
					best, bestKey = id, key
					bestIx = r.g.AS(r.sites[id].Host).Presence[ix]
				}
			}
			if best == -1 {
				continue
			}
			return Route{
				SiteID:    best,
				PathLen:   int(d) + 2,
				Via:       p,
				Waypoints: []geo.Coord{S.Loc, entry, uEntry, bestIx, r.sites[best].Loc},
			}
		}
		// No neighbor found (shouldn't happen); fall through to arbitrary.
		fallthrough
	default:
		// Deeper paths: the decision is made far from the source and is
		// effectively arbitrary from its perspective.
		best, bestTie := &r.sites[candidates[0]], math.Inf(1)
		for _, c := range candidates {
			s := &r.sites[c]
			if tie := r.g.PairUnit(p, s.Host); tie < bestTie {
				best, bestTie = s, tie
			}
		}
		T := r.g.AS(r.preferredTier1(p))
		ti := T.ClosestPresence(entry)
		mid := T.Presence[ti]
		host := r.g.AS(best.Host)
		up := host.Loc
		if len(host.Providers) > 0 {
			if U := r.g.AS(host.Providers[0]); U != nil {
				ui := U.ClosestPresence(best.Loc)
				up = U.Presence[ui]
			}
		}
		return Route{
			SiteID:    best.ID,
			PathLen:   int(d) + 2,
			Via:       p,
			Waypoints: []geo.Coord{S.Loc, entry, mid, up, best.Loc},
		}
	}
}

// neighbor is one upstream of case-2 hot-potato selection, with p's
// deterministic preference for it.
type neighbor struct {
	u    topology.ASN
	pref float64
}

// hasNeighbor reports whether ns already lists u.
func hasNeighbor(ns []neighbor, u topology.ASN) bool {
	for _, n := range ns {
		if n.u == u {
			return true
		}
	}
	return false
}

// hasProvider reports whether host h buys transit from u.
func (r *Resolver) hasProvider(h, u topology.ASN) bool {
	H := r.g.AS(h)
	for _, p := range H.Providers {
		if p == u {
			return true
		}
	}
	return false
}

// preferredTier1 returns p's deterministically preferred tier-1.
func (r *Resolver) preferredTier1(p topology.ASN) topology.ASN {
	t1s := r.g.Tier1s()
	best := t1s[0]
	bestU := 2.0
	for _, t := range t1s {
		if v := r.g.PairUnit(p, t); v < bestU {
			best, bestU = t, v
		}
	}
	return best
}

// CatchmentsCtx resolves routes for every AS in srcs, returning only
// successful resolutions. Sources are sharded across one worker per CPU
// to fill the route memo, then read back from it in input order, so the
// returned map is identical to a serial pass. A traced run records one
// "bgp.catchments" span with a "bgp.catchments.shard" child per worker,
// all parented under the calling stage.
func (r *Resolver) CatchmentsCtx(ctx context.Context, srcs []topology.ASN) map[topology.ASN]Route {
	ctx, batch := obs.StartSpanCtx(ctx, "bgp.catchments")
	defer batch.End()
	var start time.Time
	if timed := obs.Enabled() && len(srcs) > 0; timed {
		start = time.Now()
		defer func() {
			obsCatchPerAS.Observe(float64(time.Since(start).Nanoseconds()) / float64(len(srcs)))
		}()
	}
	obsCatchBatches.Inc()
	par.DoCtx(ctx, len(srcs), func(ctx context.Context, lo, hi int) {
		_, sp := obs.StartSpanCtx(ctx, "bgp.catchments.shard")
		defer sp.End()
		for _, s := range srcs[lo:hi] {
			if r.slot(s) != nil {
				r.Route(s)
			}
		}
	})
	// Every source with a slot is now filled; the rest resolve here.
	out := make(map[topology.ASN]Route, len(srcs))
	for _, src := range srcs {
		var rt Route
		var ok bool
		if s := r.slot(src); s != nil {
			rt, ok = s.route()
		} else {
			rt, ok = r.Route(src)
		}
		if ok {
			out[src] = rt
		}
	}
	return out
}
