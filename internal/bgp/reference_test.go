package bgp

import (
	"math"
	"sort"

	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

// referenceRoute is the straightforward form of resolveRoute, kept as a
// test oracle: it prices every candidate site with its own haversine,
// looks up every host's nearest presence per site, copies candidate
// sites into a fresh slice and re-tests visibility in every phase. The
// production resolver must return bit-identical Routes. It bypasses the
// route cache and the obs counters.
func (r *Resolver) referenceRoute(src topology.ASN) (Route, bool) {
	S := r.g.AS(src)
	if S == nil {
		return Route{}, false
	}

	best := Route{SiteID: -1}
	bestKey := 0.0
	var bestEntry geo.Coord
	for _, s := range r.sites {
		if !r.visible(S, &s) || !r.g.Peered(src, s.Host) {
			continue
		}
		host := r.g.AS(s.Host)
		i, dEntry := host.NearestPresence(S.Loc)
		entry := host.Presence[i]
		key := dEntry + geo.DistanceKm(entry, s.Loc)
		if best.SiteID == -1 || key < bestKey {
			best = Route{SiteID: s.ID, PathLen: 2, Direct: true, Via: s.Host}
			bestKey, bestEntry = key, entry
		}
	}
	if best.SiteID != -1 {
		best.Waypoints = []geo.Coord{S.Loc, bestEntry, r.sites[best.SiteID].Loc}
		return best, true
	}

	type provOption struct {
		prov    topology.ASN
		minDist uint8
	}
	var opts []provOption
	bestLen := uint8(255)
	for _, p := range S.Providers {
		dists := r.transitRow(p)
		if dists == nil {
			continue
		}
		md := uint8(255)
		for _, s := range r.sites {
			if !r.visible(S, &s) {
				continue
			}
			if d := dists[s.ID]; d < md {
				md = d
			}
		}
		if md == 255 {
			continue
		}
		opts = append(opts, provOption{p, md})
		if md < bestLen {
			bestLen = md
		}
	}
	if len(opts) == 0 {
		return Route{}, false
	}
	var chosen topology.ASN
	for _, o := range opts {
		if o.minDist == bestLen {
			chosen = o.prov
			break
		}
	}
	return r.referenceViaTransit(S, chosen, bestLen), true
}

// nearestPoint is the pre-index NearestPresence shape: the point and km.
func nearestPoint(a *topology.AS, c geo.Coord) (geo.Coord, float64) {
	i, d := a.NearestPresence(c)
	return a.Presence[i], d
}

// referenceViaTransit is routeViaTransit's reference form (see
// referenceRoute).
func (r *Resolver) referenceViaTransit(S *topology.AS, p topology.ASN, d uint8) Route {
	entry, _ := nearestPoint(r.g.AS(p), S.Loc)
	dists := r.transitRow(p)

	candidates := make([]Site, 0, len(r.sites))
	for _, s := range r.sites {
		if dists[s.ID] == d && r.visible(S, &s) {
			candidates = append(candidates, s)
		}
	}

	switch d {
	case 0, 1:
		best, bestKey := candidates[0], math.Inf(1)
		var bestEgress geo.Coord
		for _, s := range candidates {
			egress, dEg := nearestPoint(r.g.AS(s.Host), entry)
			key := dEg + geo.DistanceKm(egress, s.Loc)
			if key < bestKey {
				best, bestKey, bestEgress = s, key, egress
			}
		}
		return Route{
			SiteID:    best.ID,
			PathLen:   int(d) + 2,
			Via:       p,
			Waypoints: []geo.Coord{S.Loc, entry, bestEgress, best.Loc},
		}
	case 2:
		var ns []neighbor
		seen := map[topology.ASN]bool{}
		for _, s := range candidates {
			for _, u := range r.g.AS(s.Host).Providers {
				if seen[u] || !r.adjacentUp(p, u) {
					continue
				}
				seen[u] = true
				ns = append(ns, neighbor{u, r.g.PairUnit(p, u)})
			}
		}
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].pref != ns[j].pref {
				return ns[i].pref < ns[j].pref
			}
			return ns[i].u < ns[j].u
		})
		for _, n := range ns {
			uEntry, _ := nearestPoint(r.g.AS(n.u), entry)
			best, bestKey := Site{ID: -1}, math.Inf(1)
			var bestIx geo.Coord
			for _, s := range candidates {
				if !r.hasProvider(s.Host, n.u) {
					continue
				}
				ix, dIx := nearestPoint(r.g.AS(s.Host), uEntry)
				key := dIx + geo.DistanceKm(ix, s.Loc)
				if key < bestKey {
					best, bestKey, bestIx = s, key, ix
				}
			}
			if best.ID == -1 {
				continue
			}
			return Route{
				SiteID:    best.ID,
				PathLen:   int(d) + 2,
				Via:       p,
				Waypoints: []geo.Coord{S.Loc, entry, uEntry, bestIx, best.Loc},
			}
		}
		fallthrough
	default:
		best, bestTie := candidates[0], math.Inf(1)
		for _, s := range candidates {
			if tie := r.g.PairUnit(p, s.Host); tie < bestTie {
				best, bestTie = s, tie
			}
		}
		mid, _ := nearestPoint(r.g.AS(r.preferredTier1(p)), entry)
		host := r.g.AS(best.Host)
		up := host.Loc
		if len(host.Providers) > 0 {
			if U := r.g.AS(host.Providers[0]); U != nil {
				up, _ = nearestPoint(U, best.Loc)
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
