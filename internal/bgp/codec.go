package bgp

import (
	"fmt"

	"anycastctx/internal/artifact"
	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

// AppendRoute encodes one Route. The encoding is deterministic: floats
// are raw IEEE-754 bits, so decode→encode reproduces the input bytes.
func AppendRoute(w *artifact.Writer, rt Route) {
	w.I32(int32(rt.SiteID))
	w.I32(int32(rt.PathLen))
	w.Bool(rt.Direct)
	w.I32(int32(rt.Via))
	w.U8(uint8(len(rt.Waypoints)))
	for _, p := range rt.Waypoints {
		w.F64(p.Lat)
		w.F64(p.Lon)
	}
}

// MinRouteSize is AppendRoute's encoded size for a Route without
// Waypoints.
const MinRouteSize = 4 + 4 + 1 + 4 + 1

// ReadRoute decodes one Route written by AppendRoute.
func ReadRoute(r *artifact.Reader) Route {
	rt := Route{
		SiteID:  int(r.I32()),
		PathLen: int(r.I32()),
		Direct:  r.Bool(),
		Via:     topology.ASN(r.I32()),
	}
	n := int(r.U8())
	if n > 0 {
		rt.Waypoints = make([]geo.Coord, n)
		for i := range rt.Waypoints {
			rt.Waypoints[i].Lat = r.F64()
			rt.Waypoints[i].Lon = r.F64()
		}
	}
	return rt
}

// AppendState persists the resolver's route state for srcs: the
// transit-distance tables (ASN-sorted) and one cache entry per source in
// srcs order, negative (unreachable) entries included. Every source in
// srcs must already be resolved (Warm the resolver first); missing
// entries are an error rather than a silent gap, because a partial
// artifact would make warm runs diverge from cold ones.
func (r *Resolver) AppendState(w *artifact.Writer, srcs []topology.ASN) error {
	r.EnsureTables()
	rows := 0
	for _, dists := range r.transitDist {
		if dists != nil {
			rows++
		}
	}
	w.U32(uint32(len(r.sites)))
	w.U64(uint64(rows))
	// Dense positions follow ASN order, so the rows come out ASN-sorted.
	all := r.g.All()
	for i, dists := range r.transitDist {
		if dists == nil {
			continue
		}
		w.I32(int32(all[i]))
		for _, d := range dists {
			w.U8(d)
		}
	}
	w.U64(uint64(len(srcs)))
	for _, src := range srcs {
		s := r.slot(src)
		if s == nil || s.state.Load() != slotFilled {
			return fmt.Errorf("bgp: AppendState: source AS%d not resolved", src)
		}
		rt, ok := s.route()
		w.I32(int32(src))
		w.Bool(ok)
		AppendRoute(w, rt)
	}
	return nil
}

// restoredRoute is one decoded cache entry, held until the whole payload
// has validated.
type restoredRoute struct {
	src topology.ASN
	rt  Route
	ok  bool
}

// RestoreState seeds the resolver from an AppendState payload: the
// transit tables are pinned (never recomputed) and every encoded entry
// lands in the route cache, so downstream route lookups are hits with
// values identical to a fresh resolution. Restoring into a resolver
// that has already computed tables is an error — the artifact engine
// only restores into freshly built resolvers — and so is a table row or
// source outside the resolver's graph. A payload that fails leaves the
// resolver untouched.
func (r *Resolver) RestoreState(rd *artifact.Reader) error {
	nSites := int(rd.U32())
	if err := rd.Err(); err != nil {
		return err
	}
	if nSites != len(r.sites) {
		return fmt.Errorf("bgp: RestoreState: artifact has %d sites, resolver has %d", nSites, len(r.sites))
	}
	// One table row is an ASN plus a hop count per site.
	nASN := rd.Count(4 + nSites)
	if err := rd.Err(); err != nil {
		return err
	}
	var td [][]uint8
	flat := make([]uint8, nASN*nSites)
	for i := 0; i < nASN; i++ {
		p := topology.ASN(rd.I32())
		pos := r.g.Index(p)
		if rd.Err() == nil && pos < 0 {
			return fmt.Errorf("bgp: RestoreState: transit AS%d not in graph", p)
		}
		dists := flat[:nSites:nSites]
		flat = flat[nSites:]
		for j := range dists {
			dists[j] = rd.U8()
		}
		if pos >= len(td) {
			td = append(td, make([][]uint8, pos+1-len(td))...)
		}
		if pos >= 0 {
			td[pos] = dists
		}
	}
	nSrc := rd.Count(4 + 1 + MinRouteSize)
	if err := rd.Err(); err != nil {
		return err
	}
	entries := make([]restoredRoute, nSrc)
	for i := range entries {
		e := &entries[i]
		e.src = topology.ASN(rd.I32())
		e.ok = rd.Bool()
		e.rt = ReadRoute(rd)
		if err := rd.Err(); err != nil {
			return err
		}
		if e.ok && (e.rt.SiteID < 0 || e.rt.SiteID >= nSites) {
			return fmt.Errorf("bgp: RestoreState: route for AS%d names site %d of %d", e.src, e.rt.SiteID, nSites)
		}
		if pos := r.g.Index(e.src); pos < 0 || pos >= r.nSlots {
			return fmt.Errorf("bgp: RestoreState: source AS%d outside the resolver's graph", e.src)
		}
	}
	seeded := false
	r.tablesOnce.Do(func() {
		r.transitDist = td
		seeded = true
	})
	if !seeded {
		return fmt.Errorf("bgp: RestoreState: resolver already has transit tables")
	}
	n := 0
	for _, e := range entries {
		if _, _, won := r.slot(e.src).fill(e.rt, e.ok); won {
			n++
		}
	}
	obsCacheSeeded.Add(uint64(n))
	obsCacheEntries.Add(float64(n))
	return nil
}
