package bgp

import (
	"context"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

// providerRouteAllocBound is the allocation budget per uncached provider
// route (see TestProviderRouteAllocations). The one allocation a route
// needs is its Waypoints slice.
const providerRouteAllocBound = 1.5

// TestProviderRouteAllocations locks in allocation-light resolution:
// deciding a provider route from scratch (no route memo) allocates only
// the returned Waypoints, both for single-presence site hosts and for a
// ring whose sites share one multi-presence host.
func TestProviderRouteAllocations(t *testing.T) {
	g := buildWorld(t, 4)
	letter := deploySites(g, 12, 0.3)
	pops := make([]geo.Coord, 40)
	for i := range pops {
		pops[i] = g.Regions[i%len(g.Regions)].Center
	}
	cdn := g.AddCDNAS("cdn", pops)
	ring := make([]Site, len(pops))
	for i, p := range pops {
		ring[i] = Site{ID: i, Loc: p, Host: cdn.ASN, Global: true}
	}
	for name, sites := range map[string][]Site{"letter": letter, "ring": ring} {
		r, err := NewResolver(g, sites)
		if err != nil {
			t.Fatal(err)
		}
		var srcs []topology.ASN
		for _, e := range g.Eyeballs() {
			if rt, ok := r.referenceRoute(e); ok && !rt.Direct {
				srcs = append(srcs, e)
			}
		}
		if len(srcs) == 0 {
			t.Fatalf("%s: no provider routes", name)
		}
		allocs := testing.AllocsPerRun(5, func() {
			for _, s := range srcs {
				r.resolveRoute(s)
			}
		})
		perRoute := allocs / float64(len(srcs))
		t.Logf("%s: %d provider routes, %.2f allocations per route", name, len(srcs), perRoute)
		if perRoute > providerRouteAllocBound {
			t.Errorf("%s: provider route resolution allocates %.2f times per route, bound %v",
				name, perRoute, providerRouteAllocBound)
		}
	}
}

// TestRouteMemoFillAllocations: once a resolver's memo exists, filling it
// allocates nothing beyond each route's Waypoints, and a hit allocates
// nothing.
func TestRouteMemoFillAllocations(t *testing.T) {
	g := buildWorld(t, 4)
	sites := deploySites(g, 12, 0.3)
	srcs := g.Eyeballs()
	// Resolving everything once builds the graph's lazy per-AS presence
	// indexes, which are not the memo's to pay for.
	warm, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	warm.WarmCtx(context.Background(), srcs)
	r, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	r.EnsureTables()
	r.Route(srcs[0]) // allocates the memo
	// Every call fills a different cold slot (AllocsPerRun makes one
	// warm-up call, then runs more).
	next := 0
	if fills := testing.AllocsPerRun(len(srcs)-2, func() {
		next++
		r.Route(srcs[next])
	}); fills > 1 {
		t.Errorf("a memo fill allocates %v times, want at most 1 (its Waypoints)", fills)
	}
	if hits := testing.AllocsPerRun(5, func() {
		for _, s := range srcs {
			r.Route(s)
		}
	}); hits != 0 {
		t.Errorf("memo hits allocate %v times per pass", hits)
	}
}
