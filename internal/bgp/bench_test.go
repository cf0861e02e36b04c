package bgp

import (
	"math/rand"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

func benchGraph(b *testing.B) *topology.Graph {
	b.Helper()
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: 1, NumTier1: 12, NumTransit: 80, NumEyeball: 1000}, regions)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchWorld(b *testing.B, sites int) (*topology.Graph, *Resolver) {
	b.Helper()
	g := benchGraph(b)
	anchors := geo.Anchors()
	ss := make([]Site, sites)
	for i := range ss {
		a := anchors[i%len(anchors)]
		host := g.AddHostAS("h", a.Coord, []topology.ASN{g.Transits()[i%len(g.Transits())], g.Tier1s()[i%len(g.Tier1s())]}, 0.3)
		ss[i] = Site{ID: i, Loc: a.Coord, Host: host.ASN, Global: true}
	}
	r, err := NewResolver(g, ss)
	if err != nil {
		b.Fatal(err)
	}
	return g, r
}

// benchRoutes times uncached resolution: each iteration decides one
// eyeball's route from scratch, bypassing the route memo (which would
// otherwise serve every iteration after the first pass over the
// eyeballs). The transit tables are built before the timer starts.
func benchRoutes(b *testing.B, g *topology.Graph, r *Resolver) {
	eyeballs := g.Eyeballs()
	r.EnsureTables()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.resolveRoute(eyeballs[i%len(eyeballs)]); !ok {
			b.Fatal("no route")
		}
	}
}

// BenchmarkRouteSmallDeployment measures per-source route resolution
// against a 5-site deployment.
func BenchmarkRouteSmallDeployment(b *testing.B) {
	g, r := benchWorld(b, 5)
	benchRoutes(b, g, r)
}

// BenchmarkRouteLargeDeployment measures resolution against a 138-site
// deployment (L-root scale).
func BenchmarkRouteLargeDeployment(b *testing.B) {
	g, r := benchWorld(b, 138)
	benchRoutes(b, g, r)
}

// BenchmarkRouteCDNRing measures resolution against a 110-site ring whose
// sites all sit on one 110-PoP, richly peered host (the CDN shape).
func BenchmarkRouteCDNRing(b *testing.B) {
	g := benchGraph(b)
	pops := make([]geo.Coord, 110)
	for i := range pops {
		pops[i] = g.Regions[i%len(g.Regions)].Center
	}
	host := g.AddCDNAS("cdn", pops)
	ss := make([]Site, len(pops))
	for i, p := range pops {
		ss[i] = Site{ID: i, Loc: p, Host: host.ASN, Global: true}
	}
	r, err := NewResolver(g, ss)
	if err != nil {
		b.Fatal(err)
	}
	benchRoutes(b, g, r)
}

// BenchmarkNewResolver measures the per-deployment precomputation.
func BenchmarkNewResolver(b *testing.B) {
	g, r := benchWorld(b, 50)
	sites := r.Sites()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewResolver(g, sites); err != nil {
			b.Fatal(err)
		}
	}
}
