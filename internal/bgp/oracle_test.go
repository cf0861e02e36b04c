package bgp_test

import (
	"context"
	"math"
	"testing"

	"anycastctx/internal/bgp"
	"anycastctx/internal/scenario"
	"anycastctx/internal/topology"
	"anycastctx/internal/world"
)

// sameRoute reports whether two decisions agree field for field, with
// Waypoints compared bit for bit.
func sameRoute(a, b bgp.Route) bool {
	if a.SiteID != b.SiteID || a.PathLen != b.PathLen || a.Direct != b.Direct || a.Via != b.Via ||
		len(a.Waypoints) != len(b.Waypoints) {
		return false
	}
	for i, p := range a.Waypoints {
		q := b.Waypoints[i]
		if math.Float64bits(p.Lat) != math.Float64bits(q.Lat) || math.Float64bits(p.Lon) != math.Float64bits(q.Lon) {
			return false
		}
	}
	return true
}

// outcomeTally counts compared decisions by kind, so the test can show
// it exercised every branch of the decision.
type outcomeTally struct {
	direct      int
	provider    [6]int // by PathLen
	unreachable int
}

// checkAgainstReference resolves every AS of g against sites with a fresh
// resolver, uncached, and fails on the first decision that differs from
// the reference haversine resolution.
func checkAgainstReference(t *testing.T, name string, g *topology.Graph, sites []bgp.Site, tally *outcomeTally) {
	t.Helper()
	r, err := bgp.NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range g.All() {
		want, wok := bgp.ReferenceRoute(r, src)
		got, gok := bgp.ResolveRoute(r, src)
		if wok != gok || (wok && !sameRoute(want, got)) {
			t.Fatalf("%s: AS%d: route %+v (ok=%v), reference %+v (ok=%v)", name, src, got, gok, want, wok)
		}
		switch {
		case !gok:
			tally.unreachable++
		case got.Direct:
			tally.direct++
		default:
			tally.provider[got.PathLen]++
		}
	}
}

// TestRouteMatchesReference pins the table-driven resolver to the
// reference decision on every source AS: the world's letters (shared
// partner hosts and local sites included), the largest CDN ring (one
// multi-presence host for every site) and the overlay after an
// upgrade_peering scenario (new explicit peerings).
func TestRouteMatchesReference(t *testing.T) {
	w, err := world.New(world.TestScale(1))
	if err != nil {
		t.Fatal(err)
	}
	var tally outcomeTally
	shared, local := false, false
	for _, l := range w.Letters() {
		hosts := map[topology.ASN]bool{}
		for _, s := range l.Sites {
			shared = shared || hosts[s.Host]
			hosts[s.Host] = true
			local = local || !s.Global
		}
		checkAgainstReference(t, "letter "+l.Name, w.Graph(), l.Sites, &tally)
	}
	if !shared || !local {
		t.Fatalf("letters lack coverage: shared host %v, local site %v", shared, local)
	}
	rings := w.CDN().Rings
	ring := rings[len(rings)-1]
	checkAgainstReference(t, "ring "+ring.Name, w.Graph(), ring.Deployment.Sites, &tally)

	spec := scenario.Spec{Name: "oracle-peering", Mutations: []scenario.Mutation{
		{Kind: scenario.KindUpgradePeering, Target: "B", TopEyeballs: 150},
		{Kind: scenario.KindUpgradePeering, Target: "cdn", TopEyeballs: 150},
	}}
	res, err := scenario.Eval(context.Background(), scenario.NewBaseline(w), spec, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ov := res.World
	for _, l := range ov.Letters() {
		if l.Name == "B" {
			checkAgainstReference(t, "overlay letter B", ov.Graph(), l.Sites, &tally)
		}
	}
	ovRings := ov.CDN().Rings
	ovRing := ovRings[len(ovRings)-1]
	checkAgainstReference(t, "overlay ring "+ovRing.Name, ov.Graph(), ovRing.Deployment.Sites, &tally)

	t.Logf("compared: %d direct, provider by path length %v, %d unreachable",
		tally.direct, tally.provider, tally.unreachable)
	if tally.direct == 0 || tally.provider[3] == 0 || tally.provider[4] == 0 || tally.provider[5] == 0 {
		t.Fatalf("decision branches not all exercised: %+v", tally)
	}
}
