package anycastnet

import (
	"math/rand"
	"slices"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
)

// refNearbyUpstreams is NearbyUpstreams as it was written before rank
// keys: one haversine per transit, then a partial selection of the 3
// nearest (first position wins ties) of which the first 1-2 are kept.
func refNearbyUpstreams(g *topology.Graph, loc geo.Coord, rng *rand.Rand) []topology.ASN {
	type cand struct {
		asn topology.ASN
		d   float64
	}
	var cands []cand
	for _, tn := range g.Transits() {
		_, d := g.AS(tn).NearestPresence(loc)
		cands = append(cands, cand{tn, d})
	}
	for i := 0; i < 3 && i < len(cands); i++ {
		min := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].d < cands[min].d {
				min = j
			}
		}
		cands[i], cands[min] = cands[min], cands[i]
	}
	ups := []topology.ASN{}
	n := 1 + rng.Intn(2)
	for i := 0; i < n && i < len(cands); i++ {
		ups = append(ups, cands[i].asn)
	}
	t1s := g.Tier1s()
	return append(ups, t1s[rng.Intn(len(t1s))])
}

// TestNearbyUpstreamsMatchesReference queries region centres (where
// transits homed in one region tie exactly), site-like points jittered
// around them, and transit presence points, at three seeds. The result
// and the rng state afterwards must match the haversine reference.
func TestNearbyUpstreamsMatchesReference(t *testing.T) {
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	for _, seed := range []int64{1, 7, 13} {
		g, err := topology.New(topology.Config{Seed: seed, NumTier1: 6, NumTransit: 150, NumEyeball: 50}, regions)
		if err != nil {
			t.Fatal(err)
		}
		jit := rand.New(rand.NewSource(seed))
		var locs []geo.Coord
		for _, r := range regions {
			locs = append(locs, r.Center, geo.Jitter(r.Center, 60, jit.Float64(), jit.Float64()))
		}
		for _, tn := range g.Transits() {
			locs = append(locs, g.AS(tn).Presence...)
		}
		check := func(what string) {
			for i, loc := range locs {
				a, b := rand.New(rand.NewSource(int64(i))), rand.New(rand.NewSource(int64(i)))
				got, want := NearbyUpstreams(g, loc, a), refNearbyUpstreams(g, loc, b)
				if !slices.Equal(got, want) || a.Int63() != b.Int63() {
					t.Fatalf("seed %d, %s: NearbyUpstreams(%v) = %v, reference %v", seed, what, loc, got, want)
				}
			}
		}
		check("as built")
		// Sub-millimetre near-ties: every other transit's home moves a
		// hair off its predecessor's, so rank keys tie and km decides.
		tr := g.Transits()
		for i := 1; i < len(tr); i += 2 {
			prev, a := g.AS(tr[i-1]), g.AS(tr[i])
			a.Presence[0] = geo.Coord{Lat: prev.Presence[0].Lat + float64(i%5-2)*1e-9, Lon: prev.Presence[0].Lon}
			a.InvalidatePresence()
		}
		check("near-ties")
	}
}
