package topology

import (
	"math"
	"testing"

	"anycastctx/internal/geo"
)

// refNearestKm is a direct haversine scan over pts.
func refNearestKm(pts []geo.Coord, c geo.Coord) float64 {
	best := math.Inf(1)
	for _, p := range pts {
		if d := geo.DistanceKm(c, p); d < best {
			best = d
		}
	}
	return best
}

// refPeered is Peered as it was written before the richness pre-filter:
// the distance penalty is always computed, by a direct scan.
func refPeered(g *Graph, a, b ASN) bool {
	if a == b {
		return false
	}
	if g.HasExplicitPeering(a, b) {
		return true
	}
	A, B := g.AS(a), g.AS(b)
	if A == nil || B == nil {
		return false
	}
	if A.Class == ClassTier1 || B.Class == ClassTier1 {
		return false
	}
	p := A.PeeringRichness * B.PeeringRichness
	d := refNearestKm(B.Presence, A.Loc)
	if A.Class != ClassEyeball && B.Class == ClassEyeball {
		d = refNearestKm(A.Presence, B.Loc)
	}
	switch {
	case d < 500:
	case d < 1500:
		p *= 0.6
	case d < 3000:
		p *= 0.25
	default:
		p *= 0.02
	}
	if p <= 0 {
		return false
	}
	return g.PairUnit(a, b) < p
}

// TestPeeredMatchesReference checks every ordered AS pair of a small graph
// — tier-1s, transits, eyeballs, host ASes across the richness range and
// a multi-PoP CDN — against the reference formula.
func TestPeeredMatchesReference(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Transits()
	for i, rich := range []float64{0, 0.05, 0.3, 0.5, 0.77, 0.95, 1} {
		loc := g.Regions[(i*7)%len(g.Regions)].Center
		g.AddHostAS("host", loc, []ASN{tr[i%len(tr)]}, rich)
	}
	cdn := g.AddCDNAS("cdn", []geo.Coord{
		{Lat: 40.71, Lon: -74.01}, {Lat: 51.51, Lon: -0.13}, {Lat: 35.68, Lon: 139.69},
		{Lat: -33.87, Lon: 151.21}, {Lat: -23.55, Lon: -46.63},
	})
	for _, e := range g.Eyeballs()[:20] {
		g.Peer(e, cdn.ASN)
	}

	var peered, filtered int
	all := g.All()
	for _, a := range all {
		for _, b := range all {
			got, want := g.Peered(a, b), refPeered(g, a, b)
			if got != want {
				t.Fatalf("Peered(%d, %d) = %v, reference %v", a, b, got, want)
			}
			if got {
				peered++
			}
			A, B := g.AS(a), g.AS(b)
			if A.Class != ClassTier1 && B.Class != ClassTier1 &&
				g.PairUnit(a, b) >= A.PeeringRichness*B.PeeringRichness {
				filtered++
			}
		}
	}
	// Both sides of the pre-filter must be exercised.
	if peered == 0 || filtered == 0 {
		t.Errorf("peered pairs %d, pre-filtered pairs %d: want both > 0", peered, filtered)
	}
}
