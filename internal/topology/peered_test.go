package topology

import (
	"math"
	"reflect"
	"sort"
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

	var peered int
	branches := map[string]int{}
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
			if a == b || A.Class == ClassTier1 || B.Class == ClassTier1 || A.explicitPeer(B) {
				continue
			}
			p, u := A.PeeringRichness*B.PeeringRichness, g.PairUnit(a, b)
			switch {
			case u >= p:
				branches["pre-filtered"]++
			case u < p*0.02:
				branches["shortcut"]++
			case u < p*0.25:
				branches["3000 km"]++
			case u < p*0.6:
				branches["1500 km"]++
			default:
				branches["500 km"]++
			}
		}
	}
	// Every branch of Peered must be exercised, with both outcomes.
	for _, br := range []string{"pre-filtered", "shortcut", "3000 km", "1500 km", "500 km"} {
		if branches[br] == 0 {
			t.Errorf("no pair took the %s branch (%v)", br, branches)
		}
	}
	if peered == 0 {
		t.Error("no pair peered")
	}
}

// refTransitsNear is transitsNear as it was written before rank keys:
// one haversine per transit and region, sorted by km then ASN.
func refTransitsNear(g *Graph, regions []geo.Region) [][]ASN {
	out := make([][]ASN, len(regions))
	for ri, r := range regions {
		type cand struct {
			asn ASN
			d   float64
		}
		var cands []cand
		for _, tn := range g.Transits() {
			_, d := g.AS(tn).NearestPresence(r.Center)
			cands = append(cands, cand{tn, d})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].asn < cands[j].asn
		})
		for _, c := range cands {
			out[ri] = append(out[ri], c.asn)
		}
	}
	return out
}

func TestTransitsNearMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 13} {
		g, err := New(Config{Seed: seed, NumTier1: 6, NumTransit: 150, NumEyeball: 50}, testRegions(t))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := g.transitsNear(g.Regions), refTransitsNear(g, g.Regions); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: transitsNear differs from the haversine reference", seed)
		}
		// Sub-millimetre near-ties: move every other transit's home a
		// hair off its predecessor's, so their rank keys fall inside the
		// tie window for every region and only the km can order them.
		tr := g.Transits()
		for i := 1; i < len(tr); i += 2 {
			prev, a := g.AS(tr[i-1]), g.AS(tr[i])
			a.Presence[0] = geo.Coord{Lat: prev.Presence[0].Lat + float64(i%5-2)*1e-9, Lon: prev.Presence[0].Lon}
			a.InvalidatePresence()
		}
		if got, want := g.transitsNear(g.Regions), refTransitsNear(g, g.Regions); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: with near-ties, transitsNear differs from the haversine reference", seed)
		}
	}
}
