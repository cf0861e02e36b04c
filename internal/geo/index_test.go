package geo

import (
	"cmp"
	"math"
	"math/rand"
	"testing"
)

// bruteNearest is the direct scan Index replaces: haversine to every
// point, first strict minimum wins.
func bruteNearest(pts []Coord, c Coord) (int, float64) {
	best, bestKm := -1, math.Inf(1)
	for i, p := range pts {
		if km := DistanceKm(c, p); best < 0 || km < bestKm {
			best, bestKm = i, km
		}
	}
	return best, bestKm
}

// bruteWithin is the direct scan Within replaces.
func bruteWithin(pts []Coord, c Coord, km float64) bool {
	for _, p := range pts {
		if DistanceKm(c, p) < km {
			return true
		}
	}
	return false
}

// checkNearest requires the index to agree with the brute-force scan bit
// for bit, position and km alike, in Nearest and Closest. Within must
// agree at the peering radii and on both sides of the nearest km itself,
// the tightest radius there is: nothing lies strictly within it, and the
// nearest point lies within the next float above it.
func checkNearest(t *testing.T, name string, ix *Index, pts []Coord, c Coord) {
	t.Helper()
	gi, gkm := ix.Nearest(c)
	wi, wkm := bruteNearest(pts, c)
	if gi != wi || math.Float64bits(gkm) != math.Float64bits(wkm) {
		t.Errorf("%s: Nearest(%v) = (%d, %v), brute force (%d, %v)", name, c, gi, gkm, wi, wkm)
	}
	q := NewPoint(c)
	if got := ix.Closest(q); got != wi {
		t.Errorf("%s: Closest(%v) = %d, brute force %d", name, c, got, wi)
	}
	for _, km := range []float64{500, 1500, 3000, wkm, math.Nextafter(wkm, math.Inf(1))} {
		if got, want := ix.Within(q, km), bruteWithin(pts, c, km); got != want {
			t.Errorf("%s: Within(%v, %v) = %v, brute force %v", name, c, km, got, want)
		}
	}
}

func TestIndexEdgeCases(t *testing.T) {
	tests := []struct {
		name    string
		pts     []Coord
		queries []Coord
		want    []int // expected position per query, when hand-checkable
	}{
		{
			name:    "region centers",
			pts:     []Coord{{0, 0}, {50, 50}},
			queries: []Coord{{49, 49}, {1, 1}},
			want:    []int{1, 0},
		},
		{
			name:    "zero points",
			queries: []Coord{{0, 0}, {45, 90}},
			want:    []int{-1, -1},
		},
		{
			name:    "one point",
			pts:     []Coord{{10, 20}},
			queries: []Coord{{10, 20}, {-80, -170}},
			want:    []int{0, 0},
		},
		{
			name:    "duplicate points",
			pts:     []Coord{{5, 5}, {40, -70}, {40, -70}, {40, -70}},
			queries: []Coord{{41, -71}, {40, -70}, {6, 6}},
			want:    []int{1, 1, 0},
		},
		{
			name:    "exact ties",
			pts:     []Coord{{0, 10}, {0, -10}, {10, 0}, {-10, 0}},
			queries: []Coord{{0, 0}, {5, 0}, {0, -5}},
			want:    []int{0, 2, 1},
		},
		{
			name:    "poles",
			pts:     []Coord{{90, 0}, {90, 120}, {-90, 0}, {-90, -45}, {89.999, 0}},
			queries: []Coord{{90, 0}, {90, -60}, {-90, 170}, {-89.5, 30}, {89.9995, 0}},
		},
		{
			name:    "antimeridian",
			pts:     []Coord{{0, 179.9}, {0, -179.9}, {0, 180}, {0, -180}, {10, 179.99}},
			queries: []Coord{{0, 180}, {0, -180}, {0.01, 179.95}, {0, -179.95}, {9, -179.99}},
		},
		{
			name:    "antipodes",
			pts:     []Coord{{0, 180}, {0, -180}, {0, 0}, {45, 90}, {-45, -90}},
			queries: []Coord{{0, 0}, {0, 180}, {45, 90}, {-45, -90}, {0, 90}},
		},
		{
			name: "sub-millimetre near-ties",
			pts: []Coord{
				{48.8566, 2.3522}, {48.8566 + 1e-9, 2.3522}, {48.8566, 2.3522 - 1e-9},
				{48.8566 - 1e-12, 2.3522 + 1e-12}, {48.8566, 2.3522},
			},
			queries: []Coord{{48.8566, 2.3522}, {48.8566 + 5e-10, 2.3522}, {48.9, 2.4}, {-48.8566, -177.6478}},
		},
	}
	for _, tc := range tests {
		ix := NewIndex(tc.pts)
		for qi, q := range tc.queries {
			checkNearest(t, tc.name, ix, tc.pts, q)
			if tc.want != nil {
				if got, _ := ix.Nearest(q); got != tc.want[qi] {
					t.Errorf("%s: Nearest(%v) = %d, want %d", tc.name, q, got, tc.want[qi])
				}
			}
		}
	}
	if _, km := NewIndex(nil).Nearest(Coord{}); !math.IsInf(km, 1) {
		t.Errorf("empty index km = %v, want +Inf", km)
	}
}

// TestIndexMatchesBruteForce compares the index with the direct scan on
// seeded random point sets: uniform over the sphere, clustered around a
// few metros (many near-ties), and with duplicated points.
func TestIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	uniform := func() Coord {
		return Coord{Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi, Lon: 360*rng.Float64() - 180}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		pts := make([]Coord, n)
		switch trial % 3 {
		case 0:
			for i := range pts {
				pts[i] = uniform()
			}
		case 1:
			centers := []Coord{uniform(), uniform(), uniform()}
			for i := range pts {
				c := centers[rng.Intn(len(centers))]
				pts[i] = Jitter(c, math.Pow(10, -2-4*rng.Float64()), rng.Float64(), rng.Float64())
			}
		case 2:
			for i := range pts {
				if i > 0 && rng.Float64() < 0.4 {
					pts[i] = pts[rng.Intn(i)]
				} else {
					pts[i] = uniform()
				}
			}
		}
		ix := NewIndex(pts)
		for q := 0; q < 50; q++ {
			c := uniform()
			if q%2 == 1 {
				// Queries at or right next to indexed points exercise the
				// near-tie window.
				c = Jitter(pts[rng.Intn(n)], 1e-3*rng.Float64(), rng.Float64(), rng.Float64())
			}
			checkNearest(t, "random", ix, pts, c)
		}
	}
}

// destination returns the point km along the great circle from c at the
// given bearing (radians from north).
func destination(c Coord, bearing, km float64) Coord {
	const degToRad = math.Pi / 180
	lat1, lon1, d := c.Lat*degToRad, c.Lon*degToRad, km/EarthRadiusKm
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(d) + math.Cos(lat1)*math.Sin(d)*math.Cos(bearing))
	lon2 := lon1 + math.Atan2(math.Sin(bearing)*math.Sin(d)*math.Cos(lat1), math.Cos(d)-math.Sin(lat1)*math.Sin(lat2))
	return Coord{Lat: lat2 / degToRad, Lon: normalizeLon(lon2 / degToRad)}
}

// TestWithinAtRadii places points a hair inside and outside the peering
// radii — 1e-6 km either side, and the adjacent pair of latitudes whose
// haversine straddles the radius exactly — and checks Within, on an
// index and on a single Point, against the haversine.
func TestWithinAtRadii(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		c := Coord{Lat: 120*rng.Float64() - 60, Lon: 360*rng.Float64() - 180}
		q := NewPoint(c)
		for _, km := range []float64{500, 1500, 3000} {
			// Bisect the meridian north of c down to the two adjacent
			// latitudes on either side of DistanceKm == km.
			lo, hi := c.Lat, c.Lat+2*km/EarthRadiusKm*180/math.Pi
			for math.Nextafter(lo, hi) < hi {
				mid := lo + (hi-lo)/2
				if mid == lo || mid == hi {
					break
				}
				if DistanceKm(c, Coord{Lat: mid, Lon: c.Lon}) < km {
					lo = mid
				} else {
					hi = mid
				}
			}
			b := rng.Float64() * 2 * math.Pi
			for _, p := range []Coord{
				destination(c, b, km-1e-6), destination(c, b, km+1e-6),
				{Lat: lo, Lon: c.Lon}, {Lat: hi, Lon: c.Lon},
			} {
				want := DistanceKm(c, p) < km
				if got := NewPoint(p).Within(q, km); got != want {
					t.Errorf("Point%v.Within(%v, %v) = %v, haversine %v km", p, c, km, got, DistanceKm(c, p))
				}
				if got := NewIndex([]Coord{p}).Within(q, km); got != want {
					t.Errorf("Index{%v}.Within(%v, %v) = %v, haversine %v km", p, c, km, got, DistanceKm(c, p))
				}
			}
			pts := []Coord{destination(c, b, km+1e-6), {Lat: hi, Lon: c.Lon}, {Lat: hi, Lon: c.Lon}, destination(c, b+1, km-1e-6)}
			for n := range pts {
				checkNearest(t, "radius", NewIndex(pts[:n]), pts[:n], c)
			}
		}
	}
}

func TestWithinRadiusEdges(t *testing.T) {
	pts := []Coord{{0, 0}, {0, 180}, {10, 10}}
	ix := NewIndex(pts)
	for _, km := range []float64{math.NaN(), math.Inf(-1), -1, 0, 1e-9, 20015, math.Pi * EarthRadiusKm, 20016, 1e9, math.Inf(1)} {
		for _, c := range []Coord{{0, 0}, {0, -180}, {-10, -170}, {45, 90}} {
			if got, want := ix.Within(NewPoint(c), km), bruteWithin(pts, c, km); got != want {
				t.Errorf("Within(%v, %v) = %v, brute force %v", c, km, got, want)
			}
			if got, want := NewPoint(pts[1]).Within(NewPoint(c), km), bruteWithin(pts[1:2], c, km); got != want {
				t.Errorf("Point%v.Within(%v, %v) = %v, brute force %v", pts[1], c, km, got, want)
			}
		}
	}
	if NewIndex(nil).Within(NewPoint(Coord{}), math.Inf(1)) {
		t.Error("empty index reports a point within +Inf km")
	}
	if i := NewIndex(nil).Closest(NewPoint(Coord{})); i != -1 {
		t.Errorf("empty index Closest = %d, want -1", i)
	}
}

// TestCompareRankOrdersSets checks that whenever CompareRank decides, it
// agrees strictly with the two sets' nearest km, on clustered sets whose
// keys often fall in the tie window.
func TestCompareRankOrdersSets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	centers := []Coord{{48.85, 2.35}, {-33.87, 151.21}, {40.71, -74.01}}
	set := func() []Coord {
		pts := make([]Coord, 1+rng.Intn(4))
		for i := range pts {
			pts[i] = Jitter(centers[rng.Intn(len(centers))], math.Pow(10, -6+7*rng.Float64()), rng.Float64(), rng.Float64())
		}
		return pts
	}
	decided := 0
	for trial := 0; trial < 2000; trial++ {
		a, b := set(), set()
		if trial%4 == 0 {
			b = append(b, a[0])
		}
		c := Jitter(centers[rng.Intn(len(centers))], 3000*rng.Float64(), rng.Float64(), rng.Float64())
		q := NewPoint(c)
		got := CompareRank(NewIndex(a).Rank(q), NewIndex(b).Rank(q))
		_, ka := bruteNearest(a, c)
		_, kb := bruteNearest(b, c)
		if got != 0 {
			decided++
			if want := cmp.Compare(ka, kb); got != want {
				t.Fatalf("CompareRank = %d, nearest km %v vs %v", got, ka, kb)
			}
		}
	}
	if decided == 0 {
		t.Error("CompareRank never decided")
	}
	if got := CompareRank(NewIndex(nil).Rank(NewPoint(Coord{})), 0); got != 1 {
		t.Errorf("empty set ranks %d against a point, want 1 (farther)", got)
	}
}

func TestIndexCopiesPoints(t *testing.T) {
	pts := []Coord{{0, 0}, {10, 10}}
	ix := NewIndex(pts)
	pts[0] = Coord{10, 10.1}
	if i, _ := ix.Nearest(Coord{1, 1}); i != 0 {
		t.Errorf("Nearest after caller mutation = %d, want 0", i)
	}
}

func BenchmarkIndexNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Coord, 40)
	for i := range pts {
		pts[i] = Coord{Lat: 180*rng.Float64() - 90, Lon: 360*rng.Float64() - 180}
	}
	ix := NewIndex(pts)
	q := Coord{Lat: 12.5, Lon: -33.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Nearest(q)
	}
}
