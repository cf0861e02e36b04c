package geo

import (
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

// checkNearest requires the index to agree with the brute-force scan bit
// for bit, position and km alike.
func checkNearest(t *testing.T, name string, ix *Index, pts []Coord, c Coord) {
	t.Helper()
	gi, gkm := ix.Nearest(c)
	wi, wkm := bruteNearest(pts, c)
	if gi != wi || math.Float64bits(gkm) != math.Float64bits(wkm) {
		t.Errorf("%s: Nearest(%v) = (%d, %v), brute force (%d, %v)", name, c, gi, gkm, wi, wkm)
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
