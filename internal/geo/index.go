package geo

import (
	"cmp"
	"math"
)

// tieSlack is the dot-product window within which Index queries let the
// haversine decide. Computed unit-vector dot products and haversine
// terms h both carry absolute errors of a few 1e-15, and cos θ = 1-2h,
// so dot products more than the window apart order distances exactly as
// the haversine does. Inside it — duplicates, exact ties, sub-millimetre
// near-ties, a point a hair from a Within radius — DistanceKm decides.
const tieSlack = 1e-12

// Index answers nearest-point queries over a fixed set of points. It
// returns exactly what a direct first-wins haversine scan returns — the
// same index and the same km, bit for bit — but orders points by the dot
// product of precomputed unit vectors and prices only the winner, so a
// query costs one unit vector, n multiply-adds and (almost always) one
// haversine. Closest, Within and Rank skip even that haversine. An Index
// is immutable and safe for concurrent use.
type Index struct {
	pts  []Coord
	vecs []vec3
}

type vec3 struct{ x, y, z float64 }

func (a vec3) dot(b vec3) float64 { return a.x*b.x + a.y*b.y + a.z*b.z }

// unitVec returns c's unit vector on the sphere. Dot products of unit
// vectors order points by great-circle distance (larger dot = closer).
func unitVec(c Coord) vec3 {
	const degToRad = math.Pi / 180
	sinLat, cosLat := math.Sincos(c.Lat * degToRad)
	sinLon, cosLon := math.Sincos(c.Lon * degToRad)
	return vec3{cosLat * cosLon, cosLat * sinLon, sinLat}
}

// Point is a coordinate with its unit vector, so that repeated queries
// from it cost no trigonometry.
type Point struct {
	Coord
	v vec3
}

// NewPoint returns c with its unit vector.
func NewPoint(c Coord) Point { return Point{c, unitVec(c)} }

// Within reports whether DistanceKm(q.Coord, p.Coord) < km, exactly.
func (p Point) Within(q Point, km float64) bool {
	return (&Index{pts: []Coord{p.Coord}, vecs: []vec3{p.v}}).Within(q, km)
}

// NewIndex builds an index over a copy of pts; later changes to pts do
// not affect it.
func NewIndex(pts []Coord) *Index {
	ix := &Index{pts: append([]Coord(nil), pts...), vecs: make([]vec3, len(pts))}
	for i, p := range pts {
		ix.vecs[i] = unitVec(p)
	}
	return ix
}

// Nearest returns the position of the indexed point closest to c and
// its great-circle distance in km. Ties go to the first point. An empty
// index returns (-1, +Inf): no point is within any distance.
func (ix *Index) Nearest(c Coord) (int, float64) {
	i := ix.Closest(NewPoint(c))
	if i < 0 {
		return -1, math.Inf(1)
	}
	return i, DistanceKm(c, ix.pts[i])
}

// Closest returns Nearest's position without pricing the winner: -1 for
// an empty index.
func (ix *Index) Closest(q Point) int {
	switch len(ix.pts) {
	case 0:
		return -1
	case 1:
		return 0
	}
	best, d1, d2 := 0, ix.vecs[0].dot(q.v), math.Inf(-1)
	for i := 1; i < len(ix.vecs); i++ {
		if d := ix.vecs[i].dot(q.v); d > d1 {
			best, d1, d2 = i, d, d1
		} else if d > d2 {
			d2 = d
		}
	}
	if d2 < d1-tieSlack {
		return best
	}
	// A near-tie for first place: price every point in the window and
	// keep the first strict minimum, as the direct scan does.
	best = -1
	var bestKm float64
	for i, v := range ix.vecs {
		if v.dot(q.v) < d1-tieSlack {
			continue
		}
		if km := DistanceKm(q.Coord, ix.pts[i]); best < 0 || km < bestKm {
			best, bestKm = i, km
		}
	}
	return best
}

// Within reports whether some indexed point lies strictly within km of
// q, exactly as a haversine scan decides DistanceKm < km: the dot
// product against cos(km/R) decides outside the tie window.
func (ix *Index) Within(q Point, km float64) bool {
	if !(km > 0) {
		return false
	}
	t := -1.0 // at or past the antipode, only the haversine can say no
	if km < math.Pi*EarthRadiusKm {
		t = math.Cos(km / EarthRadiusKm)
	}
	for i, v := range ix.vecs {
		if d := v.dot(q.v); d > t+tieSlack || d >= t-tieSlack && DistanceKm(q.Coord, ix.pts[i]) < km {
			return true
		}
	}
	return false
}

// Rank returns a key that orders point sets by their nearest distance
// to q: the largest dot product of q with an indexed point (-Inf when
// empty). Larger is nearer. CompareRank tells when two keys decide.
func (ix *Index) Rank(q Point) float64 {
	r := math.Inf(-1)
	for _, v := range ix.vecs {
		r = max(r, v.dot(q.v))
	}
	return r
}

// CompareRank compares two Rank keys for one query: -1 when a's set is
// strictly nearer than b's, +1 when farther, 0 when the keys lie within
// the tie window and only the sets' Nearest km can tell.
func CompareRank(a, b float64) int {
	if math.Abs(a-b) <= tieSlack {
		return 0
	}
	return cmp.Compare(b, a)
}
