package geo

import "math"

// tieSlack is the dot-product window within which Index.Nearest lets the
// haversine decide. Computed unit-vector dot products and haversine
// terms h both carry absolute errors of a few 1e-15, and cos θ = 1-2h,
// so any point outside the window of the best dot is farther than the
// winner by a margin far above rounding: ordering by dot product there
// is exactly the haversine order. Points inside the window — duplicates,
// exact ties, sub-millimetre near-ties — are priced with DistanceKm and
// compared the way a direct scan compares them.
const tieSlack = 1e-12

// Index answers nearest-point queries over a fixed set of points. It
// returns exactly what a direct first-wins haversine scan returns — the
// same index and the same km, bit for bit — but orders points by the dot
// product of precomputed unit vectors and prices only the winner, so a
// query costs one unit vector, n multiply-adds and (almost always) one
// haversine. An Index is immutable and safe for concurrent use.
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
	switch len(ix.pts) {
	case 0:
		return -1, math.Inf(1)
	case 1:
		return 0, DistanceKm(c, ix.pts[0])
	}
	q := unitVec(c)
	best, d1, d2 := 0, ix.vecs[0].dot(q), math.Inf(-1)
	for i := 1; i < len(ix.vecs); i++ {
		if d := ix.vecs[i].dot(q); d > d1 {
			best, d1, d2 = i, d, d1
		} else if d > d2 {
			d2 = d
		}
	}
	if d2 < d1-tieSlack {
		return best, DistanceKm(c, ix.pts[best])
	}
	// A near-tie for first place: price every point in the window and
	// keep the first strict minimum, as the direct scan does.
	best = -1
	var bestKm float64
	for i, v := range ix.vecs {
		if v.dot(q) < d1-tieSlack {
			continue
		}
		if km := DistanceKm(c, ix.pts[i]); best < 0 || km < bestKm {
			best, bestKm = i, km
		}
	}
	return best, bestKm
}
