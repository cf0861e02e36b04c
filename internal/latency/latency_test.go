package latency

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"anycastctx/internal/bgp"
	"anycastctx/internal/geo"
	"anycastctx/internal/rng"
	"anycastctx/internal/topology"
)

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	cases := []Model{
		{CircuityMin: 0.5, CircuityMax: 1.2},
		{CircuityMin: 1.2, CircuityMax: 1.0},
		{CircuityMin: 1, CircuityMax: 1, AccessMinMs: -1},
		{CircuityMin: 1, CircuityMax: 1, AccessMaxMs: -1, AccessMinMs: 0},
		{CircuityMin: 1, CircuityMax: 1, HopPenaltyMs: -1},
		{CircuityMin: 1, CircuityMax: 1, NoiseFrac: 2},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted: %+v", i, m)
		}
	}
}

func TestBaseRTTMonotoneInDistance(t *testing.T) {
	m := DefaultModel()
	near := bgp.Route{SiteID: 1, PathLen: 3, Waypoints: []geo.Coord{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 1}}}
	far := bgp.Route{SiteID: 1, PathLen: 3, Waypoints: []geo.Coord{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 60}}}
	src := topology.ASN(500)
	if m.BaseRTTMs(src, near) >= m.BaseRTTMs(src, far) {
		t.Error("longer route should have higher RTT")
	}
}

func TestBaseRTTAboveLowerBound(t *testing.T) {
	m := DefaultModel()
	for i := 0; i < 200; i++ {
		src := topology.ASN(i)
		rt := bgp.Route{
			SiteID:    i % 7,
			PathLen:   2 + i%4,
			Waypoints: []geo.Coord{{Lat: 0, Lon: 0}, {Lat: float64(i%80 - 40), Lon: float64(i % 170)}},
		}
		base := m.BaseRTTMs(src, rt)
		lb := geo.RTTLowerBoundMs(rt.Dist())
		if base < lb {
			t.Fatalf("RTT %v below propagation lower bound %v", base, lb)
		}
	}
}

func TestBaseRTTDeterministic(t *testing.T) {
	m := DefaultModel()
	rt := bgp.Route{SiteID: 3, PathLen: 4, Waypoints: []geo.Coord{{Lat: 10, Lon: 10}, {Lat: 20, Lon: 20}}}
	a := m.BaseRTTMs(42, rt)
	b := m.BaseRTTMs(42, rt)
	if a != b {
		t.Error("BaseRTT not deterministic")
	}
	// Different sources should (almost always) differ through access delay
	// and circuity.
	diff := 0
	for i := 0; i < 50; i++ {
		if m.BaseRTTMs(topology.ASN(i), rt) != a {
			diff++
		}
	}
	if diff < 40 {
		t.Errorf("only %d/50 sources had distinct RTTs", diff)
	}
}

func TestCircuityWithinBounds(t *testing.T) {
	m := DefaultModel()
	for i := 0; i < 500; i++ {
		c := m.Circuity(topology.ASN(i), i%50)
		if c < m.CircuityMin || c > m.CircuityMax {
			t.Fatalf("circuity %v out of [%v, %v]", c, m.CircuityMin, m.CircuityMax)
		}
	}
}

func TestAccessDelayWithinBounds(t *testing.T) {
	m := DefaultModel()
	for i := 0; i < 500; i++ {
		d := m.AccessDelayMs(topology.ASN(i))
		if d < m.AccessMinMs || d > m.AccessMaxMs {
			t.Fatalf("access delay %v out of bounds", d)
		}
	}
}

func TestRTTBetween(t *testing.T) {
	m := DefaultModel()
	a := geo.Coord{Lat: 0, Lon: 0}
	b := geo.Coord{Lat: 0, Lon: 10}
	got := m.RTTBetweenMs(a, b, 2)
	want := geo.RTTLowerBoundMs(geo.DistanceKm(a, b)) + 2*m.HopPenaltyMs
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("RTTBetween = %v, want %v", got, want)
	}
	if m.RTTBetweenMs(a, a, 0) != 0 {
		t.Error("zero-distance zero-hop RTT should be 0")
	}
}

func TestSamplePositiveAndCentered(t *testing.T) {
	m := DefaultModel()
	rng := rand.New(rand.NewSource(5))
	base := 50.0
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		s := m.Sample(rng, base)
		if s <= 0 {
			t.Fatalf("non-positive sample %v", s)
		}
		sum += s
	}
	mean := sum / n
	if mean < base*0.95 || mean > base*1.15 {
		t.Errorf("sample mean %v too far from base %v", mean, base)
	}
}

func TestMedianOfSamplesConverges(t *testing.T) {
	m := DefaultModel()
	rng := rand.New(rand.NewSource(6))
	base := 80.0
	med := m.MedianOfSamples(rng, base, 99)
	if math.Abs(med-base) > base*0.1 {
		t.Errorf("median of 99 samples %v too far from base %v", med, base)
	}
	if got := m.MedianOfSamples(rng, base, 0); got != base {
		t.Errorf("n=0 should return base, got %v", got)
	}
	// Even n path.
	if got := m.MedianOfSamples(rng, base, 10); got <= 0 {
		t.Errorf("even-n median = %v", got)
	}
}

// TestMedianOfSamplesMatchesSortedDraws: at every n, on either side of
// the stack buffer's bound, the median is the middle of the same draws
// fully sorted.
func TestMedianOfSamplesMatchesSortedDraws(t *testing.T) {
	m := DefaultModel()
	for n := 1; n <= 2*medianStack; n++ {
		st := rng.Split(9, rng.PhaseDITLTCP, uint64(n))
		ref := st
		draws := make([]float64, n)
		for i := range draws {
			draws[i] = m.Sample(&ref, 40)
		}
		sort.Float64s(draws)
		want := draws[n/2]
		if n%2 == 0 {
			want = (draws[n/2-1] + draws[n/2]) / 2
		}
		if got := m.MedianOfSamples(&st, 40, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: median %v, sorted draws give %v", n, got, want)
		}
	}
}

// TestMedianOfSamplesAllocations: the per-⟨recursive, letter⟩ TCP median
// (n = 11) sorts on the stack.
func TestMedianOfSamplesAllocations(t *testing.T) {
	m := DefaultModel()
	st := rng.Split(9, rng.PhaseDITLTCP, 0)
	allocs := testing.AllocsPerRun(100, func() {
		m.MedianOfSamples(&st, 40, 11)
	})
	if allocs != 0 {
		t.Errorf("MedianOfSamples(n=11) allocates %v times per call, want 0", allocs)
	}
}

func TestPageLoadMs(t *testing.T) {
	if got := PageLoadMs(30, 10); got != 300 {
		t.Errorf("PageLoadMs = %v", got)
	}
	if got := PageLoadMs(30, 0); got != 0 {
		t.Errorf("PageLoadMs zero rtts = %v", got)
	}
}
