package dnssim

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"anycastctx/internal/geo"
	"anycastctx/internal/topology"
	"anycastctx/internal/users"
)

// fuzzPop is a population of a few dozen recursives: its rate payload is
// small enough for the fuzzer to mutate quickly.
func fuzzPop(f *testing.F) *users.Population {
	regions := geo.GenerateRegions(geo.PaperRegionCounts, rand.New(rand.NewSource(42)))
	g, err := topology.New(topology.Config{Seed: 11, NumTier1: 3, NumTransit: 6, NumEyeball: 12}, regions)
	if err != nil {
		f.Fatal(err)
	}
	p, err := users.Build(g, users.Config{TotalUsers: 1e7}, 5)
	if err != nil {
		f.Fatal(err)
	}
	return p
}

// FuzzDecodeRates: any payload either fails to decode or yields one
// entry per recursive of the population, each attached to its recursive
// and carrying finite non-negative rates, re-encoding to the same bytes
// — never a panic or an allocation the payload cannot back.
func FuzzDecodeRates(f *testing.F) {
	pop := fuzzPop(f)
	rates := ComputeRates(pop, testZone(f), RateConfig{}, 9)
	blob := EncodeRates(rates)
	if _, err := DecodeRates(blob, pop); err != nil {
		f.Fatalf("real rates rejected: %v", err)
	}
	bad := append([]Rates(nil), rates...)
	bad[0].TCPShare = math.Inf(1)
	if _, err := DecodeRates(EncodeRates(bad), pop); err == nil {
		f.Fatal("infinite TCP share accepted")
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(EncodeRates(bad))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecodeRates(data, pop)
		if err != nil {
			return
		}
		if len(out) != len(pop.Recursives) {
			t.Fatalf("%d entries for %d recursives", len(out), len(pop.Recursives))
		}
		for i, r := range out {
			if r.Rec != &pop.Recursives[i] {
				t.Fatalf("entry %d attached to the wrong recursive", i)
			}
			for _, v := range []float64{r.UserQueriesPerDay, r.RootValidPerDay, r.RootInvalidPerDay,
				r.RootPTRPerDay, r.IdealPerDay, r.TCPShare} {
				if !(v >= 0 && !math.IsInf(v, 1)) {
					t.Fatalf("entry %d accepted with rate %v", i, v)
				}
			}
		}
		if !bytes.Equal(EncodeRates(out), data) {
			t.Fatal("decode→encode changed the payload")
		}
	})
}
