package dnssim

import (
	"fmt"
	"math"

	"anycastctx/internal/artifact"
	"anycastctx/internal/users"
)

// EncodeRates serializes a rate table deterministically. The Rec pointer
// is positional (rates[i] always describes pop.Recursives[i]), so only
// the scalar profile is stored and DecodeRates reattaches the pointers.
func EncodeRates(rates []Rates) []byte {
	w := artifact.NewWriter(8 + len(rates)*50)
	w.U64(uint64(len(rates)))
	for i := range rates {
		r := &rates[i]
		w.F64(r.UserQueriesPerDay)
		w.F64(r.RootValidPerDay)
		w.F64(r.RootInvalidPerDay)
		w.F64(r.RootPTRPerDay)
		w.F64(r.IdealPerDay)
		w.F64(r.TCPShare)
		w.Bool(r.Anomalous)
		w.Bool(r.Forwarder)
	}
	return w.Bytes()
}

// DecodeRates rebuilds a rate table from an EncodeRates payload,
// reattaching each entry to its recursive in pop by index. Every rate
// must be a finite number >= 0.
func DecodeRates(blob []byte, pop *users.Population) ([]Rates, error) {
	r := artifact.NewReader(blob)
	n := r.Count(6*8 + 2)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n != len(pop.Recursives) {
		return nil, fmt.Errorf("dnssim: decode rates: artifact has %d entries, population has %d", n, len(pop.Recursives))
	}
	out := make([]Rates, n)
	for i := range out {
		out[i] = Rates{
			Rec:               &pop.Recursives[i],
			UserQueriesPerDay: r.F64(),
			RootValidPerDay:   r.F64(),
			RootInvalidPerDay: r.F64(),
			RootPTRPerDay:     r.F64(),
			IdealPerDay:       r.F64(),
			TCPShare:          r.F64(),
			Anomalous:         r.Bool(),
			Forwarder:         r.Bool(),
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	for i := range out {
		q := &out[i]
		for _, v := range [...]float64{q.UserQueriesPerDay, q.RootValidPerDay, q.RootInvalidPerDay,
			q.RootPTRPerDay, q.IdealPerDay, q.TCPShare} {
			if !(v >= 0 && !math.IsInf(v, 1)) {
				return nil, fmt.Errorf("dnssim: decode rates: entry %d has rate %v", i, v)
			}
		}
	}
	return out, nil
}
