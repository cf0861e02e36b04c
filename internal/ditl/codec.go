package ditl

import (
	"fmt"
	"math"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/artifact"
	"anycastctx/internal/bgp"
	"anycastctx/internal/dnssim"
	"anycastctx/internal/ipaddr"
	"anycastctx/internal/latency"
	"anycastctx/internal/users"
)

// EncodeArtifact serializes the campaign's owned data — the assignment
// columns, dedup tables, egress store, and junk sources — into a
// deterministic payload. Pointed-to inputs (letters, population, zone,
// rates, model, config) are NOT encoded: they are separate stages keyed
// upstream, and DecodeCampaignArtifact reattaches them. Letter names are
// included so decode can verify it is pairing the payload with the same
// letter set. Floats are raw IEEE-754 bits, so NaN cells (unmeasurable
// TCP medians) round-trip exactly and decode→encode is byte-identical.
func (c *Campaign) EncodeArtifact() []byte {
	cols := len(c.routeIdx)
	w := artifact.NewWriter(64 + cols*28 + len(c.routes)*40 + len(c.egressFlat)*4)
	w.U64(uint64(c.numRecs))
	w.U64(uint64(len(c.LetterNames)))
	for _, name := range c.LetterNames {
		w.Str(name)
	}
	w.U32s(c.routeIdx)
	w.U32s(c.altSite)
	w.F64s(c.altFrac)
	w.F64s(c.tcpMedian)
	w.F64s(c.letterWeight)
	w.U64(uint64(len(c.routes)))
	for i := range c.routes {
		bgp.AppendRoute(w, c.routes[i])
	}
	w.F64s(c.routeRTT)
	w.U64(uint64(len(c.egressFlat)))
	for _, a := range c.egressFlat {
		w.U32(uint32(a))
	}
	w.U32s(c.egressOff)
	w.U64(uint64(len(c.JunkSources)))
	for _, a := range c.JunkSources {
		w.U32(uint32(a))
	}
	w.F64(c.JunkQueriesPerDay)
	return w.Bytes()
}

// DecodeCampaignArtifact rebuilds a campaign from an EncodeArtifact
// payload plus the live upstream inputs it references. It validates the
// payload's shape against those inputs (recursive count, letter names,
// column lengths) and the store's integrity (IntegrityViolations), so
// loading a stale, mismatched or corrupt artifact fails loudly instead
// of producing a silently wrong campaign. The caller sets
// Faults afterwards (it never changes campaign bytes). Unlike Build,
// decoding allocates nothing from pop.Pool: junk /24 blocks are already
// baked into JunkSources, and nothing downstream reads pool state.
func DecodeCampaignArtifact(blob []byte, letters []*anycastnet.Deployment, pop *users.Population,
	zone *dnssim.Zone, rates []dnssim.Rates, model *latency.Model, cfg Config) (*Campaign, error) {
	r := artifact.NewReader(blob)
	c := &Campaign{
		Letters: letters,
		Pop:     pop,
		Zone:    zone,
		Rates:   rates,
		Model:   model,
		Cfg:     cfg.withDefaults(),
	}
	// Every recursive has at least one egress offset and every letter a
	// length-prefixed name, so neither count can exceed the bytes left.
	c.numRecs = r.Count(4)
	nLetters := r.Count(4)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if c.numRecs != len(pop.Recursives) {
		return nil, fmt.Errorf("ditl: decode: artifact has %d recursives, population has %d", c.numRecs, len(pop.Recursives))
	}
	if nLetters != len(letters) {
		return nil, fmt.Errorf("ditl: decode: artifact has %d letters, world has %d", nLetters, len(letters))
	}
	for i := 0; i < nLetters; i++ {
		name := r.Str()
		if r.Err() == nil && name != letters[i].Name {
			return nil, fmt.Errorf("ditl: decode: artifact letter %d is %q, world has %q", i, name, letters[i].Name)
		}
		c.LetterNames = append(c.LetterNames, name)
	}
	c.routeIdx = r.U32s()
	c.altSite = r.U32s()
	c.altFrac = r.F64s()
	c.tcpMedian = r.F64s()
	c.letterWeight = r.F64s()
	nRoutes := r.Count(bgp.MinRouteSize)
	if err := r.Err(); err != nil {
		return nil, err
	}
	c.routes = make([]bgp.Route, nRoutes)
	for i := range c.routes {
		c.routes[i] = bgp.ReadRoute(r)
	}
	c.routeRTT = r.F64s()
	nEgress := r.Count(4)
	if err := r.Err(); err != nil {
		return nil, err
	}
	c.egressFlat = make([]ipaddr.Addr, nEgress)
	for i := range c.egressFlat {
		c.egressFlat[i] = ipaddr.Addr(r.U32())
	}
	c.egressOff = r.U32s()
	nJunk := r.Count(4)
	if err := r.Err(); err != nil {
		return nil, err
	}
	c.JunkSources = make([]ipaddr.Addr, nJunk)
	for i := range c.JunkSources {
		c.JunkSources[i] = ipaddr.Addr(r.U32())
	}
	c.JunkQueriesPerDay = r.F64()
	if err := r.Done(); err != nil {
		return nil, err
	}
	cols := nLetters * c.numRecs
	if len(c.routeIdx) != cols || len(c.altSite) != cols || len(c.altFrac) != cols ||
		len(c.tcpMedian) != cols || len(c.letterWeight) != cols {
		return nil, fmt.Errorf("ditl: decode: column length mismatch (want %d cells)", cols)
	}
	if len(c.routeRTT) != nRoutes {
		return nil, fmt.Errorf("ditl: decode: %d route RTTs for %d routes", len(c.routeRTT), nRoutes)
	}
	if len(c.egressOff) != c.numRecs+1 {
		return nil, fmt.Errorf("ditl: decode: egress offsets length %d, want %d", len(c.egressOff), c.numRecs+1)
	}
	if c.numRecs > 0 && int(c.egressOff[c.numRecs]) != nEgress {
		return nil, fmt.Errorf("ditl: decode: egress store length %d, offsets end at %d", nEgress, c.egressOff[c.numRecs])
	}
	if vs := c.IntegrityViolations(); len(vs) > 0 {
		return nil, fmt.Errorf("ditl: decode: %s", vs[0])
	}
	obsCampaigns.Inc()
	obsAssignments.Add(uint64(cols))
	obsJunk24s.Add(uint64(len(c.JunkSources)))
	return c, nil
}

// EncodeJoin serializes a DITL∩CDN join deterministically.
func EncodeJoin(j *Join) []byte {
	w := artifact.NewWriter(16 + len(j.Rows)*24)
	w.Bool(j.ByIP)
	w.U64(uint64(len(j.Rows)))
	for i := range j.Rows {
		row := &j.Rows[i]
		w.I64(int64(row.RecIdx))
		w.U32(uint32(row.Key))
		w.F64(row.QueriesPerDay)
		w.F64(row.Users)
	}
	return w.Bytes()
}

// DecodeJoin rebuilds a join from an EncodeJoin payload. Rows must come
// in strictly increasing recursive order, as JoinCDNCtx emits them, with
// finite non-negative volumes and user counts.
func DecodeJoin(blob []byte) (*Join, error) {
	r := artifact.NewReader(blob)
	j := &Join{ByIP: r.Bool()}
	n := r.Count(28)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > 0 {
		j.Rows = make([]JoinedRow, n)
	}
	for i := range j.Rows {
		j.Rows[i] = JoinedRow{
			RecIdx:        int(r.I64()),
			Key:           ipaddr.Slash24Key(r.U32()),
			QueriesPerDay: r.F64(),
			Users:         r.F64(),
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	prev := -1
	for i, row := range j.Rows {
		if row.RecIdx <= prev {
			return nil, fmt.Errorf("ditl: decode join: row %d recursive %d not after %d", i, row.RecIdx, prev)
		}
		prev = row.RecIdx
		if !finiteNonNeg(row.QueriesPerDay) || !finiteNonNeg(row.Users) {
			return nil, fmt.Errorf("ditl: decode join: row %d has volume %v, users %v", i, row.QueriesPerDay, row.Users)
		}
	}
	obsJoins.Inc()
	obsJoinRows.Add(uint64(len(j.Rows)))
	for _, row := range j.Rows {
		obsJoinRowUsers.Observe(row.Users)
	}
	return j, nil
}

// finiteNonNeg reports whether v is a finite number >= 0.
func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
