package topology

import (
	"testing"

	"anycastctx/internal/geo"
)

// TestCloneIsolation: mutating a clone (new ASes, explicit peering,
// presence growth) must leave the base graph untouched, and vice versa
// — the property the scenario engine's overlay worlds rest on.
func TestCloneIsolation(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	baseN := g.Len()
	c := g.Clone()

	// Add a host AS and a peering edge on the clone only.
	loc := geo.Coord{Lat: 48.86, Lon: 2.35}
	h := c.AddHostAS("clone-host", loc, []ASN{c.Transits()[0]}, 0.4)
	e := c.Eyeballs()[0]
	c.Peer(e, h.ASN)

	if g.AS(h.ASN) != nil {
		t.Errorf("clone's host AS%d visible in base", h.ASN)
	}
	if g.Len() != baseN {
		t.Errorf("base AS count changed: %d -> %d", baseN, g.Len())
	}
	if g.Peered(e, h.ASN) {
		t.Errorf("clone's peering edge visible in base")
	}
	if c.AS(h.ASN) == nil || !c.Peered(e, h.ASN) {
		t.Errorf("clone lost its own mutation")
	}

	// Mutate the base; the clone must not see it either.
	h2 := g.AddHostAS("base-host", loc, []ASN{g.Transits()[0]}, 0.4)
	if c.AS(h2.ASN) != nil && c.AS(h2.ASN).Name == "base-host" {
		t.Errorf("base's host AS visible in clone")
	}

	// Presence slices must not share backing arrays: growing an AS's
	// presence on the clone (what add_site does to a letter's host) must
	// not clobber the base AS.
	any := g.Eyeballs()[1]
	basePresence := len(g.AS(any).Presence)
	c.AS(any).Presence = append(c.AS(any).Presence, loc)
	if got := len(g.AS(any).Presence); got != basePresence {
		t.Errorf("base presence grew with clone: %d -> %d", basePresence, got)
	}
}

// TestCloneDeterministicASNs: the clone carries generation state, so the
// same mutation applied to base and clone mints the same ASN.
func TestCloneDeterministicASNs(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	loc := geo.Coord{Lat: 1, Lon: 1}
	hb := g.AddHostAS("h", loc, []ASN{g.Transits()[0]}, 0.1)
	hc := c.AddHostAS("h", loc, []ASN{c.Transits()[0]}, 0.1)
	if hb.ASN != hc.ASN {
		t.Errorf("same mutation minted ASN %d on base, %d on clone", hb.ASN, hc.ASN)
	}
	if hb.Region != hc.Region {
		t.Errorf("region inference diverged: %d vs %d", hb.Region, hc.Region)
	}
}

// TestIndexDense: Index is each AS's place in All, -1 off the graph, and
// a clone keeps every position and numbers its additions next.
func TestIndexDense(t *testing.T) {
	g, err := New(smallConfig(), testRegions(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range g.All() {
		if got := g.Index(asn); got != i {
			t.Fatalf("Index(AS%d) = %d, want %d", asn, got, i)
		}
	}
	c := g.Clone()
	h := c.AddHostAS("clone-host", geo.Coord{Lat: 1, Lon: 2}, []ASN{c.Transits()[0]}, 0.4)
	if got := c.Index(h.ASN); got != g.Len() {
		t.Errorf("clone's new AS at %d, want %d", got, g.Len())
	}
	if got := g.Index(h.ASN); got != -1 {
		t.Errorf("base indexes the clone's AS at %d", got)
	}
	if g.Index(0) != -1 || g.Index(ASN(1<<30)) != -1 {
		t.Error("an ASN off the graph has a position")
	}
}
