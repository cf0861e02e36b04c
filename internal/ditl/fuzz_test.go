package ditl

import (
	"bytes"
	"context"
	"testing"

	"anycastctx/internal/latency"
)

// fuzzFixture is a world of a few dozen recursives: its payloads are
// small enough for the fuzzer to mutate and minimize quickly.
func fuzzFixture(f *testing.F) *fixture {
	return buildFixtureWith(f, fixtureShape{eyeballs: 8, users: 2e6})
}

// FuzzDecodeCampaignArtifact: any payload either fails to decode or
// yields a campaign whose every cell and egress list materializes, whose
// sites are the letter's own, and which re-encodes to the same bytes —
// never a panic or an allocation the payload cannot back.
func FuzzDecodeCampaignArtifact(f *testing.F) {
	fx := fuzzFixture(f)
	blob := fx.camp.EncodeArtifact()
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCampaignArtifact(data, fx.letters, fx.pop, nil, fx.rates, latency.DefaultModel(), Config{})
		if err != nil {
			return
		}
		if vs := c.IntegrityViolations(); len(vs) > 0 {
			t.Fatalf("decoded campaign fails its integrity check: %s", vs[0])
		}
		for li, l := range c.Letters {
			for ri := 0; ri < c.NumRecursives(); ri++ {
				a := c.At(li, ri)
				for _, s := range a.Sites() {
					if s.SiteID < 0 || s.SiteID >= len(l.Sites) {
						t.Fatalf("cell (%d, %d) names site %d of %d", li, ri, s.SiteID, len(l.Sites))
					}
				}
			}
		}
		for ri := 0; ri < c.NumRecursives(); ri++ {
			c.Egress(ri)
		}
		if !bytes.Equal(c.EncodeArtifact(), data) {
			t.Fatal("decode→encode changed the payload")
		}
	})
}

// FuzzDecodeJoin: any payload either fails to decode or yields rows in
// strictly increasing recursive order with finite non-negative volumes,
// re-encoding to the same bytes.
func FuzzDecodeJoin(f *testing.F) {
	fx := fuzzFixture(f)
	for _, byIP := range []bool{false, true} {
		blob := EncodeJoin(fx.camp.JoinCDNCtx(context.Background(), fx.cdn, byIP))
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := DecodeJoin(data)
		if err != nil {
			return
		}
		prev := -1
		for i, row := range j.Rows {
			if row.RecIdx <= prev || !finiteNonNeg(row.QueriesPerDay) || !finiteNonNeg(row.Users) {
				t.Fatalf("row %d accepted: %+v after recursive %d", i, row, prev)
			}
			prev = row.RecIdx
		}
		if !bytes.Equal(EncodeJoin(j), data) {
			t.Fatal("decode→encode changed the payload")
		}
	})
}
