package ditl

import (
	"bytes"
	"context"
	"math"
	"testing"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/obs"
	"anycastctx/internal/topology"
)

// freshLetters rebuilds every deployment of f with an empty route cache,
// same sites, same graph — the from-scratch shape Rebase must reproduce.
func freshLetters(t *testing.T, f *fixture) []*anycastnet.Deployment {
	t.Helper()
	out := make([]*anycastnet.Deployment, len(f.letters))
	for i, l := range f.letters {
		d, err := anycastnet.NewDeployment(f.g, l.Name, l.Sites)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	return out
}

func sameAssignment(a, b Assignment) bool {
	if a.Reachable != b.Reachable {
		return false
	}
	if !a.Reachable {
		return true
	}
	if a.Route.SiteID != b.Route.SiteID || a.Route.PathLen != b.Route.PathLen ||
		a.Route.Direct != b.Route.Direct || a.Route.Via != b.Route.Via {
		return false
	}
	if math.Float64bits(a.BaseRTTMs) != math.Float64bits(b.BaseRTTMs) ||
		math.Float64bits(a.TCPMedianRTTMs) != math.Float64bits(b.TCPMedianRTTMs) ||
		math.Float64bits(a.LetterWeight) != math.Float64bits(b.LetterWeight) {
		return false
	}
	as, bs := a.Sites(), b.Sites()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func requireSameCampaign(t *testing.T, want, got *Campaign) {
	t.Helper()
	n := want.NumRecursives()
	for li := range want.Letters {
		for ri := 0; ri < n; ri++ {
			if a, b := want.At(li, ri), got.At(li, ri); !sameAssignment(a, b) {
				t.Fatalf("cell (letter %d, rec %d) differs:\nwant %+v\ngot  %+v", li, ri, a, b)
			}
		}
	}
	for ri := 0; ri < n; ri++ {
		we, ge := want.Egress(ri), got.Egress(ri)
		if len(we) != len(ge) {
			t.Fatalf("rec %d egress count %d != %d", ri, len(ge), len(we))
		}
		for i := range we {
			if we[i] != ge[i] {
				t.Fatalf("rec %d egress %d differs", ri, i)
			}
		}
	}
	if len(want.JunkSources) != len(got.JunkSources) || want.JunkQueriesPerDay != got.JunkQueriesPerDay {
		t.Fatalf("junk sources differ")
	}
}

// TestRebaseAllAffectedEqualsBuild: rebasing onto identically-shaped
// fresh deployments with every recursive marked affected must reproduce
// the original build cell-for-cell — the Rebase half of the scenario
// engine's byte-identity contract, without any scenario on top.
func TestRebaseAllAffectedEqualsBuild(t *testing.T) {
	f := buildFixture(t)
	affected := make([]bool, len(f.pop.Recursives))
	for i := range affected {
		affected[i] = true
	}
	reb, err := f.camp.Rebase(context.Background(), freshLetters(t, f), nil, nil, affected, 5)
	if err != nil {
		t.Fatalf("rebase: %v", err)
	}
	requireSameCampaign(t, f.camp, reb)
}

// TestRebaseNoneAffectedCopies: with nothing affected and unchanged
// deployments, the pure copy/remap path must also reproduce the build.
func TestRebaseNoneAffectedCopies(t *testing.T) {
	f := buildFixture(t)
	affected := make([]bool, len(f.pop.Recursives))
	reb, err := f.camp.Rebase(context.Background(), f.letters, nil, nil, affected, 5)
	if err != nil {
		t.Fatalf("rebase: %v", err)
	}
	requireSameCampaign(t, f.camp, reb)
	if &reb.routes[0] == &f.camp.routes[0] {
		t.Fatalf("rebase aliased the base route table")
	}
}

// routeCalls counts Resolver.Route calls (memo hits plus misses) made
// while fn runs.
func routeCalls(fn func()) uint64 {
	before := obs.Default.Snapshot()
	fn()
	d := obs.Default.Snapshot().CounterDeltas(before)
	return d["bgp.route_cache_hits"] + d["bgp.route_cache_misses"]
}

// TestRebaseUnchangedLettersCopyTables: when every letter keeps base's
// resolver, Rebase copies each letter's route table without a single
// Route call, and the result encodes byte for byte like the base build —
// whether nothing or everything is reassembled.
func TestRebaseUnchangedLettersCopyTables(t *testing.T) {
	f := buildFixture(t)
	want := f.camp.EncodeArtifact()
	for _, all := range []bool{false, true} {
		affected := make([]bool, len(f.pop.Recursives))
		for i := range affected {
			affected[i] = all
		}
		var reb *Campaign
		var err error
		calls := routeCalls(func() {
			reb, err = f.camp.Rebase(context.Background(), f.letters, nil, nil, affected, 5)
		})
		if err != nil {
			t.Fatalf("all affected=%v: rebase: %v", all, err)
		}
		if calls != 0 {
			t.Errorf("all affected=%v: rebase made %d Route calls, want 0", all, calls)
		}
		if !bytes.Equal(reb.EncodeArtifact(), want) {
			t.Errorf("all affected=%v: rebased campaign encodes differently from the build", all)
		}
	}
}

// TestRebaseSwapMatchesBuild: swapping letters B and K (each position
// takes the other's deployment under its own name, as the swap_letters
// scenario does) copies both tables from base without routing, and
// encodes byte for byte like a campaign built from scratch on the
// swapped letters.
func TestRebaseSwapMatchesBuild(t *testing.T) {
	f := buildFixture(t)
	full := buildFixtureWith(t, fixtureShape{arrange: func(g *topology.Graph, ls []*anycastnet.Deployment) []*anycastnet.Deployment {
		b, err := anycastnet.NewDeployment(g, ls[0].Name, ls[2].Sites)
		if err != nil {
			t.Fatal(err)
		}
		k, err := anycastnet.NewDeployment(g, ls[2].Name, ls[0].Sites)
		if err != nil {
			t.Fatal(err)
		}
		return []*anycastnet.Deployment{b, ls[1], k}
	}})
	letters := []*anycastnet.Deployment{
		anycastnet.Renamed(f.letters[2], f.letters[0].Name),
		f.letters[1],
		anycastnet.Renamed(f.letters[0], f.letters[2].Name),
	}
	affected := make([]bool, len(f.pop.Recursives))
	for i := range affected {
		affected[i] = true
	}
	var reb *Campaign
	var err error
	calls := routeCalls(func() {
		reb, err = f.camp.Rebase(context.Background(), letters, nil, nil, affected, 5)
	})
	if err != nil {
		t.Fatalf("rebase: %v", err)
	}
	if calls != 0 {
		t.Errorf("swap rebase made %d Route calls, want 0", calls)
	}
	if !bytes.Equal(reb.EncodeArtifact(), full.camp.EncodeArtifact()) {
		t.Fatal("swapped rebase encodes differently from a full build on the swapped letters")
	}
}

// TestRebaseContractViolation: shrinking a deployment while claiming no
// recursive is affected must error, not silently carry stale cells.
func TestRebaseContractViolation(t *testing.T) {
	f := buildFixture(t)
	letters := append([]*anycastnet.Deployment(nil), f.letters...)
	li := 0 // letter B: two sites, withdraw site 1
	n := f.camp.numRecs
	hasAlt := false
	for ri := 0; ri < n; ri++ {
		if f.camp.altSite[li*n+ri] == 1 {
			hasAlt = true
			break
		}
	}
	if !hasAlt {
		t.Skip("no recursive drew site 1 as its alternate; violation undetectable by design")
	}
	short, err := anycastnet.NewDeployment(f.g, "B", f.letters[li].Sites[:1])
	if err != nil {
		t.Fatal(err)
	}
	letters[li] = short
	remap := make([][]int, len(letters))
	remap[li] = []int{0, -1}
	affected := make([]bool, len(f.pop.Recursives))
	if _, err := f.camp.Rebase(context.Background(), letters, remap, nil, affected, 5); err == nil {
		t.Fatalf("rebase accepted a withdrawn site with no affected recursives")
	}
}

// TestRebaseValidation: malformed argument shapes error out.
func TestRebaseValidation(t *testing.T) {
	f := buildFixture(t)
	n := len(f.pop.Recursives)
	all := make([]bool, n)
	ctx := context.Background()
	if _, err := f.camp.Rebase(ctx, f.letters[:1], nil, nil, all, 5); err == nil {
		t.Error("short letter slice accepted")
	}
	if _, err := f.camp.Rebase(ctx, f.letters, make([][]int, 1), nil, all, 5); err == nil {
		t.Error("short remap slice accepted")
	}
	if _, err := f.camp.Rebase(ctx, f.letters, nil, f.rates[:1], all, 5); err == nil {
		t.Error("short rates slice accepted")
	}
	if _, err := f.camp.Rebase(ctx, f.letters, nil, nil, all[:1], 5); err == nil {
		t.Error("short affected slice accepted")
	}
}
