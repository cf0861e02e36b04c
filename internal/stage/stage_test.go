package stage

import (
	"slices"
	"testing"
)

// TestIndexValidatesDAG: the declared graph is a valid DAG, and each
// malformed shape — a dep declared later, an unknown dep, a load-dep that
// is not a dep, a stage declared twice — is rejected.
func TestIndexValidatesDAG(t *testing.T) {
	if _, err := index(all); err != nil {
		t.Fatalf("declared stages: %v", err)
	}
	bad := map[string][]Info{
		"dep declared later": {{ID: "a", Deps: []ID{"b"}}, {ID: "b"}},
		"unknown dep":        {{ID: "a"}, {ID: "b", Deps: []ID{"c"}}},
		"self dep":           {{ID: "a", Deps: []ID{"a"}}},
		"load-dep not a dep": {{ID: "a"}, {ID: "b"}, {ID: "c", Deps: []ID{"a"}, LoadDeps: []ID{"b"}}},
		"duplicate":          {{ID: "a"}, {ID: "a"}},
	}
	for name, infos := range bad {
		if _, err := index(infos); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestAllTopological: All lists every stage once, deps strictly first.
func TestAllTopological(t *testing.T) {
	ids := All()
	pos := make(map[ID]int, len(ids))
	for i, id := range ids {
		if _, dup := pos[id]; dup {
			t.Fatalf("%s listed twice", id)
		}
		pos[id] = i
	}
	for _, id := range ids {
		in, ok := Get(id)
		if !ok || !Valid(id) {
			t.Fatalf("%s not found", id)
		}
		for _, d := range in.Deps {
			if pos[d] >= pos[id] {
				t.Errorf("%s listed before its dep %s", id, d)
			}
		}
	}
	if Valid("no-such-stage") {
		t.Error("unknown stage reported valid")
	}
}

// TestClosure: the closure holds the asked stages and everything they
// need, in All order, and ignores unknown IDs.
func TestClosure(t *testing.T) {
	got := Closure(Campaign, "no-such-stage")
	want := []ID{Regions, Topology, Population, Zone, Rates, Letters, Routes, Campaign}
	if !slices.Equal(got, want) {
		t.Fatalf("Closure(campaign) = %v, want %v", got, want)
	}
	if got := Closure(Zone); !slices.Equal(got, []ID{Zone}) {
		t.Fatalf("Closure(zone) = %v", got)
	}
}

// downstream returns id and every stage that transitively depends on it.
func downstream(infos []Info, id ID) map[ID]bool {
	out := map[ID]bool{id: true}
	for _, in := range infos {
		for _, d := range in.Deps {
			if out[d] {
				out[in.ID] = true
			}
		}
	}
	return out
}

// TestKeysFolding: keys are deterministic and distinct per stage; a
// config change moves every key; a Version bump moves exactly the bumped
// stage and everything downstream of it.
func TestKeysFolding(t *testing.T) {
	base := Keys("cfg")
	if again := Keys("cfg"); len(again) != len(all) {
		t.Fatalf("%d keys for %d stages", len(again), len(all))
	} else {
		for id, k := range base {
			if again[id] != k {
				t.Fatalf("%s: key not deterministic", id)
			}
		}
	}
	seen := map[string]ID{}
	for id, k := range base {
		if other, dup := seen[k]; dup {
			t.Fatalf("%s and %s share key %s", id, other, k)
		}
		seen[k] = id
	}
	for id, k := range Keys("other-cfg") {
		if base[id] == k {
			t.Errorf("%s: key ignores the config hash", id)
		}
	}

	for i, in := range all {
		bumped := slices.Clone(all)
		bumped[i].Version++
		moved := downstream(all, in.ID)
		for id, k := range keys(bumped, "cfg") {
			if changed := k != base[id]; changed != moved[id] {
				t.Errorf("bumping %s: %s key changed=%v, downstream=%v", in.ID, id, changed, moved[id])
			}
		}
	}
}

// TestLoadDepsPruning: a stage loaded from the store materializes only
// its LoadDeps, a subset of its Deps. The pruned deps are where warm
// starts win: a campaign hit needs no route resolution, and a join hit
// needs nothing upstream at all.
func TestLoadDepsPruning(t *testing.T) {
	for _, id := range All() {
		in, _ := Get(id)
		if !in.Persisted && len(in.LoadDeps) > 0 {
			t.Errorf("%s: load-deps on a stage that is never loaded", id)
		}
		for _, d := range in.LoadDeps {
			if !slices.Contains(in.Deps, d) {
				t.Errorf("%s: load-dep %s is not a dep", id, d)
			}
		}
	}
	camp, _ := Get(Campaign)
	if !slices.Contains(camp.Deps, Routes) || slices.Contains(camp.LoadDeps, Routes) {
		t.Errorf("campaign: a load must prune routes (deps %v, load-deps %v)", camp.Deps, camp.LoadDeps)
	}
	if join, _ := Get(Join); len(join.LoadDeps) != 0 {
		t.Errorf("join: a load needs %v, want nothing", join.LoadDeps)
	}
	routes, _ := Get(Routes)
	if !slices.Equal(routes.LoadDeps, routes.Deps) {
		t.Errorf("routes: restoring needs every dep's resolvers, load-deps %v", routes.LoadDeps)
	}
}
