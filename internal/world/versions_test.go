package world

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"anycastctx/internal/stage"
)

// updateVersions rewrites the committed stage pins from this run (go test
// ./internal/world -run TestStageVersionsPinned -update), the same flag
// that regenerates the root package's golden digests.
var updateVersions = flag.Bool("update", false, "rewrite testdata/golden/stage_versions.json from this run")

const stageVersionsFile = "../../testdata/golden/stage_versions.json"

// stagePin is one persisted stage's Version and the SHA-256 of the
// artifact it stores, on the pinned world.
type stagePin struct {
	Version int    `json:"version"`
	SHA256  string `json:"sha256"`
}

type stagePins struct {
	Seed   int64                 `json:"seed"`
	Scale  float64               `json:"scale"`
	Stages map[stage.ID]stagePin `json:"stages"`
}

// TestStageVersionsPinned is the stage drift guard. A warm store serves
// an artifact whenever its key matches, and only a Version bump changes
// a key for the same configuration, so a change to what a persisted
// stage computes or how it encodes must bump that stage's Version or warm
// runs would replay stale bytes. The test pins each persisted stage's
// Version and artifact digest at seed 1, scale 0.05, and fails when a
// digest moves while its Version does not.
func TestStageVersionsPinned(t *testing.T) {
	got := stagePins{Seed: 1, Scale: 0.05, Stages: map[stage.ID]stagePin{}}
	w, err := New(Config{Seed: got.Seed, Scale: got.Scale, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ids := persistedStages()
	if err := w.Demand(context.Background(), ids...); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		blob, err := w.Store().Load(string(id), w.Key(id))
		if err != nil {
			t.Fatalf("stage %s: stored artifact: %v", id, err)
		}
		info, _ := stage.Get(id)
		sum := sha256.Sum256(blob)
		got.Stages[id] = stagePin{Version: info.Version, SHA256: hex.EncodeToString(sum[:])}
	}

	if *updateVersions {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stageVersionsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d stage pins to %s", len(got.Stages), stageVersionsFile)
		return
	}

	b, err := os.ReadFile(stageVersionsFile)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	var want stagePins
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", stageVersionsFile, err)
	}
	if want.Seed != got.Seed || want.Scale != got.Scale {
		t.Fatalf("%s pins seed %d scale %g; test runs seed %d scale %g",
			stageVersionsFile, want.Seed, want.Scale, got.Seed, got.Scale)
	}
	for _, id := range ids {
		g, pinned := got.Stages[id], want.Stages[id]
		switch {
		case pinned == (stagePin{}):
			t.Errorf("stage %s: not pinned (new persisted stage? regenerate with -update)", id)
		case g.Version == pinned.Version && g.SHA256 != pinned.SHA256:
			t.Errorf("stage %s: artifact digest %.12s, pinned %.12s at the same version %d: "+
				"bump its Version in internal/stage, then regenerate with -update",
				id, g.SHA256, pinned.SHA256, g.Version)
		case g != pinned:
			t.Errorf("stage %s: version %d, pinned %d: regenerate with -update", id, g.Version, pinned.Version)
		}
	}
	for id := range want.Stages {
		if _, ok := got.Stages[id]; !ok {
			t.Errorf("stage %s: pinned but not persisted", id)
		}
	}
}
