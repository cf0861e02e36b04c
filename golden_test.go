package anycastctx

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"anycastctx/internal/scenario"
)

// updateGolden rewrites the committed digests from this run's outputs
// (go test -run TestGoldenDigests -update). Every regeneration is a
// change to what the program prints and must be called out as one.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/digests.json from this run")

// goldenFile pins the SHA-256 of every experiment's Measured+Output and
// every builtin scenario's report on one fixed, small world.
const goldenFile = "testdata/golden/digests.json"

// goldenSet is the on-disk form of goldenFile. The world parameters are
// stored with the digests so a reader knows what they pin.
type goldenSet struct {
	Seed    int64             `json:"seed"`
	Scale   float64           `json:"scale"`
	Digests map[string]string `json:"digests"`
}

func sha256Hex(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests pins output absolutely: the determinism tests only
// compare one path against another (-j 1 vs -j 0, cold vs warm), so a
// change that alters every path alike would pass them all. The world is
// fixed at seed 1 and scale 0.05, independent of ANYCASTCTX_TEST_SCALE.
func TestGoldenDigests(t *testing.T) {
	got := goldenSet{Seed: 1, Scale: 0.05, Digests: map[string]string{}}
	w, err := BuildWorld(Config{Seed: got.Seed, Scale: got.Scale})
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAllParallel(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		got.Digests["exp."+r.ID] = sha256Hex(r.Measured, "\x00", r.Output)
	}
	ctx := context.Background()
	bl := scenario.NewBaseline(w)
	for _, spec := range scenario.Builtins() {
		res, err := scenario.Eval(ctx, bl, spec, scenario.Options{})
		if err != nil {
			t.Fatalf("scenario %s: %v", spec.Name, err)
		}
		got.Digests["scenario."+spec.Name] = sha256Hex(res.Report(ctx))
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got.Digests), goldenFile)
		return
	}

	b, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	var want goldenSet
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	if want.Seed != got.Seed || want.Scale != got.Scale {
		t.Fatalf("%s pins seed %d scale %g; test runs seed %d scale %g",
			goldenFile, want.Seed, want.Scale, got.Seed, got.Scale)
	}
	names := make([]string, 0, len(got.Digests)+len(want.Digests))
	for name := range got.Digests {
		names = append(names, name)
	}
	for name := range want.Digests {
		if _, ok := got.Digests[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		g, w := got.Digests[name], want.Digests[name]
		switch {
		case w == "":
			t.Errorf("%s: no pinned digest (new output? regenerate with -update)", name)
		case g == "":
			t.Errorf("%s: pinned but not produced", name)
		case g != w:
			t.Errorf("%s: digest %.12s, pinned %.12s", name, g, w)
		}
	}
}
