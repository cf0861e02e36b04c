package anycastctx

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"anycastctx/internal/faults"
	"anycastctx/internal/scenario"
)

// updateGolden rewrites the committed digests from this run's outputs
// (go test -run TestGoldenDigests -update). Every regeneration is a
// change to what the program prints and must be called out as one.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/digests*.json from this run")

// goldenSets lists the committed digest files. Each pins, on one fixed
// world, the SHA-256 of every experiment's Measured+Output, every builtin
// scenario's report and every letter's site captures, clean and under
// forced site withdrawal.
var goldenSets = []struct {
	file  string
	seed  int64
	scale float64
}{
	{"testdata/golden/digests.json", 1, 0.05},
	{"testdata/golden/digests_0.25.json", 1, 0.25},
}

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
// change that alters every path alike would pass them all. The worlds are
// fixed by goldenSets, independent of ANYCASTCTX_TEST_SCALE.
func TestGoldenDigests(t *testing.T) {
	for _, gs := range goldenSets {
		t.Run(fmt.Sprintf("scale=%g", gs.scale), func(t *testing.T) {
			checkGolden(t, gs.file, gs.seed, gs.scale)
		})
	}
}

// captureDigests digests every site capture of every letter, once clean
// and once with each site withdrawn partway through the window. The clean
// captures pin where emission stops at the packet cap. Withdrawn records
// do not count toward the cap, so the withdrawn captures pin which
// contributors the quota plan lets emit.
func captureDigests(t *testing.T, w *World, digests map[string]string) {
	t.Helper()
	for _, run := range []struct {
		name   string
		faults faults.Policy
	}{
		{"clean", faults.Policy{}},
		{"withdrawn", faults.Policy{Seed: 1, SiteWithdrawProb: 1}},
	} {
		c := *w.Campaign()
		c.Faults = run.faults
		var buf bytes.Buffer
		for li, d := range c.Letters {
			h := sha256.New()
			for site := range d.Sites {
				buf.Reset()
				if _, err := c.EmitSiteCaptureCtx(context.Background(), &buf, li, site, 500, 7); err != nil {
					t.Fatalf("%s capture, letter %s site %d: %v", run.name, c.LetterNames[li], site, err)
				}
				h.Write(buf.Bytes())
			}
			digests["capture."+run.name+"."+c.LetterNames[li]] = hex.EncodeToString(h.Sum(nil))
		}
	}
}

func checkGolden(t *testing.T, goldenFile string, seed int64, scale float64) {
	got := goldenSet{Seed: seed, Scale: scale, Digests: map[string]string{}}
	w, err := newClassicWorld(Config{Seed: got.Seed, Scale: got.Scale})
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAllCtx(context.Background(), w, 0)
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
	captureDigests(t, w, got.Digests)

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
