package anycastctx

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"anycastctx/internal/faults"
	"anycastctx/internal/obs"
	"anycastctx/internal/scenario"
	"anycastctx/internal/stage"
)

// updateGolden rewrites the committed digests (and the work golden) from
// this run (go test -run TestGoldenDigests -update). A digest
// regeneration is a change to what the program prints, a work
// regeneration a change to how much it computes; each must be called out
// as one.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/digests*.json and work.json from this run")

// goldenSets lists the committed digest files. Each pins, on one fixed
// world, the SHA-256 of every experiment's Measured+Output, every builtin
// scenario's report and every letter's site captures, clean and under
// forced site withdrawal. A set with a work file also pins that world's
// work (see measureWork).
var goldenSets = []struct {
	file  string
	work  string
	seed  int64
	scale float64
}{
	{"testdata/golden/digests.json", "testdata/golden/work.json", 1, 0.05},
	{"testdata/golden/digests_0.25.json", "", 1, 0.25},
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
			checkGolden(t, gs.file, gs.work, gs.seed, gs.scale)
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

func checkGolden(t *testing.T, goldenFile, workFile string, seed int64, scale float64) {
	ctx := context.Background()
	got := goldenSet{Seed: seed, Scale: scale, Digests: map[string]string{}}
	var (
		w       *World
		results []Result
		work    workSet
		err     error
	)
	if workFile != "" {
		if w, err = NewWorld(Config{Seed: seed, Scale: scale}); err == nil {
			work, results, err = measureWork(ctx, w)
		}
	} else if w, err = newClassicWorld(Config{Seed: seed, Scale: scale}); err == nil {
		results, err = RunAllCtx(ctx, w, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		got.Digests["exp."+r.ID] = sha256Hex(r.Measured, "\x00", r.Output)
	}
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
		writeGolden(t, goldenFile, got)
		t.Logf("wrote %d digests to %s", len(got.Digests), goldenFile)
		if workFile != "" {
			work = pinWork(ctx, t, work)
			writeGolden(t, workFile, work)
			t.Logf("wrote the work of %d stages and experiments to %s", len(work.Work), workFile)
		}
		return
	}

	var want goldenSet
	readGolden(t, goldenFile, seed, scale, &want)
	for _, name := range unionKeys(got.Digests, want.Digests) {
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
	if workFile == "" {
		return
	}
	var wantWork workSet
	readGolden(t, workFile, seed, scale, &wantWork)
	band := allocBandApplies(raceEnabled, wantWork.Toolchain, work.Toolchain)
	if !band {
		t.Logf("%s: allocation band skipped (pinned under %s, running %s, race detector %v); counters checked",
			workFile, wantWork.Toolchain, work.Toolchain, raceEnabled)
	}
	for _, msg := range compareWork(wantWork.Work, work.Work, band) {
		t.Error(msg)
	}
}

func writeGolden(t *testing.T, file string, v any) {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readGolden loads a committed golden into v and fails unless it pins
// the world the test runs on.
func readGolden(t *testing.T, file string, seed int64, scale float64, v any) {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	var pinned struct {
		Seed  int64
		Scale float64
	}
	if err := json.Unmarshal(b, &pinned); err == nil {
		err = json.Unmarshal(b, v)
	}
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if pinned.Seed != seed || pinned.Scale != scale {
		t.Fatalf("%s pins seed %d scale %g; test runs seed %d scale %g",
			file, pinned.Seed, pinned.Scale, seed, scale)
	}
}

// unionKeys returns every key of the maps, sorted, once each.
func unionKeys[V any](ms ...map[string]V) []string {
	var keys []string
	for _, m := range ms {
		for k := range m {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// The work golden pins what the program computes, not how fast: for each
// stage build and each experiment run on the golden world, every obs
// counter delta and the heap allocation count and bytes. Counters are
// exact. Allocation may drift by allocBandRel of the pinned value, or by
// the absolute floors where that is larger: sync.Pool caches (fmt's, the
// pcap writer's) refill after each GC, so a few objects move with GC
// timing, and a map's table splits follow its random hash seed (local's
// resolver cache moves its bytes by up to about ±1.4%). Allocation is a
// property of the toolchain as well as of the program: the race detector
// roughly doubles it, and another Go release or platform has other map
// layouts and size classes. So the band applies only without the race
// detector and under the toolchain that pinned it; counters are checked
// everywhere.
const (
	allocBandRel    = 0.02
	allocFloorCount = 32
	allocFloorBytes = 64 << 10
)

// workEntry is the work one stage build or one experiment run did.
type workEntry struct {
	Counters   map[string]uint64 `json:"counters"`
	Mallocs    uint64            `json:"mallocs"`
	TotalAlloc uint64            `json:"total_alloc"`
}

// workSet is the on-disk form of the work golden. Work is keyed
// "stage.<id>" and "exp.<id>".
type workSet struct {
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	// Toolchain is the Go release and platform that did the work, as
	// toolchain returns it.
	Toolchain string               `json:"toolchain"`
	Work      map[string]workEntry `json:"work"`
}

// toolchain names the running Go release and platform the way `go
// version` does, e.g. "go1.24.0 linux/amd64".
func toolchain() string {
	return runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH
}

// allocBandApplies reports whether allocations pinned under the pinned
// toolchain can be held to the band in a run under running.
func allocBandApplies(race bool, pinned, running string) bool {
	return !race && pinned == running
}

// measureWork demands every stage of w one at a time, in stage.All()
// order, then runs every experiment serially, recording each one's work.
// It runs at GOMAXPROCS 1: par then runs every fan-out on the calling
// goroutine, and the route counters that racing fills inflate (see
// bgp.Resolver.Route) count each route once.
func measureWork(ctx context.Context, w *World) (workSet, []Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Reset drops spans kept by earlier tests, so the span log grows the
	// same way in every process.
	obs.Reset()
	obs.Enable()
	defer obs.Disable()
	work := workSet{Seed: w.Cfg.Seed, Scale: w.Cfg.Scale, Toolchain: toolchain(), Work: map[string]workEntry{}}
	var m0, m1 runtime.MemStats
	for _, id := range stage.All() {
		before := obs.TakeSnapshot()
		runtime.ReadMemStats(&m0)
		err := w.Demand(ctx, id)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return work, nil, err
		}
		work.Work["stage."+string(id)] = workEntry{
			Counters:   obs.TakeSnapshot().CounterDeltas(before),
			Mallocs:    m1.Mallocs - m0.Mallocs,
			TotalAlloc: m1.TotalAlloc - m0.TotalAlloc,
		}
	}
	SetProgressHook(func(ev ProgressEvent) {
		if !ev.Done {
			runtime.ReadMemStats(&m0)
			return
		}
		runtime.ReadMemStats(&m1)
		work.Work["exp."+ev.ID] = workEntry{
			Mallocs:    m1.Mallocs - m0.Mallocs,
			TotalAlloc: m1.TotalAlloc - m0.TotalAlloc,
		}
	})
	defer SetProgressHook(nil)
	results, err := RunAllCtx(ctx, w, 1)
	for _, r := range results {
		e := work.Work["exp."+r.ID]
		e.Counters = r.Stats.CounterDeltas
		work.Work["exp."+r.ID] = e
	}
	return work, results, err
}

// pinWork returns the work -update pins: first's counters, which two more
// passes on fresh worlds must reproduce exactly, and the median of the
// three passes' allocations, so that one pass at the tail of the
// seed-dependent spread cannot set the pin.
func pinWork(ctx context.Context, t *testing.T, first workSet) workSet {
	runs := []workSet{first}
	for len(runs) < 3 {
		w, err := NewWorld(Config{Seed: first.Seed, Scale: first.Scale})
		var work workSet
		if err == nil {
			work, _, err = measureWork(ctx, w)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range compareWork(first.Work, work.Work, false) {
			t.Errorf("work differs between passes: %s", msg)
		}
		runs = append(runs, work)
	}
	for name, e := range first.Work {
		var mallocs, bytes []uint64
		for _, run := range runs {
			mallocs = append(mallocs, run.Work[name].Mallocs)
			bytes = append(bytes, run.Work[name].TotalAlloc)
		}
		slices.Sort(mallocs)
		slices.Sort(bytes)
		e.Mallocs, e.TotalAlloc = mallocs[1], bytes[1]
		first.Work[name] = e
	}
	return first
}

// compareWork lists every way got departs from want: a stage or
// experiment that is pinned but absent, or present but not pinned; a
// counter delta that differs, a missing or extra counter included; and,
// when allocBand is set, an allocation count or byte total outside the
// band.
func compareWork(want, got map[string]workEntry, allocBand bool) []string {
	var bad []string
	for _, name := range unionKeys(want, got) {
		w, pinned := want[name]
		g, ran := got[name]
		if !pinned || !ran {
			what := "pinned but not run"
			if !pinned {
				what = "no pinned work (new? regenerate with -update)"
			}
			bad = append(bad, name+": "+what)
			continue
		}
		// A counter that did not advance has no entry, so a missing or
		// extra name reads as a delta of 0.
		for _, c := range unionKeys(w.Counters, g.Counters) {
			if gv, wv := g.Counters[c], w.Counters[c]; gv != wv {
				bad = append(bad, fmt.Sprintf("%s: counter %s advanced by %d, pinned %d", name, c, gv, wv))
			}
		}
		if !allocBand {
			continue
		}
		if !withinAllocBand(g.Mallocs, w.Mallocs, allocFloorCount) {
			bad = append(bad, fmt.Sprintf("%s: %d allocations, pinned %d", name, g.Mallocs, w.Mallocs))
		}
		if !withinAllocBand(g.TotalAlloc, w.TotalAlloc, allocFloorBytes) {
			bad = append(bad, fmt.Sprintf("%s: %d bytes allocated, pinned %d", name, g.TotalAlloc, w.TotalAlloc))
		}
	}
	return bad
}

// withinAllocBand reports whether got is within allocBandRel of want, or
// within floor of it.
func withinAllocBand(got, want, floor uint64) bool {
	diff := max(got, want) - min(got, want)
	return diff <= floor || float64(diff) <= allocBandRel*float64(want)
}

// TestCompareWork is the work gate's self-test: each perturbation of a
// synthetic golden must fail it, and drift inside the allocation band, or
// any drift with the band off, must pass. The band must be off under the
// race detector and under any toolchain but the pinning one.
func TestCompareWork(t *testing.T) {
	base := func() map[string]workEntry {
		return map[string]workEntry{
			"stage.zone":     {Counters: map[string]uint64{"world.stage.zone.computes": 1}, Mallocs: 100_000, TotalAlloc: 100 << 20},
			"exp.fig4a":      {Counters: map[string]uint64{"bgp.routes_resolved": 360, "bgp.route_cache_hits": 900}, Mallocs: 100_000, TotalAlloc: 100 << 20},
			"exp.continents": {Counters: map[string]uint64{"bgp.route_cache_hits": 5}, Mallocs: 84, TotalAlloc: 1 << 10},
		}
	}
	for _, tc := range []struct {
		name      string
		entry     string // the entry edit changes, in a fresh copy of base
		edit      func(*workEntry)
		allocBand bool
		fail      bool
	}{
		{"identical", "exp.fig4a", func(*workEntry) {}, true, false},
		{"counter off by one", "exp.fig4a", func(e *workEntry) { e.Counters["bgp.routes_resolved"]++ }, true, true},
		{"counter missing", "exp.fig4a", func(e *workEntry) { delete(e.Counters, "bgp.route_cache_hits") }, true, true},
		{"counter extra", "exp.fig4a", func(e *workEntry) { e.Counters["bgp.routes_direct"] = 1 }, true, true},
		{"new experiment", "exp.fig99", func(*workEntry) {}, true, true},
		{"stage with no entry", "stage.routes", func(*workEntry) {}, true, true},
		{"mallocs 2x band", "exp.fig4a", func(e *workEntry) { e.Mallocs = 104_000 }, true, true},
		{"total_alloc 2x band", "exp.fig4a", func(e *workEntry) { e.TotalAlloc = 96 << 20 }, true, true},
		{"mallocs 2x floor", "exp.continents", func(e *workEntry) { e.Mallocs += 2 * allocFloorCount }, true, true},
		{"total_alloc 2x floor", "exp.continents", func(e *workEntry) { e.TotalAlloc += 2 * allocFloorBytes }, true, true},
		{"drift inside band", "exp.fig4a", func(e *workEntry) { e.Mallocs, e.TotalAlloc = 101_900, 98<<20 }, true, false},
		{"drift inside floor", "exp.continents", func(e *workEntry) { e.Mallocs, e.TotalAlloc = 86, 60<<10 }, true, false},
		{"band off", "exp.fig4a", func(e *workEntry) { e.Mallocs, e.TotalAlloc = 200_000, 200<<20 }, false, false},
		{"band off, counters still exact", "exp.fig4a", func(e *workEntry) { e.Counters["bgp.routes_resolved"] = 365 }, false, true},
	} {
		got := base()
		e := got[tc.entry]
		e.Counters = maps.Clone(e.Counters)
		tc.edit(&e)
		got[tc.entry] = e
		bad := compareWork(base(), got, tc.allocBand)
		if fails := len(bad) > 0; fails != tc.fail {
			t.Errorf("%s: gate failed = %v, want %v (%q)", tc.name, fails, tc.fail, bad)
		}
	}
	if bad := compareWork(base(), map[string]workEntry{}, true); len(bad) != len(base()) {
		t.Errorf("nothing run: %d failures, want one per pinned entry (%q)", len(bad), bad)
	}
	for _, tc := range []struct {
		race            bool
		pinned, running string
		want            bool
	}{
		{false, "go1.24.0 linux/amd64", "go1.24.0 linux/amd64", true},
		{true, "go1.24.0 linux/amd64", "go1.24.0 linux/amd64", false},
		{false, "go1.24.0 linux/amd64", "go1.22.12 linux/amd64", false},
		{false, "go1.24.0 linux/amd64", "go1.24.0 linux/arm64", false},
		{false, "", "go1.24.0 linux/amd64", false},
	} {
		if got := allocBandApplies(tc.race, tc.pinned, tc.running); got != tc.want {
			t.Errorf("allocBandApplies(race %v, pinned %q, running %q) = %v, want %v",
				tc.race, tc.pinned, tc.running, got, tc.want)
		}
	}
}
