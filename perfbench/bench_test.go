package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as whatif-warm's store-fill child,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if dir := os.Getenv(fillEnv); dir != "" {
		if err := fillMain(dir, os.Args[1:]); err != nil {
			os.Stderr.WriteString("fill: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// small runs one workload once at a small scale: the shortest timed
// phase (a single pass) on a 5% world with 50-packet captures.
func small(t *testing.T, workload string, trace bool, tweak func(*options)) *result {
	t.Helper()
	opts := options{
		workload: workload,
		seed:     1,
		seconds:  1e-9,
		trace:    trace,
		scale:    0.05,
		packets:  50,
		workDir:  t.TempDir(),
		expected: map[string]string{},
	}
	if tweak != nil {
		tweak(&opts)
	}
	if opts.expected != nil && len(opts.expected) == 0 {
		opts.expected = nil
		opts.writeDigests = opts.workDir + "/digests.json" // check nothing pinned
	}
	res, err := run(opts)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res
}

// benchmarkJSON reads the metric declarations of BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layer map[string]string, order [2][]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
		order[0] = append(order[0], m.Name)
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
		order[1] = append(order[1], m.Name)
	}
	return e2e, layer, order
}

func TestBenchmarkJSONMatches(t *testing.T) {
	_, _, order := benchmarkJSON(t)
	if strings.Join(order[0], " ") != strings.Join(endToEndNames, " ") {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark emits %v", order[0], endToEndNames)
	}
	if strings.Join(order[1], " ") != strings.Join(perLayerNames, " ") {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark emits %v", order[1], perLayerNames)
	}
}

// workloadMetrics are the metrics each workload prints beyond the JSON
// ones, untraced and traced.
var workloadMetrics = map[string][2][]string{
	"paper-cold": {{"op_p50_ms", "op_p90_ms"}, {"exp.fig2a_ms", "exp.growth_ms", "stage.cdn_ms", "stage.join_ms"}},
	"whatif-warm": {{"scenario_p50_ms", "scenario_p90_ms"},
		{"scenario.eval_ms.swap-b-f", "scenario.report_ms.surge-2x", "stage.cdn_ms"}},
	"captures": {{"capture_pkts_per_s"}, nil},
}

// TestEveryWorkloadSmall runs each workload untraced and traced at a small
// scale and checks that every metric is printed with its declared unit
// and that no operation failed.
func TestEveryWorkloadSmall(t *testing.T) {
	e2e, layer, _ := benchmarkJSON(t)
	for _, wl := range []string{"paper-cold", "whatif-warm", "captures"} {
		for i, trace := range []bool{false, true} {
			res := small(t, wl, trace, nil)
			declared := e2e
			if trace {
				declared = layer
			}
			for name, unit := range declared {
				m, ok := res.metric(name)
				if !ok {
					t.Errorf("%s trace=%v: %s not printed", wl, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: %s in %s, BENCHMARK.json says %s", wl, trace, name, m.Unit, unit)
				}
			}
			extra := append(workloadMetrics[wl][i], "fail_share")
			if !trace {
				extra = append(extra, "op_samples", "passes", "host_steal_s")
			}
			for _, name := range extra {
				if _, ok := res.metric(name); !ok {
					t.Errorf("%s trace=%v: %s not printed", wl, trace, name)
				}
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v",
					wl, trace, res.failed, res.attempted, res.failures)
			}
			summary := res.summary()
			if len(summary.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: JSON carries %d metrics, want %d", wl, trace, len(summary.Metrics), len(declared))
			}
		}
	}
}

// TestCorruptionFails checks that a digest that does not match, and a
// capture damaged before decoding, each count as failed operations.
func TestCorruptionFails(t *testing.T) {
	for _, wl := range []string{"paper-cold", "whatif-warm", "captures"} {
		clean := small(t, wl, false, nil)
		if len(clean.digests) == 0 {
			t.Fatalf("%s: no output digests recorded", wl)
		}
		pinned := map[string]string{}
		var victim string
		for k, v := range clean.digests {
			pinned[k] = v
			if victim == "" || k < victim {
				victim = k
			}
		}
		if res := small(t, wl, false, func(o *options) { o.expected = pinned }); res.failed != 0 {
			t.Errorf("%s: a rerun against its own digests failed %d operations: %v", wl, res.failed, res.failures)
		}
		pinned[victim] = strings.Repeat("0", 64)
		res := small(t, wl, false, func(o *options) { o.expected = pinned })
		if m, _ := res.metric("fail_share"); !(m.Value > 0 && m.Value < 1) {
			t.Errorf("%s: fail_share %v with one corrupted digest, want in (0, 1)", wl, m.Value)
		}
	}

	res := small(t, "captures", false, func(o *options) {
		o.mangle = func(b []byte) []byte { return b[:len(b)-7] }
	})
	if res.failed != res.attempted {
		t.Errorf("truncated captures: %d of %d operations failed, want all", res.failed, res.attempted)
	}
}

// TestPinnedDigests checks that each workload has digests pinned for its
// default seed, scale and packet cap.
func TestPinnedDigests(t *testing.T) {
	for _, name := range []string{"paper-cold", "whatif-warm", "captures"} {
		wl, _ := newWorkload(name)
		d, err := pinnedDigests(name, 1, wl.defaultScale(), defaultPackets)
		if err != nil {
			t.Fatal(err)
		}
		if len(d) == 0 {
			t.Errorf("%s: no digests pinned for the default seed", name)
		}
	}
}

var spinSink int

func spin() {
	for i := 0; i < 200_000_000; i++ {
		spinSink += i ^ (i >> 3)
	}
}

func TestCPUNanos(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	spin()
	pprof.StopCPUProfile()
	nanos, err := cpuNanos(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range nanos {
		total += n
	}
	// Test binaries name the package under test by its import path.
	if own := nanos["anycastctx/perfbench"]; total == 0 || own*2 < total {
		t.Errorf("CPU by package %v: want most of it in this package", nanos)
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"anycastctx/internal/geo.DistanceKm":              "geo",
		"anycastctx/internal/bgp.(*Resolver).Route.func1": "bgp",
		"anycastctx.RunExperimentCtx":                     "anycastctx",
		"runtime.mallocgc":                                "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":    "runtime",
		"memeqbody": "runtime",
		"crypto/internal/fips140/sha256.blockSHANI": "crypto/internal/fips140/sha256",
		"sort.Float64s": "sort",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}
