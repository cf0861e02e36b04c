package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"anycastctx/internal/obs"
	"anycastctx/internal/stage"
	"anycastctx/internal/world"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // 0 = the workload's default
	packets  int     // captures' cap per site capture
	workDir  string
	// traceFile receives the span table of a traced run ("" = none).
	traceFile string
	// writeDigests, when set, is where the digests of this run's outputs
	// are written; pinned digests are then not checked.
	writeDigests string
	// expected overrides the pinned digests (self-test); nil = load the
	// pinned file when the run matches its seed, scale and packet cap.
	expected map[string]string
	// mangle, when set, rewrites every emitted capture before it is
	// decoded (self-test: a corrupted capture must count as failed).
	mangle func([]byte) []byte
}

// Metric is one named measurement.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// The metrics the JSON line carries: end-to-end ones from an untraced
// run, per-layer ones from a traced run. BENCHMARK.json lists the same
// names (TestBenchmarkJSONMatches keeps the two in step). Everything else
// a run measures is printed above the JSON line only.
var (
	endToEndNames = []string{"setup_s", "run_s", "cpu_s", "peak_rss_mb"}
	perLayerNames = []string{
		"stage.regions_ms", "stage.topology_ms", "stage.population_ms", "stage.zone_ms",
		"stage.rates_ms", "stage.letters_ms", "stage.routes_ms", "stage.campaign_ms",
		"artifact.bytes_loaded",
		"geo.distance_ns", "anycastnet.closest_site_ns",
		"bgp.route_ns", "bgp.routes_resolved", "bgp.cache_hit_ratio", "bgp.route_cache_seeded",
		"capture.emit_ns_per_pkt", "capture.decode_ns_per_pkt", "capture.bytes_per_pkt",
		"ditl.rebase_recursives_reassembled",
		"alloc_mb", "gc_count",
		"cpu_share.geo", "cpu_share.topology", "cpu_share.anycastnet", "cpu_share.bgp",
		"cpu_share.core", "cpu_share.ditl", "cpu_share.pcapio", "cpu_share.dnswire",
		"cpu_share.runtime",
		"trace.overhead_pct",
	}
)

// result is what one invocation reports.
type result struct {
	attempted, failed int
	failures          []string
	// printed holds every metric, in print order; json names the ones
	// the JSON line carries.
	printed []Metric
	json    []string
	// digests holds the SHA-256 of every output the run checked, by name.
	digests map[string]string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonSummary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) metric(name string) (Metric, bool) {
	for _, m := range r.printed {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

func (r *result) summary() jsonSummary {
	s := jsonSummary{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, name := range r.json {
		m, _ := r.metric(name)
		s.Metrics[name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	return s
}

// workload is one input set the benchmark drives through the program.
type workload interface {
	// defaultScale is the world scale the workload runs at.
	defaultScale() float64
	// setupReps is how many times an untraced run sets up; setup_s is
	// the median.
	setupReps() int
	// minPasses is the fewest timed passes a phase makes.
	minPasses() int
	// prepare runs once before any setup; the returned cleanup runs at
	// exit.
	prepare(b *bench) (cleanup func(), err error)
	// config is the world configuration every setup starts from.
	config(b *bench) world.Config
	// stages are what setup demands.
	stages() []stage.ID
	// verify runs untimed checks before the timed phase.
	verify(b *bench, w *world.World)
	// pass runs one timed pass of operations through b.op.
	pass(b *bench, w *world.World)
	// finish runs untimed checks after the timed phase.
	finish(b *bench, w *world.World)
	// report adds the workload's own metrics; traced tells which phase
	// the accumulated per-layer figures belong to.
	report(b *bench, traced bool)
}

const workloadNames = "paper-cold, whatif-warm, captures"

func newWorkload(name string) (workload, bool) {
	switch name {
	case "paper-cold":
		return &paperCold{}, true
	case "whatif-warm":
		return &whatifWarm{}, true
	case "captures":
		return &captures{}, true
	}
	return nil, false
}

// bench is the state of one invocation.
type bench struct {
	opts options
	ctx  context.Context
	tr   *tracer
	res  result

	// expected holds pinned output digests (nil: none apply); seen holds
	// the digest of every output this run produced, by name.
	expected map[string]string
	seen     map[string]string

	// Accumulators of the running timed pass and phase.
	passWall, passCPU time.Duration
	opMs              []float64
}

func (b *bench) add(name string, v float64, unit string) {
	b.res.printed = append(b.res.printed, Metric{Name: name, Value: v, Unit: unit})
}

// fail records a failed operation.
func (b *bench) fail(op string, err error) {
	b.res.failed++
	if len(b.res.failures) < 20 {
		b.res.failures = append(b.res.failures, fmt.Sprintf("%s: %v", op, err))
	}
}

// op runs one operation of a timed pass and counts it as attempted. Only
// time spent inside op calls belongs to the timed phase, so the
// harness's own output checks never reach run_s or cpu_s. An error counts
// the operation failed. op returns the operation's duration and whether
// it succeeded; a caller that then finds the output wrong calls fail.
func (b *bench) op(name string, fn func() error) (time.Duration, bool) {
	b.res.attempted++
	sp := b.tr.start(name)
	c0, t0 := cpuTime(), time.Now()
	err := fn()
	d := time.Since(t0)
	b.passCPU += cpuTime() - c0
	b.tr.end(sp)
	b.passWall += d
	b.opMs = append(b.opMs, ms(d))
	if err != nil {
		b.fail(name, err)
		return d, false
	}
	return d, true
}

// check runs one untimed operation (an invariant check or a verification
// step) and counts it as attempted.
func (b *bench) check(name string, fn func() error) {
	b.res.attempted++
	if err := fn(); err != nil {
		b.fail(name, err)
	}
}

// digest records the SHA-256 of one output and checks it against the
// pinned digest, or — with none pinned — against the same output's
// digest earlier in this run (the program is deterministic per seed).
func (b *bench) digest(name string, parts ...[]byte) error {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if prev, ok := b.seen[name]; ok && prev != sum {
		return fmt.Errorf("output differs from an earlier pass of this run")
	}
	b.seen[name] = sum
	if b.expected != nil {
		want, ok := b.expected[name]
		if !ok {
			return fmt.Errorf("no pinned digest")
		}
		if want != sum {
			return fmt.Errorf("digest %.12s, pinned %.12s", sum, want)
		}
	}
	return nil
}

// phase is the passes of one kind (untraced or traced) of a timed phase.
type phase struct {
	wall, cpu []float64 // per pass, seconds
	opMs      []float64
}

func (p phase) runS() float64 { return median(p.wall) }

// tracedStats accumulates what the traced passes of a phase measure
// besides time: counter deltas, allocation, collections and CPU profile
// samples by package.
type tracedStats struct {
	passes   int
	deltas   map[string]uint64
	alloc    uint64
	gcs      uint64
	cpuNanos map[string]int64
}

// runPhase runs timed passes of wl on w until there are at least
// wl.minPasses() and another would overrun the -seconds budget. With ts
// set, passes alternate between untraced and traced ones (each kind gets
// the budget), so tracing overhead is measured under the same machine
// conditions as the pass it is compared with.
func (b *bench) runPhase(wl workload, w *world.World, ts *tracedStats) (plain, traced phase, err error) {
	kinds := 1
	if ts != nil {
		kinds = 2
	}
	budget := time.Duration(b.opts.seconds * float64(kinds) * float64(time.Second))
	start := time.Now()
	var roundStart time.Time
	for i := 0; ; i++ {
		if i%kinds == 0 {
			roundStart = time.Now()
		}
		isTraced := i%kinds == 1
		ph := &plain
		if isTraced {
			ph = &traced
		}
		runtime.GC()
		b.passWall, b.passCPU, b.opMs = 0, 0, ph.opMs
		pass := func() {
			sp := b.tr.start("pass")
			wl.pass(b, w)
			b.tr.end(sp)
		}
		if isTraced {
			if err := b.tracedPass(ts, pass); err != nil {
				return plain, traced, err
			}
		} else {
			pass()
		}
		ph.wall = append(ph.wall, b.passWall.Seconds())
		ph.cpu = append(ph.cpu, b.passCPU.Seconds())
		ph.opMs = b.opMs
		fmt.Fprintf(os.Stderr, "pass %d (traced %v): %.3f s wall, %.3f s cpu in operations\n",
			i+1, isTraced, b.passWall.Seconds(), b.passCPU.Seconds())
		roundDone := i%kinds == kinds-1
		if roundDone && len(ph.wall) >= wl.minPasses() &&
			time.Since(start)+time.Since(roundStart) > budget {
			return plain, traced, nil
		}
	}
}

// tracedPass runs one pass with the tracer on, a CPU profile running and
// counter and memory snapshots around it, adding what it saw to ts.
func (b *bench) tracedPass(ts *tracedStats, pass func()) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := obs.TakeSnapshot()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	b.tr.on = true
	pass()
	b.tr.on = false
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	for name, d := range obs.TakeSnapshot().CounterDeltas(before) {
		ts.deltas[name] += d
	}
	ts.alloc += m1.TotalAlloc - m0.TotalAlloc
	ts.gcs += uint64(m1.NumGC - m0.NumGC)
	nanos, err := cpuNanos(prof.Bytes())
	if err != nil {
		return err
	}
	for pkg, n := range nanos {
		ts.cpuNanos[pkg] += n
	}
	ts.passes++
	return nil
}

// setup builds the workload's world setupReps times and returns the last
// world with the median setup time: NewWorld through the demand of the
// workload's stages.
func (b *bench) setup(wl workload) (*world.World, float64, error) {
	var times []float64
	var w *world.World
	for i := 0; i < wl.setupReps(); i++ {
		w = nil // so the collection below frees the previous world
		runtime.GC()
		t0 := time.Now()
		nw, err := world.New(wl.config(b))
		if err != nil {
			return nil, 0, err
		}
		if err := nw.Demand(b.ctx, wl.stages()...); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		w = nw
	}
	return w, median(times), nil
}

// tracedSetup builds the world once, demanding each stage of the
// workload's set separately in topological order, and reports each
// demand's wall time and the artifact bytes loaded.
func (b *bench) tracedSetup(wl workload) (*world.World, error) {
	sp := b.tr.start("setup")
	defer b.tr.end(sp)
	w, err := world.New(wl.config(b))
	if err != nil {
		return nil, err
	}
	for _, id := range stage.Closure(wl.stages()...) {
		ssp := b.tr.start("stage." + string(id))
		err := w.Demand(b.ctx, id)
		d := b.tr.end(ssp)
		if err != nil {
			return nil, err
		}
		b.add("stage."+string(id)+"_ms", ms(d), "ms")
	}
	var loaded int64
	for _, st := range w.StageStatuses() {
		if st.Outcome == "loaded" {
			loaded += st.Bytes
		}
	}
	b.add("artifact.bytes_loaded", float64(loaded), "bytes")
	return w, nil
}

// run executes one invocation end to end.
func run(opts options) (*result, error) {
	wl, ok := newWorkload(opts.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, workloadNames)
	}
	if opts.scale == 0 {
		opts.scale = wl.defaultScale()
	}
	if !(opts.seconds > 0) {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if opts.workDir == "" {
		opts.workDir = "."
	}
	b := &bench{opts: opts, ctx: context.Background(), tr: newTracer(false), seen: map[string]string{}}
	if opts.writeDigests == "" {
		b.expected = opts.expected
		if b.expected == nil {
			var err error
			if b.expected, err = pinnedDigests(opts.workload, opts.seed, opts.scale, opts.packets); err != nil {
				return nil, err
			}
		}
	}

	cleanup, err := wl.prepare(b)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	if !opts.trace {
		w, setupS, err := b.setup(wl)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		wl.verify(b, w)
		steal := stealTime()
		ph, _, err := b.runPhase(wl, w, nil)
		if err != nil {
			return nil, err
		}
		steal = stealTime() - steal
		wl.finish(b, w)
		b.add("setup_s", setupS, "s")
		b.add("run_s", ph.runS(), "s")
		b.add("cpu_s", median(ph.cpu), "s")
		b.add("peak_rss_mb", peakRSSMiB(), "MiB")
		b.add("op_p50_ms", quantile(ph.opMs, 0.5), "ms")
		b.add("op_p90_ms", quantile(ph.opMs, 0.9), "ms")
		b.add("op_samples", float64(len(ph.opMs)), "count")
		b.add("passes", float64(len(ph.wall)), "count")
		b.add("host_steal_s", steal.Seconds(), "s")
		wl.report(b, false)
		b.res.json = endToEndNames
	} else {
		if err := b.traced(wl); err != nil {
			return nil, err
		}
		b.res.json = perLayerNames
	}
	if b.res.attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	b.add("fail_share", float64(b.res.failed)/float64(b.res.attempted), "ratio")
	b.res.digests = b.seen
	if opts.writeDigests != "" {
		if err := writeDigests(opts, b.seen); err != nil {
			return nil, err
		}
	}
	for _, name := range b.res.json {
		m, ok := b.res.metric(name)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return &b.res, nil
}

// traced is the traced run: a traced setup, then a timed phase whose
// passes alternate between untraced ones (the reference for
// trace.overhead_pct) and traced ones (spans, counter deltas, memory
// statistics and a CPU profile), then the layer probes. Spans are
// written to opts.traceFile at the end.
func (b *bench) traced(wl workload) error {
	b.tr.on = true
	w, err := b.tracedSetup(wl)
	b.tr.on = false
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	wl.verify(b, w)
	ts := &tracedStats{deltas: map[string]uint64{}, cpuNanos: map[string]int64{}}
	plain, ph, err := b.runPhase(wl, w, ts)
	if err != nil {
		return err
	}
	wl.report(b, true)
	b.tr.on = true
	b.probes(wl, w)
	b.tr.on = false
	wl.finish(b, w)

	passes := float64(ts.passes)
	perPass := func(name string) float64 { return float64(ts.deltas[name]) / passes }
	b.add("bgp.routes_resolved", perPass("bgp.routes_resolved"), "count")
	hits, misses := ts.deltas["bgp.route_cache_hits"], ts.deltas["bgp.route_cache_misses"]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	b.add("bgp.cache_hit_ratio", ratio, "ratio")
	b.add("bgp.route_cache_seeded", perPass("bgp.route_cache_seeded"), "count")
	b.add("ditl.rebase_recursives_reassembled", perPass("ditl.rebase_recursives_reassembled"), "count")
	b.add("alloc_mb", float64(ts.alloc)/(1<<20)/passes, "MiB")
	b.add("gc_count", float64(ts.gcs)/passes, "count")

	var total int64
	for _, n := range ts.cpuNanos {
		total += n
	}
	share := func(pkg string) float64 {
		if total == 0 {
			return 0
		}
		return float64(ts.cpuNanos[pkg]) / float64(total)
	}
	named := map[string]bool{}
	for _, name := range perLayerNames {
		if pkg, ok := strings.CutPrefix(name, "cpu_share."); ok {
			named[pkg] = true
			b.add(name, share(pkg), "ratio")
		}
	}
	var rest []string
	for pkg := range ts.cpuNanos {
		if !named[pkg] {
			rest = append(rest, pkg)
		}
	}
	sort.Strings(rest)
	for _, pkg := range rest {
		b.add("cpu_share."+pkg, share(pkg), "ratio")
	}
	b.add("trace.overhead_pct", (ph.runS()/plain.runS()-1)*100, "%")
	b.add("trace.run_s", ph.runS(), "s")
	b.add("trace.untraced_run_s", plain.runS(), "s")

	if b.opts.traceFile != "" {
		if err := b.tr.write(b.opts.traceFile); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintln(os.Stderr, "trace written to", b.opts.traceFile)
	}
	return nil
}
