package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one harness-side interval around a call into a layer. Spans
// are recorded only by the benchmark — the program under test carries no
// instrumentation of its own for this run.
type span struct {
	name       string
	parent     int // index into tracer.spans; -1 for a root
	start, end time.Duration
	children   time.Duration // summed duration of direct children
}

// tracer keeps every span in memory until the run ends. The benchmark
// drives the program from one goroutine, so parentage is the stack of
// open spans. A disabled tracer records nothing and costs one branch.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	open   []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// start opens a span under the innermost open one and returns its handle.
func (t *tracer) start(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.origin), end: -1})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span (which must be the innermost open one) and returns
// its duration.
func (t *tracer) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	t.open = t.open[:len(t.open)-1]
	sp := &t.spans[id]
	sp.end = time.Since(t.origin)
	d := sp.end - sp.start
	if sp.parent >= 0 {
		t.spans[sp.parent].children += d
	}
	return d
}

// self is a span's duration minus the part its children cover.
func (s span) self() time.Duration { return s.end - s.start - s.children }

type rollup struct {
	name        string
	count       int
	total, self time.Duration
}

// rollups sums spans by name, largest self time first.
func (t *tracer) rollups() []rollup {
	by := map[string]*rollup{}
	for _, s := range t.spans {
		r := by[s.name]
		if r == nil {
			r = &rollup{name: s.name}
			by[s.name] = r
		}
		r.count++
		r.total += s.end - s.start
		r.self += s.self()
	}
	out := make([]rollup, 0, len(by))
	for _, r := range by {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// write saves the span table to path: a per-name roll-up (count, total
// and self time) followed by every span with its parent and self time.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "# roll-up by span name (self = duration minus child spans)\n")
	fmt.Fprintf(bw, "%-40s %8s %12s %12s\n", "name", "count", "total_ms", "self_ms")
	for _, r := range t.rollups() {
		fmt.Fprintf(bw, "%-40s %8d %12.3f %12.3f\n", r.name, r.count, ms(r.total), ms(r.self))
	}
	fmt.Fprintf(bw, "\n# spans: id parent name start_us end_us self_us\n")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d %d %s %d %d %d\n", i, s.parent, s.name,
			s.start.Microseconds(), s.end.Microseconds(), s.self().Microseconds())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
