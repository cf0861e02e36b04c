package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"anycastctx/internal/anycastnet"
	"anycastctx/internal/ditl"
	"anycastctx/internal/geo"
	"anycastctx/internal/world"
)

// probeSink keeps probe results live so the compiler cannot drop the
// calls being timed.
var probeSink float64

// probeMin is how long a repeated probe keeps sweeping (at least three
// sweeps); its figure is the median sweep's per-call time.
const probeMin = 300 * time.Millisecond

// sweepNs times fn (which makes calls calls) repeatedly and returns the
// median nanoseconds per call.
func sweepNs(calls int, fn func()) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < probeMin {
		t0 := time.Now()
		fn()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return median(per)
}

// probes times the geometry, nearest-site and route-resolution layers
// directly on the workload's world, after its timed phase, and — unless
// the workload's own timed phase already measured it — capture emission
// and decoding on one site per letter.
func (b *bench) probes(wl workload, w *world.World) {
	locs := w.Locations()
	letters := w.Letters()

	sp := b.tr.start("probe.geo")
	var sites []geo.Coord
	for _, d := range letters {
		for _, s := range d.Sites {
			if s.Global {
				sites = append(sites, s.Loc)
			}
		}
	}
	b.add("geo.distance_ns", sweepNs(len(locs)*len(sites), func() {
		var sum float64
		for _, l := range locs {
			for _, s := range sites {
				sum += geo.DistanceKm(l.Loc, s)
			}
		}
		probeSink += sum
	}), "ns")
	b.tr.end(sp)

	sp = b.tr.start("probe.anycastnet")
	b.add("anycastnet.closest_site_ns", sweepNs(len(locs)*len(letters), func() {
		var sum float64
		for _, d := range letters {
			for _, l := range locs {
				_, km := d.ClosestGlobalSite(l.Loc)
				sum += km
			}
		}
		probeSink += sum
	}), "ns")
	b.tr.end(sp)

	// Route resolution on fresh deployments: every call is a cache miss,
	// resolved serially from this goroutine.
	sp = b.tr.start("probe.bgp")
	srcs := ditl.UniqueSources(w.Pop())
	var routeNs time.Duration
	calls := 0
	for _, d := range letters {
		fresh, err := anycastnet.NewDeployment(w.Graph(), d.Name, d.Sites)
		if err != nil {
			b.fail("probe.bgp", err)
			continue
		}
		t0 := time.Now()
		for _, src := range srcs {
			if rt, ok := fresh.Route(src); ok {
				probeSink += float64(rt.PathLen)
			}
		}
		routeNs += time.Since(t0)
		calls += len(srcs)
	}
	b.tr.end(sp)
	if calls > 0 {
		b.add("bgp.route_ns", float64(routeNs.Nanoseconds())/float64(calls), "ns")
	}

	if _, ok := b.res.metric("capture.emit_ns_per_pkt"); ok {
		return
	}
	sp = b.tr.start("probe.capture")
	c := w.Campaign()
	var emit, decode time.Duration
	var pkts, nbytes int
	var buf bytes.Buffer
	for li := range c.Letters {
		buf.Reset()
		esp := b.tr.start("capture.emit")
		n, err := c.EmitSiteCaptureCtx(b.ctx, &buf, li, 0, defaultPackets, captureSeed(b.opts.seed))
		emit += b.tr.end(esp)
		if err != nil {
			b.fail("probe.capture", err)
			continue
		}
		dsp := b.tr.start("capture.decode")
		s, err := ditl.SummarizeCapture(bytes.NewReader(buf.Bytes()))
		decode += b.tr.end(dsp)
		if err == nil && s.Packets != n {
			err = fmt.Errorf("decoded %d of %d packets", s.Packets, n)
		}
		if err != nil {
			b.fail("probe.capture", err)
			continue
		}
		pkts += n
		nbytes += buf.Len()
	}
	b.tr.end(sp)
	addCaptureLayer(b, emit, decode, pkts, nbytes)
}

// addCaptureLayer reports the capture layers' per-packet costs.
func addCaptureLayer(b *bench, emit, decode time.Duration, pkts, nbytes int) {
	if pkts == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no capture packets to measure")
		pkts = 1
	}
	b.add("capture.emit_ns_per_pkt", float64(emit.Nanoseconds())/float64(pkts), "ns")
	b.add("capture.decode_ns_per_pkt", float64(decode.Nanoseconds())/float64(pkts), "ns")
	b.add("capture.bytes_per_pkt", float64(nbytes)/float64(pkts), "bytes")
}
