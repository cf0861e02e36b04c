package bgp

import (
	"context"
	"testing"
	"time"

	"anycastctx/internal/artifact"
	"anycastctx/internal/topology"
)

// codecWorld returns a small graph, its deployment's sites and a warmed
// resolver's AppendState payload over a few eyeballs (a small seed keeps
// the fuzzer's input minimization fast).
func codecWorld(t testing.TB) (*topology.Graph, []Site, []byte) {
	t.Helper()
	g := buildWorld(t, 5)
	sites := deploySites(g, 6, 0.3)
	r, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	srcs := codecSources(g)
	r.WarmCtx(context.Background(), srcs)
	w := artifact.NewWriter(1 << 12)
	if err := r.AppendState(w, srcs); err != nil {
		t.Fatal(err)
	}
	return g, sites, w.Bytes()
}

func codecSources(g *topology.Graph) []topology.ASN { return g.Eyeballs()[:12] }

func TestRestoreStateRoundTrip(t *testing.T) {
	g, sites, blob := codecWorld(t)
	r, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	rd := artifact.NewReader(blob)
	if err := r.RestoreState(rd); err != nil {
		t.Fatal(err)
	}
	if err := rd.Done(); err != nil {
		t.Fatal(err)
	}
	w := artifact.NewWriter(len(blob))
	if err := r.AppendState(w, codecSources(g)); err != nil {
		t.Fatal(err)
	}
	if string(w.Bytes()) != string(blob) {
		t.Fatal("decode→encode changed the payload")
	}
}

// TestRestoreStateHugeCount: a count prefix claiming 2^40 transit tables
// in a 17-byte payload must fail at once, not loop allocating a table
// row per claimed entry.
func TestRestoreStateHugeCount(t *testing.T) {
	g, sites, _ := codecWorld(t)
	r, err := NewResolver(g, sites)
	if err != nil {
		t.Fatal(err)
	}
	w := artifact.NewWriter(17)
	w.U32(uint32(len(sites)))
	w.U64(1 << 40)
	w.I32(int32(g.Transits()[0]))
	w.U8(1)
	if len(w.Bytes()) != 17 {
		t.Fatalf("payload is %d bytes", len(w.Bytes()))
	}
	done := make(chan error, 1)
	go func() { done <- r.RestoreState(artifact.NewReader(w.Bytes())) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("corrupt table count accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RestoreState still running after 5s on a 17-byte payload")
	}
}

// FuzzRestoreState: any payload either fails to restore or yields a
// resolver whose cached routes all name valid sites — never a panic, a
// hang or an allocation the payload cannot back.
func FuzzRestoreState(f *testing.F) {
	g, sites, blob := codecWorld(f)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewResolver(g, sites)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RestoreState(artifact.NewReader(data)); err != nil {
			return
		}
		r.ForEachCached(func(src topology.ASN, rt Route, ok bool) {
			if ok && (rt.SiteID < 0 || rt.SiteID >= len(sites)) {
				t.Fatalf("AS%d: restored route names site %d of %d", src, rt.SiteID, len(sites))
			}
		})
		// Uncached sources resolve against the restored tables.
		for _, e := range g.Eyeballs()[:8] {
			if rt, ok := r.Route(e); ok && (rt.SiteID < 0 || rt.SiteID >= len(sites)) {
				t.Fatalf("AS%d: route names site %d of %d", e, rt.SiteID, len(sites))
			}
		}
	})
}
