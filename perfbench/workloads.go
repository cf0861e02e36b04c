package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"anycastctx"
	"anycastctx/internal/check"
	"anycastctx/internal/ditl"
	"anycastctx/internal/scenario"
	"anycastctx/internal/stage"
	"anycastctx/internal/world"
)

// defaultPackets caps each site capture of the captures workload.
const defaultPackets = 2000

// captureSeed is the emission seed for a world seed (the one cmd/ditlgen
// uses).
func captureSeed(seed int64) int64 { return seed * 31 }

// checkWorld runs every invariant checker on w.
func checkWorld(b *bench, w *world.World) error {
	if vs := check.Run(b.ctx, w); len(vs) > 0 {
		return errors.New(check.Render(vs, len(check.All())))
	}
	return nil
}

// paperCold regenerates every paper experiment, in registry order, on a
// world built cold at scale 1 — what `experiments -run all` does.
type paperCold struct {
	expMs map[string][]float64 // traced phase, by experiment
}

func (*paperCold) defaultScale() float64 { return 1 }
func (*paperCold) setupReps() int        { return 3 }

// minPasses is two so that run_s is not one pass's luck on a shared
// machine.
func (*paperCold) minPasses() int { return 2 }

func (*paperCold) prepare(*bench) (func(), error) { return func() {}, nil }

func (*paperCold) config(b *bench) world.Config {
	return world.Config{Seed: b.opts.seed, Scale: b.opts.scale}
}

// stages is the union of every experiment's Needs: what `-run all`
// demands before its first experiment.
func (*paperCold) stages() []stage.ID {
	var ids []stage.ID
	seen := map[stage.ID]bool{}
	for _, e := range anycastctx.Experiments() {
		for _, id := range e.Needs {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	return ids
}

func (*paperCold) verify(*bench, *world.World) {}

func (p *paperCold) pass(b *bench, w *world.World) {
	for _, e := range anycastctx.Experiments() {
		var r anycastctx.Result
		d, ok := b.op("exp."+e.ID, func() (err error) {
			r, err = anycastctx.RunExperimentCtx(b.ctx, w, e.ID)
			return err
		})
		if !ok {
			continue
		}
		if b.tr.on {
			if p.expMs == nil {
				p.expMs = map[string][]float64{}
			}
			p.expMs[e.ID] = append(p.expMs[e.ID], ms(d))
		}
		if err := b.digest("exp."+e.ID, []byte(r.Measured), []byte{0}, []byte(r.Output)); err != nil {
			b.fail("exp."+e.ID, err)
		}
	}
}

func (*paperCold) finish(b *bench, w *world.World) {
	b.check("world.invariants", func() error { return checkWorld(b, w) })
}

func (p *paperCold) report(b *bench, traced bool) {
	if !traced {
		return
	}
	for _, e := range anycastctx.Experiments() {
		b.add("exp."+e.ID+"_ms", median(p.expMs[e.ID]), "ms")
	}
}

// whatifWarm evaluates the builtin what-if scenarios against a base
// world loaded warm from an artifact store that a separate process
// filled. One operation is an incremental scenario.Eval plus the
// result's Report; one pass is a round of every builtin on a fresh
// baseline.
type whatifWarm struct {
	store            string
	evalMs, reportMs map[string][]float64 // traced phase, by scenario
}

func (*whatifWarm) defaultScale() float64 { return 1 }
func (*whatifWarm) setupReps() int        { return 5 }

// minPasses gives op_p90_ms at least ten samples beyond it.
func (*whatifWarm) minPasses() int { return 15 }

// prepare fills a fresh artifact store with the code under test, in a
// child process so the fill's compute and memory stay out of this one's
// figures. The store is deleted at exit: one reused across commits would
// serve another commit's artifacts.
func (ww *whatifWarm) prepare(b *bench) (func(), error) {
	tmp := filepath.Join(b.opts.workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	if err := fillStore(dir, b.opts.seed, b.opts.scale); err != nil {
		cleanup()
		return nil, err
	}
	ww.store = dir
	return cleanup, nil
}

func (ww *whatifWarm) config(b *bench) world.Config {
	return world.Config{Seed: b.opts.seed, Scale: b.opts.scale, CacheDir: ww.store}
}

func (*whatifWarm) stages() []stage.ID { return world.ClassicStages() }

// verify evaluates every builtin once, untimed, and runs the invariant
// checkers on each mutated world.
func (*whatifWarm) verify(b *bench, w *world.World) {
	bl := scenario.NewBaseline(w)
	for _, spec := range scenario.Builtins() {
		b.check("scenario."+spec.Name+".verify", func() error {
			res, err := scenario.Eval(b.ctx, bl, spec, scenario.Options{})
			if err != nil {
				return err
			}
			if err := b.digest("scenario."+spec.Name, []byte(res.Report(b.ctx))); err != nil {
				return err
			}
			return checkWorld(b, res.World)
		})
	}
}

func (ww *whatifWarm) pass(b *bench, w *world.World) {
	bl := scenario.NewBaseline(w)
	for _, spec := range scenario.Builtins() {
		var rep string
		_, ok := b.op("scenario."+spec.Name, func() error {
			sp := b.tr.start("scenario.eval." + spec.Name)
			res, err := scenario.Eval(b.ctx, bl, spec, scenario.Options{})
			de := b.tr.end(sp)
			if err != nil {
				return err
			}
			sp = b.tr.start("scenario.report." + spec.Name)
			rep = res.Report(b.ctx)
			dr := b.tr.end(sp)
			if b.tr.on {
				if ww.evalMs == nil {
					ww.evalMs, ww.reportMs = map[string][]float64{}, map[string][]float64{}
				}
				ww.evalMs[spec.Name] = append(ww.evalMs[spec.Name], ms(de))
				ww.reportMs[spec.Name] = append(ww.reportMs[spec.Name], ms(dr))
			}
			return nil
		})
		if !ok {
			continue
		}
		if err := b.digest("scenario."+spec.Name, []byte(rep)); err != nil {
			b.fail("scenario."+spec.Name, err)
		}
	}
}

// finish fails the run if any persisted stage was computed rather than
// loaded from the store.
func (*whatifWarm) finish(b *bench, w *world.World) {
	b.check("store.hygiene", func() error {
		for _, st := range w.StageStatuses() {
			if st.Persisted && st.Outcome == "computed" {
				return fmt.Errorf("stage %s was computed, not loaded from the store", st.ID)
			}
		}
		return nil
	})
}

func (ww *whatifWarm) report(b *bench, traced bool) {
	if !traced {
		for _, q := range []string{"p50", "p90"} {
			if m, ok := b.res.metric("op_" + q + "_ms"); ok {
				b.add("scenario_"+q+"_ms", m.Value, "ms")
			}
		}
		return
	}
	for _, spec := range scenario.Builtins() {
		b.add("scenario.eval_ms."+spec.Name, median(ww.evalMs[spec.Name]), "ms")
		b.add("scenario.report_ms."+spec.Name, median(ww.reportMs[spec.Name]), "ms")
	}
}

// fillStore runs this binary as a child that builds every stage of the
// world and saves each persisted one into dir, then waits for it.
func fillStore(dir string, seed int64, scale float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-seed", strconv.FormatInt(seed, 10),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64))
	cmd.Env = append(os.Environ(), fillEnv+"="+dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("filling the artifact store: %w", err)
	}
	return nil
}

// fillMain is the child side of fillStore.
func fillMain(dir string, args []string) error {
	fs := flag.NewFlagSet("fill", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "world seed")
	scale := fs.Float64("scale", 1, "world scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := world.New(world.Config{Seed: *seed, Scale: *scale, CacheDir: dir})
	if err != nil {
		return err
	}
	return w.Demand(context.Background(), stage.All()...)
}

// captures emits the sampled capture of every site of every letter into
// memory and decodes it back, on a world of scale 0.25 whose only demand
// is the DITL campaign. One operation is one site.
type captures struct {
	pkts                 int // packets emitted in the last pass
	emit, decode         time.Duration
	tracedPkts, tracedSz int
}

func (*captures) defaultScale() float64 { return 0.25 }
func (*captures) setupReps() int        { return 5 }
func (*captures) minPasses() int        { return 1 }

func (*captures) prepare(*bench) (func(), error) { return func() {}, nil }

func (*captures) config(b *bench) world.Config {
	return world.Config{Seed: b.opts.seed, Scale: b.opts.scale}
}

func (*captures) stages() []stage.ID { return []stage.ID{stage.Campaign} }

func (*captures) verify(*bench, *world.World) {}

func (cp *captures) pass(b *bench, w *world.World) {
	c := w.Campaign()
	seed := captureSeed(b.opts.seed)
	var buf bytes.Buffer
	cp.pkts = 0
	for li, d := range c.Letters {
		for site := range d.Sites {
			name := fmt.Sprintf("capture.%s.%d", c.LetterNames[li], site)
			var n int
			var sum *ditl.CaptureSummary
			_, ok := b.op("capture", func() (err error) {
				buf.Reset()
				sp := b.tr.start("capture.emit")
				n, err = c.EmitSiteCaptureCtx(b.ctx, &buf, li, site, b.opts.packets, seed)
				de := b.tr.end(sp)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				raw := buf.Bytes()
				if b.opts.mangle != nil {
					raw = b.opts.mangle(raw)
				}
				sp = b.tr.start("capture.decode")
				sum, err = ditl.SummarizeCapture(bytes.NewReader(raw))
				dd := b.tr.end(sp)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if b.tr.on {
					cp.emit += de
					cp.decode += dd
					cp.tracedPkts += n
					cp.tracedSz += buf.Len()
				}
				return nil
			})
			if !ok {
				continue
			}
			cp.pkts += n
			err := b.digest(name, buf.Bytes())
			if err == nil && (sum.Packets != n || sum.RecordsRead != n || sum.Skipped() != 0 ||
				sum.DroppedRecords != 0 || sum.SkippedBytes != 0) {
				err = fmt.Errorf("emitted %d packets, decoded %d of %d records read "+
					"(%d skipped, %d dropped, %d bytes skipped)",
					n, sum.Packets, sum.RecordsRead, sum.Skipped(), sum.DroppedRecords, sum.SkippedBytes)
			}
			if err != nil {
				b.fail(name, err)
			}
		}
	}
}

func (*captures) finish(*bench, *world.World) {}

func (cp *captures) report(b *bench, traced bool) {
	if traced {
		addCaptureLayer(b, cp.emit, cp.decode, cp.tracedPkts, cp.tracedSz)
		return
	}
	b.add("capture_pkts", float64(cp.pkts), "count")
	if m, ok := b.res.metric("run_s"); ok && m.Value > 0 {
		b.add("capture_pkts_per_s", float64(cp.pkts)/m.Value, "pkt/s")
	}
}
