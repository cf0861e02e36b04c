package anycastctx

// Artifact-store benchmarks: the cold/warm pairs record what the
// content-addressed stage cache buys. Cold builds compute every stage
// from scratch; warm runs replay the persisted stages (rates, routes,
// campaign, join, telemetry) from a primed -cache-dir, materializing
// everything a full experiment or scenario run touches. The cold-vs-warm
// byte-identity oracle (internal/world and TestWarmWorldMatchesCold)
// guarantees both paths produce identical worlds, so each pair isolates
// pure recomputation cost.

import (
	"context"
	"os"
	"sync"
	"testing"

	"anycastctx/internal/scenario"
	"anycastctx/internal/stage"
	"anycastctx/internal/world"
)

// warmDir holds the shared primed artifact directory for the warm-path
// benchmarks. Priming happens once, outside every timer.
var (
	warmDir     string
	warmDirOnce sync.Once
	warmDirErr  error
)

func warmCacheDir(b *testing.B) string {
	b.Helper()
	warmDirOnce.Do(func() {
		// Not b.TempDir: the directory must outlive the first benchmark
		// so every warm benchmark shares the primed store.
		dir, err := os.MkdirTemp("", "anycastctx-bench-cache-")
		if err != nil {
			warmDirErr = err
			return
		}
		warmDir = dir
		w, err := world.New(warmCfg())
		if err != nil {
			warmDirErr = err
			return
		}
		warmDirErr = w.Demand(context.Background(), stage.Join, stage.ServerLogs, stage.ClientRows)
	})
	if warmDirErr != nil {
		b.Fatal(warmDirErr)
	}
	return warmDir
}

func warmCfg() world.Config {
	return world.Config{Seed: 1, Scale: benchScale(), CacheDir: warmDir}
}

func coldCfg() world.Config {
	return world.Config{Seed: 1, Scale: benchScale()}
}

// buildFull materializes the classic world plus the join and telemetry
// stages — everything a full experiment run demands.
func buildFull(b *testing.B, cfg world.Config) *world.World {
	b.Helper()
	w, err := world.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	full := append(world.ClassicStages(), stage.Join, stage.ServerLogs, stage.ClientRows)
	if err := w.Demand(context.Background(), full...); err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkWorldColdBuild computes every stage from scratch — the
// monolithic build cost every experiment run used to pay.
func BenchmarkWorldColdBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buildFull(b, coldCfg())
	}
}

// BenchmarkWorldWarmLoad replays the same stages from the artifact store.
func BenchmarkWorldWarmLoad(b *testing.B) {
	warmCacheDir(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildFull(b, warmCfg())
	}
}

// benchScenarioStart measures the what-if end-to-end cost from nothing to
// an evaluated single-site withdrawal: world (cold or warm), baseline,
// incremental evaluation.
func benchScenarioStart(b *testing.B, cfg world.Config) {
	spec, ok := scenario.Builtin("withdraw-f-site")
	if !ok {
		b.Fatal("builtin withdraw-f-site missing")
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		w, err := world.New(cfg)
		if err == nil {
			err = w.Demand(ctx, world.ClassicStages()...)
		}
		if err != nil {
			b.Fatal(err)
		}
		base := scenario.NewBaseline(w)
		if _, err := scenario.Eval(ctx, base, spec, scenario.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioColdStart evaluates a single-site withdrawal starting
// from nothing: full world compute, then the incremental evaluation.
func BenchmarkScenarioColdStart(b *testing.B) {
	benchScenarioStart(b, coldCfg())
}

// BenchmarkScenarioWarmStart evaluates the same withdrawal with the world
// replayed from the artifact store — the interactive what-if loop the
// store exists for.
func BenchmarkScenarioWarmStart(b *testing.B) {
	warmCacheDir(b)
	b.ResetTimer()
	benchScenarioStart(b, warmCfg())
}
