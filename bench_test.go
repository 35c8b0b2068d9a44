// Package repro_test is the benchmark harness: one benchmark per paper
// table and figure (Tables 1–2, Figures 4–13), plus ablation benchmarks
// that vary one model knob at a time (memory-level parallelism, L1 set
// count, FR-FCFS depth, PCby threshold, rinser capacity, channel
// interleave) and report the simulated execution time.
//
// The figure benchmarks share two simulation matrices (static policies
// and the full variant set) computed once per `go test -bench` process at
// a reduced scale; each benchmark then reports its figure's headline
// numbers as custom metrics. Use cmd/micache for full-scale runs and
// printed tables.
package repro_test

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// cachePortFunc adapts a func to cache.Port for microbenchmarks.
type cachePortFunc func(*mem.Request)

func (f cachePortFunc) Submit(r *mem.Request) { f(r) }

// newBenchCache builds a small cache instance for hit-path benchmarks.
func newBenchCache(sim *event.Sim, lower cache.Port) *cache.Cache {
	return cache.New(cache.Config{
		Name: "bench", Sets: 64, Ways: 8,
		HitLatency: 4, LookupLatency: 1, FillLatency: 1,
		MSHRs: 16, BypassEntries: 32, PortsPerCycle: 4,
	}, sim, lower)
}

// benchScale keeps whole-matrix benchmarks in the tens of seconds.
const benchScale = workloads.Scale(0.15)

func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.GPU.CUs = 32
	cfg.L2.SizeBytes = 1 << 20 // keep footprint:capacity regimes at benchScale
	return cfg
}

var (
	staticOnce sync.Once
	staticM    *core.Matrix
	allOnce    sync.Once
	allM       *core.Matrix
)

func staticMatrix(b *testing.B) *core.Matrix {
	b.Helper()
	staticOnce.Do(func() {
		// Built through the parallel path (Workers=0 → GOMAXPROCS);
		// results are deterministic regardless of worker count.
		rs, err := core.RunMatrix(benchConfig(), core.StaticVariants(), workloads.All(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
		staticM = core.NewMatrix(rs)
	})
	if staticM == nil {
		b.Fatal("static matrix unavailable")
	}
	return staticM
}

func allMatrix(b *testing.B) *core.Matrix {
	b.Helper()
	allOnce.Do(func() {
		rs, err := core.RunMatrix(benchConfig(), core.AllVariants(), workloads.All(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
		allM = core.NewMatrix(rs)
	})
	if allM == nil {
		b.Fatal("full matrix unavailable")
	}
	return allM
}

// renderFig regenerates figure n from matrix m on every iteration and
// reports the named per-workload values as metrics.
func renderFig(b *testing.B, m *core.Matrix, n int, metrics map[string][2]string) {
	cfg := benchConfig()
	figs := report.Figures(cfg.GPUClockMHz)
	fig := figs[n]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.RenderFigure(io.Discard, fig, m, false)
	}
	b.StopTimer()
	for name, wc := range metrics {
		b.ReportMetric(fig.Value(m, wc[0], wc[1]), name)
	}
}

// --- Tables ---

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		report.RenderTable1(io.Discard, cfg)
	}
}

func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.RenderTable2(io.Discard, benchScale)
	}
	b.ReportMetric(float64(len(workloads.All())), "workloads")
}

// --- Figures 4–5: bandwidth characterization (CacheR) ---

func BenchmarkFig4GVOPS(b *testing.B) {
	m := staticMatrix(b)
	renderFig(b, m, 4, map[string][2]string{
		"SGEMM_gvops": {"SGEMM", "CacheR"},
		"FwAct_gvops": {"FwAct", "CacheR"},
	})
}

func BenchmarkFig5GMRs(b *testing.B) {
	m := staticMatrix(b)
	renderFig(b, m, 5, map[string][2]string{
		"FwAct_gmrs":  {"FwAct", "CacheR"},
		"FwSoft_gmrs": {"FwSoft", "CacheR"},
	})
}

// --- Figures 6–9: static policy comparison ---

func BenchmarkFig6ExecTime(b *testing.B) {
	m := staticMatrix(b)
	renderFig(b, m, 6, map[string][2]string{
		"FwAct_CacheR_norm":  {"FwAct", "CacheR"},
		"BwBN_CacheRW_norm":  {"BwBN", "CacheRW"},
		"SGEMM_CacheRW_norm": {"SGEMM", "CacheRW"},
	})
}

func BenchmarkFig7MemDemand(b *testing.B) {
	m := staticMatrix(b)
	renderFig(b, m, 7, map[string][2]string{
		"FwFc_CacheR_demand":  {"FwFc", "CacheR"},
		"FwAct_CacheR_demand": {"FwAct", "CacheR"},
	})
}

func BenchmarkFig8CacheStalls(b *testing.B) {
	m := staticMatrix(b)
	renderFig(b, m, 8, map[string][2]string{
		"FwAct_Uncached_stalls": {"FwAct", "Uncached"},
		"FwAct_CacheRW_stalls":  {"FwAct", "CacheRW"},
	})
}

func BenchmarkFig9RowHits(b *testing.B) {
	m := staticMatrix(b)
	renderFig(b, m, 9, map[string][2]string{
		"FwAct_Uncached_rowhit": {"FwAct", "Uncached"},
		"FwAct_CacheRW_rowhit":  {"FwAct", "CacheRW"},
	})
}

// --- Figures 10–13: optimization stack ---

func BenchmarkFig10Optimizations(b *testing.B) {
	m := allMatrix(b)
	renderFig(b, m, 10, map[string][2]string{
		"FwAct_PCby_vs_best": {"FwAct", "CacheRW-PCby"},
		"BwBN_PCby_vs_best":  {"BwBN", "CacheRW-PCby"},
	})
}

func BenchmarkFig11OptMemDemand(b *testing.B) {
	m := allMatrix(b)
	renderFig(b, m, 11, map[string][2]string{
		"FwFc_PCby_demand": {"FwFc", "CacheRW-PCby"},
	})
}

func BenchmarkFig12OptStalls(b *testing.B) {
	m := allMatrix(b)
	renderFig(b, m, 12, map[string][2]string{
		"FwAct_AB_stalls": {"FwAct", "CacheRW-AB"},
	})
}

func BenchmarkFig13OptRowHits(b *testing.B) {
	m := allMatrix(b)
	renderFig(b, m, 13, map[string][2]string{
		"BwAct_CR_rowhit": {"BwAct", "CacheRW-CR"},
	})
}

// --- Matrix throughput ---

// matrixBenchSpecs is a small spec subset so per-iteration matrix runs
// stay around a second.
func matrixBenchSpecs(b *testing.B) []workloads.Spec {
	b.Helper()
	var specs []workloads.Spec
	for _, name := range []string{"FwSoft", "BwSoft", "FwPool", "BwPool"} {
		s, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// BenchmarkRunMatrixSequential is the Workers=1 reference for the
// parallel speedup trajectory.
func BenchmarkRunMatrixSequential(b *testing.B) {
	cfg := benchConfig()
	specs := matrixBenchSpecs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunMatrixWith(cfg, core.StaticVariants(), specs, benchScale,
			core.RunMatrixOpts{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMatrixParallel runs the same matrix across GOMAXPROCS
// workers with a persistent SystemPool, the configuration a sweep or
// long-lived harness would use: after the first iteration warms the
// pool, cells run on reset systems and system construction disappears
// from the profile. On multicore hosts ns/op should approach the
// sequential time divided by the core count.
func BenchmarkRunMatrixParallel(b *testing.B) {
	cfg := benchConfig()
	specs := matrixBenchSpecs(b)
	pool := core.NewSystemPool(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunMatrixWith(cfg, core.StaticVariants(), specs, benchScale,
			core.RunMatrixOpts{Pool: pool}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMatrixWorkers sweeps the worker count on a pooled matrix,
// exposing the scaling curve of the lock-free aggregation path: with
// per-worker totals slabs and slot-array results there is no shared
// write on the per-cell path, so on multicore hosts ns/op should fall
// near-linearly until the matrix runs out of cells or the host out of
// cores. (On a single-core host all counts collapse to the sequential
// time.)
func BenchmarkRunMatrixWorkers(b *testing.B) {
	cfg := benchConfig()
	specs := matrixBenchSpecs(b)
	for _, workers := range []int{1, 2, 4, 8, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			pool := core.NewSystemPool(cfg)
			var tot stats.Snapshot
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunMatrixWith(cfg, core.StaticVariants(), specs, benchScale,
					core.RunMatrixOpts{Workers: workers, Pool: pool, TotalsOut: &tot}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tot.Cycles), "sim_cycles")
		})
	}
}

// BenchmarkRunMatrixTiles sweeps the new topology axis: the same pooled
// matrix on a monolithic system and on 2- and 4-tile crossbar systems.
// The tiles=1 case must track BenchmarkRunMatrixParallel (the lowering
// is zero-cost); the multi-tile counts expose the NoC's per-hop event
// overhead and the sliced-L2 hit-rate shift on identical work.
func BenchmarkRunMatrixTiles(b *testing.B) {
	specs := matrixBenchSpecs(b)
	for _, tiles := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("tiles=%d", tiles), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Topology.Tiles = tiles
			pool := core.NewSystemPool(cfg)
			var tot stats.Snapshot
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunMatrixWith(cfg, core.StaticVariants(), specs, benchScale,
					core.RunMatrixOpts{Pool: pool, TotalsOut: &tot}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tot.Cycles), "sim_cycles")
		})
	}
}

// BenchmarkRunMatrixParallelColdStart is the no-shared-pool reference:
// every iteration uses a transient pool scoped to the call, so each
// variant's first cell pays full system construction. The allocs/op gap
// to BenchmarkRunMatrixParallel is the cold-start cost the pool removes.
func BenchmarkRunMatrixParallelColdStart(b *testing.B) {
	cfg := benchConfig()
	specs := matrixBenchSpecs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunMatrixWith(cfg, core.StaticVariants(), specs, benchScale,
			core.RunMatrixOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- System lifecycle (cold construction vs pooled reset) ---

// BenchmarkNewSystem pins the cold-start cost of building one fully
// wired system — the price every matrix cell used to pay, and the one
// BenchmarkSystemReset shows the pool avoiding.
func BenchmarkNewSystem(b *testing.B) {
	cfg := benchConfig()
	v, err := core.VariantByLabel("CacheRW-PCby")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSystem(cfg, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemReset pins the cost of returning a used system to its
// cold state. The contract is zero allocations: Reset only clears and
// truncates what construction and the run already allocated.
func BenchmarkSystemReset(b *testing.B) {
	cfg := benchConfig()
	v, err := core.VariantByLabel("CacheRW-PCby")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(cfg, v)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workloads.ByName("FwSoft")
	if err != nil {
		b.Fatal(err)
	}
	sys.Run(spec.Build(benchScale))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Reset()
	}
}

// BenchmarkSystemResetRun measures one full pooled cell — reset plus
// re-run — for direct comparison with BenchmarkEndToEndSmallWorkload
// (which builds a fresh system per run).
func BenchmarkSystemResetRun(b *testing.B) {
	cfg := benchConfig()
	v, err := core.VariantByLabel("CacheRW")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(cfg, v)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workloads.ByName("FwSoft")
	if err != nil {
		b.Fatal(err)
	}
	w := spec.Build(benchScale)
	sys.Run(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Reset()
		sys.Run(w)
	}
}

// --- Single-cell benchmarks ---

// BenchmarkRunOneCell pins the cost of one hot simulation cell — the
// latency a single-cell request (micache -workload, micached /run miss)
// pays on a warm system. Two sizes: the paper's
// CM workload at scale 0.3 on the full Table 1 machine (the realistic
// hot cell; CM's conv GEMM dims are scale-insensitive, so it stays a
// multi-second cell), and a CI-sized FwSoft cell on the reduced bench
// machine that keeps the bench-smoke workflow's iteration sub-second.
func BenchmarkRunOneCell(b *testing.B) {
	v, err := core.VariantByLabel("CacheRW")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		workload string
		cfg      core.Config
		scale    workloads.Scale
	}{
		{"CM-0.3", "CM", core.DefaultConfig(), 0.3},
		{"FwSoft-ci", "FwSoft", benchConfig(), benchScale},
	} {
		b.Run(tc.name, func(b *testing.B) {
			spec, err := workloads.ByName(tc.workload)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := core.NewSystem(tc.cfg, v)
			if err != nil {
				b.Fatal(err)
			}
			w := spec.Build(tc.scale)
			sys.Run(w) // warm capacities so the loop is steady-state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Reset()
				if _, err := sys.Run(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Component microbenchmarks (simulator throughput) ---
//
// These track the zero-allocation hot-path contract: the event engine
// must not allocate per event, and the cache hit path must not allocate
// beyond the caller's own request object. Run with -benchmem; a rise in
// allocs/op here is a regression.

func BenchmarkEventEngine(b *testing.B) {
	sim := event.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			sim.Schedule(1, tick)
		}
	}
	b.ReportAllocs()
	sim.Schedule(1, tick)
	sim.Run()
}

// BenchmarkEventEngineMixed exercises the heap with a fan of pending
// events rather than a single chain, so sift costs at realistic queue
// depths show up in the trajectory.
func BenchmarkEventEngineMixed(b *testing.B) {
	sim := event.New()
	const fan = 256
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			// Vary the delay so events interleave across cycles.
			sim.Schedule(event.Cycle(n%7+1), tick)
		}
	}
	b.ReportAllocs()
	for i := 0; i < fan && i < b.N; i++ {
		n++
		sim.Schedule(event.Cycle(i%13+1), tick)
	}
	sim.Run()
}

func BenchmarkCacheHitPath(b *testing.B) {
	// Steady-state hit throughput of one cache instance. The single
	// alloc/op is the benchmark's own request literal; the cache side
	// is allocation-free.
	sim := event.New()
	sink := cachePortFunc(func(r *mem.Request) {
		if r.Done != nil {
			sim.Schedule(10, r.Done)
		}
	})
	c := newBenchCache(sim, sink)
	c.Submit(&mem.Request{ID: 1, Line: 0x1000, Kind: mem.Load})
	sim.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(&mem.Request{ID: uint64(i), Line: 0x1000, Kind: mem.Load})
		sim.Run()
	}
}

// BenchmarkCacheHitPathSteady reuses one request object across
// iterations, exposing the cache's own allocation count (target: zero).
func BenchmarkCacheHitPathSteady(b *testing.B) {
	sim := event.New()
	sink := cachePortFunc(func(r *mem.Request) {
		if r.Done != nil {
			sim.Schedule(10, r.Done)
		}
	})
	c := newBenchCache(sim, sink)
	req := &mem.Request{ID: 1, Line: 0x1000, Kind: mem.Load}
	c.Submit(req)
	sim.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ID = uint64(i)
		c.Submit(req)
		sim.Run()
	}
}

func BenchmarkDRAMStream(b *testing.B) {
	sim := event.New()
	d := dram.New(dram.Default(), sim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Submit(&mem.Request{ID: uint64(i), Line: mem.Addr(i * mem.LineSize), Kind: mem.Load})
		if i%256 == 255 {
			sim.Run()
		}
	}
	sim.Run()
}

func BenchmarkEndToEndSmallWorkload(b *testing.B) {
	spec, err := workloads.ByName("FwSoft")
	if err != nil {
		b.Fatal(err)
	}
	v, err := core.VariantByLabel("CacheRW")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunOne(cfg, v, spec, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}
