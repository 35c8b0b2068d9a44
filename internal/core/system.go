package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Tile is one GPU tile's private memory hierarchy: the L1s of the CUs
// it owns, its slice of the L2, its local HBM stack, and its policy
// state (the predictor and rinser are per tile, like the L2 slice they
// advise). A single-tile system has exactly one Tile holding the whole
// hierarchy.
type Tile struct {
	L1s       []*cache.Cache
	L2        *cache.Banked
	DRAM      *dram.Controller
	Predictor *policy.PCPredictor
	Rinser    *policy.RowRinser
}

// System is one fully wired simulated APU instance. Build one per run:
// caches and predictors carry state between workloads, and experiments
// must start cold to be comparable.
//
// Cfg.Topology splits the machine into tiles over an internal/noc
// interconnect. The flat fields (L1s, L2, DRAM, Predictor, Rinser)
// remain the convenient single-tile view — all L1s in CU order, and
// tile 0's L2/DRAM/policy state, which for a single-tile system is the
// whole machine.
type System struct {
	Cfg     Config
	Variant Variant

	Sim *event.Sim

	GPU   *gpu.GPU
	Tiles []Tile
	// Net is the interconnect carrying L2→directory and
	// directory→memory traffic; nil for a single-tile system, whose
	// hand-offs are direct port calls exactly as before topologies
	// existed.
	Net       *noc.Network
	L1s       []*cache.Cache
	L2        *cache.Banked
	DRAM      *dram.Controller
	Directory *coherence.Directory
	Engine    *coherence.Engine
	Predictor *policy.PCPredictor
	Rinser    *policy.RowRinser
}

// hierarchy is the memory-side wiring shared by NewSystem and
// NewMemorySystem: tiles, the directory, and (for multi-tile
// topologies) the interconnect.
type hierarchy struct {
	tiles []Tile
	l1s   []*cache.Cache
	dir   *coherence.Directory
	net   *noc.Network
}

// buildHierarchy wires the memory side for a validated config, every
// component scheduling on sim. The single-tile path reproduces the
// pre-topology construction order byte for byte and builds no network
// objects at all.
func buildHierarchy(cfg *Config, v Variant, sim *event.Sim) *hierarchy {
	topo := cfg.Topology.WithDefaults()
	tiles := topo.Tiles
	h := &hierarchy{tiles: make([]Tile, tiles)}

	if tiles == 1 {
		dctl := dram.New(cfg.DRAM, sim)
		dir := coherence.NewDirectory(sim, dctl, cfg.DirectoryLatency)
		pred := policy.NewPCPredictor(cfg.Predictor)
		dcfg := cfg.DRAM
		rinse := policy.NewRowRinser(dcfg.RowID, cfg.RinserRows)
		l2 := buildL2(cfg, v, 0, 1, sim, dir, pred, rinse)
		l1s := make([]*cache.Cache, cfg.GPU.CUs)
		for i := range l1s {
			l1s[i] = buildL1(cfg, v, i, sim, l2)
		}
		h.tiles[0] = Tile{L1s: l1s, L2: l2, DRAM: dctl, Predictor: pred, Rinser: rinse}
		h.l1s = l1s
		h.dir = dir
		return h
	}

	nodes, edges := noc.Graph(topo.Kind, tiles)
	net, err := noc.NewNetwork(nodes, edges, topo.Link, sim)
	if err != nil {
		// Validate accepted the config and Graph only emits connected
		// shapes, so failing here is an internal wiring error.
		panic(fmt.Sprintf("core: building %s network for %d tiles: %v", topo.Kind, tiles, err))
	}
	h.net = net
	hub := noc.Hub(tiles)

	// Per-tile HBM stacks, reached from the hub across the NoC. The
	// home router below the directory picks a stack by address
	// interleave: HomeLines consecutive cache lines per tile.
	memPorts := make([]cache.Port, tiles)
	for t := 0; t < tiles; t++ {
		dctl := dram.New(cfg.DRAM, sim)
		h.tiles[t].DRAM = dctl
		memPorts[t] = net.Connect(hub, t, dctl)
	}
	homeShift := bits.TrailingZeros64(uint64(topo.HomeLines))
	homeMask := uint64(tiles - 1)
	home := cache.PortFunc(func(req *mem.Request) {
		t := int((mem.LineIndex(req.Line) >> homeShift) & homeMask)
		memPorts[t].Submit(req)
	})
	h.dir = coherence.NewDirectory(sim, home, cfg.DirectoryLatency)

	cpt := cfg.GPU.CUs / tiles
	h.l1s = make([]*cache.Cache, cfg.GPU.CUs)
	for t := 0; t < tiles; t++ {
		pred := policy.NewPCPredictor(cfg.Predictor)
		dcfg := cfg.DRAM
		rinse := policy.NewRowRinser(dcfg.RowID, cfg.RinserRows)
		l2 := buildL2(cfg, v, t, tiles, sim, net.Connect(t, hub, h.dir), pred, rinse)
		l1s := make([]*cache.Cache, cpt)
		for i := range l1s {
			cu := t*cpt + i
			// L1→L2 stays on tile: a same-node Connect lowers to the
			// direct port, keeping the intra-tile hand-off zero-cost
			// while still going through the one link interface.
			l1s[i] = buildL1(cfg, v, cu, sim, net.Connect(t, t, l2))
			h.l1s[cu] = l1s[i]
		}
		h.tiles[t].L1s = l1s
		h.tiles[t].L2 = l2
		h.tiles[t].Predictor = pred
		h.tiles[t].Rinser = rinse
	}
	return h
}

// NewSystem wires a system for one configuration variant. Invalid
// configuration returns an error (it usually comes from user input);
// internal wiring errors panic.
func NewSystem(cfg Config, v Variant) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim := event.New()
	h := buildHierarchy(&cfg, v, sim)

	ports := make([]cache.Port, len(h.l1s))
	for i, l1 := range h.l1s {
		ports[i] = l1
	}
	g := gpu.New(cfg.GPU, sim, ports)
	l2s := make([]*cache.Banked, len(h.tiles))
	for i := range h.tiles {
		l2s[i] = h.tiles[i].L2
	}
	eng := &coherence.Engine{
		PolicyKind:  v.Policy,
		L1s:         h.l1s,
		L2s:         l2s,
		Sim:         sim,
		SyncLatency: cfg.SyncLatency,
	}
	g.Decorate = eng.Decorate
	g.OnKernelDone = eng.KernelBoundary

	sys := &System{
		Cfg: cfg, Variant: v,
		Sim: sim, GPU: g,
		Tiles: h.tiles, Net: h.net,
		L1s: h.l1s, L2: h.tiles[0].L2,
		DRAM: h.tiles[0].DRAM, Directory: h.dir, Engine: eng,
		Predictor: h.tiles[0].Predictor, Rinser: h.tiles[0].Rinser,
	}
	return sys, nil
}

// Reset returns the system to the observable state of a freshly built
// one: clock rewound, caches invalidated, predictor and rinser
// re-seeded, all statistics zeroed. Component object pools and grown
// buffers keep their capacity, so a reset system re-runs a workload with
// none of the cold-start allocations of NewSystem — and, because every
// layer's Reset restores its exact just-built state (including event and
// request-id sequences), the results are byte-identical to a fresh
// system's. TestResetEquivalentToFresh pins that contract per variant.
//
// Reset is intended between completed runs; calling it mid-run drops
// in-flight work (pooled objects still in flight are abandoned to the
// garbage collector, never double-recycled).
func (s *System) Reset() {
	s.Sim.Reset()
	s.GPU.Reset()
	for ti := range s.Tiles {
		t := &s.Tiles[ti]
		for _, l1 := range t.L1s {
			l1.Reset()
		}
		t.L2.Reset()
		t.DRAM.Reset()
		t.Predictor.Reset()
		t.Rinser.Reset()
	}
	s.Directory.Reset()
	s.Engine.Reset()
	if s.Net != nil {
		s.Net.Reset()
	}
}

// Run executes a built workload to completion (including the final
// system-scope flush) and returns the run's statistics. A workload that
// can never finish returns *ErrDeadlock (it used to panic; panics are
// reserved for internal wiring errors). To bound a run — cancellation,
// event or wall-clock budgets, a livelock watchdog — use RunBudgeted.
func (s *System) Run(w workloads.Workload) (stats.Snapshot, error) {
	return s.RunBudgeted(w, Budgets{})
}

// Snapshot assembles the statistics of the run so far. The GPU's
// per-shard counter slabs are summed here, once, rather than on the
// issue path. Multi-tile systems additionally report per-tile and
// per-link counters (Snapshot.Tiles / Snapshot.Links); single-tile
// snapshots leave both nil, preserving the pre-topology layout.
func (s *System) Snapshot(w workloads.Workload) stats.Snapshot {
	gs := s.GPU.Stats()
	snap := stats.Snapshot{
		Cycles:         uint64(s.Sim.Now()),
		VectorOps:      gs.VectorOps,
		GPUMemRequests: gs.MemRequests,
		Kernels:        gs.KernelsRun,
		FootprintBytes: w.FootprintBytes,
	}
	snap.L1 = sumCacheStats(s.L1s)
	for i := range s.Tiles {
		snap.L2.Add(s.Tiles[i].L2.Stats())
		snap.DRAM.Add(s.Tiles[i].DRAM.Stats)
	}
	addTopology(&snap, s.Tiles, s.Net)
	return snap
}

// addTopology fills a snapshot's per-tile and per-link sections for a
// multi-tile system; a single-tile system (net == nil) contributes
// nothing, keeping those slices nil.
func addTopology(snap *stats.Snapshot, tiles []Tile, net *noc.Network) {
	if net == nil {
		return
	}
	snap.Tiles = make([]stats.TileStats, len(tiles))
	for i := range tiles {
		snap.Tiles[i] = stats.TileStats{
			L1:   sumCacheStats(tiles[i].L1s),
			L2:   tiles[i].L2.Stats(),
			DRAM: tiles[i].DRAM.Stats,
		}
	}
	snap.Links = net.LinkStats(nil)
}

// sumCacheStats merges the per-instance counters of one cache level.
// It is the one place the harness folds an L1 slice into a Snapshot;
// System.Snapshot and MemorySystem.Snapshot both use it.
func sumCacheStats(cs []*cache.Cache) stats.CacheStats {
	var out stats.CacheStats
	for _, c := range cs {
		out.Add(c.Stats)
	}
	return out
}

// Totals sums every cell snapshot of a result list into one aggregate
// Snapshot, in deterministic cell order. It allocates nothing: sweeps
// and long-lived harnesses can call it per matrix without GC pressure
// (pinned by TestTotalsAllocationFree).
func Totals(rs []Result) stats.Snapshot {
	var out stats.Snapshot
	for i := range rs {
		out.Add(rs[i].Snap)
	}
	return out
}

// Result is one (workload, variant) measurement.
type Result struct {
	Workload string
	Class    workloads.Class
	Variant  string
	Snap     stats.Snapshot
}

// Equal reports whether two results are identical, snapshot included.
// Result lost comparability when Snapshot gained per-tile slices; the
// determinism tests compare through this instead of ==.
func (r Result) Equal(o Result) bool {
	return r.Workload == o.Workload && r.Class == o.Class &&
		r.Variant == o.Variant && r.Snap.Equal(o.Snap)
}

// RunOne builds a fresh system and runs one workload under one variant.
func RunOne(cfg Config, v Variant, spec workloads.Spec, scale workloads.Scale) (Result, error) {
	return RunOneWith(cfg, v, spec, scale, Budgets{})
}

// RunOneWith is RunOne under explicit Budgets: single-cell callers (the
// CLI's -workload mode, the micached request path) get cancellation and
// budget enforcement without going through the matrix harness.
func RunOneWith(cfg Config, v Variant, spec workloads.Spec, scale workloads.Scale, b Budgets) (Result, error) {
	sys, err := NewSystem(cfg, v)
	if err != nil {
		return Result{}, err
	}
	return runOn(sys, spec, scale, b)
}

// runOn builds spec's workload, runs it on sys under b, and assembles
// the cell Result. It is shared by RunOneWith (fresh systems) and the
// matrix pool.
func runOn(sys *System, spec workloads.Spec, scale workloads.Scale, b Budgets) (Result, error) {
	w := spec.Build(scale)
	if w.Name == "" {
		// Custom specs built outside workloads.All() may not stamp the
		// name; diagnostics should still identify the cell.
		w.Name = spec.Name
	}
	snap, err := sys.RunBudgeted(w, b)
	if err != nil {
		return Result{}, err
	}
	return Result{Workload: spec.Name, Class: spec.Class, Variant: sys.Variant.Label, Snap: snap}, nil
}

// RunMatrixOpts configures RunMatrixWith.
type RunMatrixOpts struct {
	// Workers bounds concurrent cell simulations. Zero (the default)
	// uses GOMAXPROCS; 1 runs the cells sequentially on the calling
	// goroutine, exactly as the original sequential implementation did.
	Workers int
	// Progress, if non-nil, is called after each completed cell with
	// the number of finished cells and the total. Calls are serialized
	// (never concurrent), but with Workers > 1 they come from worker
	// goroutines.
	Progress func(done, total int)
	// Pool, if non-nil, supplies warm systems for the matrix cells and
	// receives them back afterwards, so repeated matrix runs (sweeps,
	// benchmarks) skip system construction entirely. It must have been
	// built with the same Config passed to RunMatrixWith. When nil, a
	// transient pool scoped to the one call is used: cells of the same
	// variant still share (reset) systems instead of rebuilding.
	Pool *SystemPool
	// TotalsOut, if non-nil, receives the sum of every cell snapshot
	// (see Totals). On the parallel path each worker accumulates into
	// its own pre-sized slab slot — no channel, no mutex, no atomics on
	// the per-cell path — and the slabs merge deterministically after
	// the workers join. Snapshot addition is commutative, so the result
	// is identical to the sequential cell-order sum.
	TotalsOut *stats.Snapshot
	// Ctx, if non-nil, cancels the whole matrix: in-flight cells stop
	// cooperatively (their run returns ErrBudgetExceeded wrapping the
	// context error) and unstarted cells are skipped. The first error in
	// cell order is returned, as usual; errors.Is sees the context
	// error through it.
	Ctx context.Context
	// MaxEventsPerCell, if non-zero, bounds each cell's fired-event
	// count; a cell over budget returns ErrBudgetExceeded with partial
	// statistics instead of running forever.
	MaxEventsPerCell uint64
	// CellTimeout, if non-zero, bounds each cell's wall-clock time the
	// same way.
	CellTimeout time.Duration
	// Lookup, if non-nil, is consulted before each cell simulates.
	// Returning ok=true serves the cell from the returned snapshot —
	// no pool Get, no simulation — which is how a serving layer makes
	// sweeps cache-aware: the simulator is deterministic, so a cached
	// snapshot for the same (spec, variant, scale, config) tuple is
	// byte-identical to a fresh run's. Calls may come from worker
	// goroutines concurrently; the callback must be concurrency-safe.
	Lookup func(spec workloads.Spec, v Variant) (stats.Snapshot, bool)
	// OnCell, if non-nil, is called after each successfully completed
	// cell with its Result, whether Lookup served it, and the progress
	// counts — the per-cell identity that Progress's bare (done, total)
	// lacks, so streaming consumers (SSE) can narrate the sweep. Calls
	// are serialized, like Progress, and share its ordering.
	OnCell func(r Result, cached bool, done, total int)
}

// budgets assembles the per-cell Budgets these options request.
func (o RunMatrixOpts) budgets() Budgets {
	return Budgets{Ctx: o.Ctx, MaxEvents: o.MaxEventsPerCell, Timeout: o.CellTimeout}
}

// bounded reports whether any per-cell budget is configured.
func (o RunMatrixOpts) bounded() bool {
	return o.Ctx != nil || o.MaxEventsPerCell != 0 || o.CellTimeout != 0
}

// EffectiveWorkers resolves the worker count these options request,
// before clamping to the matrix size.
func (o RunMatrixOpts) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunMatrix runs every (spec × variant) combination and returns the
// results in spec-major order. It is the data source for every figure.
// Each cell observes a cold system: cells of the same variant reuse a
// pooled System through Reset, which restores the exact just-built
// state. Cells run concurrently across GOMAXPROCS workers; use
// RunMatrixWith to control worker count, observe progress, or share a
// warm SystemPool across calls.
func RunMatrix(cfg Config, vs []Variant, specs []workloads.Spec, scale workloads.Scale) ([]Result, error) {
	return RunMatrixWith(cfg, vs, specs, scale, RunMatrixOpts{})
}

// wrapCellErr labels a cell error with its (workload, variant) unless
// the error already carries that identity — budget and deadlock errors
// name their cell, and double-prefixing them makes the CLI output read
// like two errors.
func wrapCellErr(workload, variant string, err error) error {
	var be *ErrBudgetExceeded
	var dl *ErrDeadlock
	if errors.As(err, &be) || errors.As(err, &dl) {
		return err
	}
	return fmt.Errorf("core: %s under %s: %w", workload, variant, err)
}

// lookupCell consults an optional RunMatrixOpts.Lookup for a cell,
// assembling the full Result around the cached snapshot on a hit.
func lookupCell(lookup func(workloads.Spec, Variant) (stats.Snapshot, bool), spec workloads.Spec, v Variant) (Result, bool) {
	if lookup == nil {
		return Result{}, false
	}
	snap, ok := lookup(spec, v)
	if !ok {
		return Result{}, false
	}
	return Result{Workload: spec.Name, Class: spec.Class, Variant: v.Label, Snap: snap}, true
}

// RunMatrixWith is RunMatrix with explicit options. Each matrix cell
// runs on a pooled System that is observably identical to a fresh cold
// one (see System.Reset), so cells are independent and run in parallel;
// results are returned in the same deterministic spec-major order and
// with identical content regardless of worker count or pooling, and the
// first error in cell order is returned, matching the sequential path.
// A deadlocked cell returns *ErrDeadlock and an over-budget or canceled
// cell *ErrBudgetExceeded (see RunMatrixOpts.Ctx/MaxEventsPerCell/
// CellTimeout), both reachable through errors.As on the returned error.
// A panic inside a cell (an internal wiring error) is re-raised on the
// calling goroutine wrapped in CellPanic, naming the (workload, variant)
// cell it came from.
func RunMatrixWith(cfg Config, vs []Variant, specs []workloads.Spec, scale workloads.Scale, opts RunMatrixOpts) ([]Result, error) {
	type cell struct {
		spec workloads.Spec
		v    Variant
	}
	cells := make([]cell, 0, len(vs)*len(specs))
	for _, spec := range specs {
		for _, v := range vs {
			cells = append(cells, cell{spec: spec, v: v})
		}
	}
	total := len(cells)

	pool := opts.Pool
	if pool == nil {
		pool = NewSystemPool(cfg)
	} else if pool.cfg != cfg {
		return nil, fmt.Errorf("core: RunMatrixWith pool was built for a different Config")
	}

	workers := opts.EffectiveWorkers()
	if workers > total {
		workers = total
	}

	budgets := opts.budgets()

	if workers <= 1 {
		// Sequential path: no goroutines, stop at the first error.
		// Panics are labeled with the cell exactly as on the parallel
		// path, so callers see one behaviour regardless of Workers.
		out := make([]Result, 0, total)
		for i, c := range cells {
			if opts.Ctx != nil {
				if err := opts.Ctx.Err(); err != nil {
					return nil, fmt.Errorf("core: %s under %s skipped: %w", c.spec.Name, c.v.Label, err)
				}
			}
			r, cached := lookupCell(opts.Lookup, c.spec, c.v)
			if !cached {
				var err error
				r, err = func() (Result, error) {
					defer func() {
						if p := recover(); p != nil {
							panic(CellPanic{Workload: c.spec.Name, Variant: c.v.Label, Value: p})
						}
					}()
					return runCell(pool, c.v, c.spec, scale, budgets)
				}()
				if err != nil {
					return nil, wrapCellErr(c.spec.Name, c.v.Label, err)
				}
			}
			out = append(out, r)
			if opts.Progress != nil {
				opts.Progress(i+1, total)
			}
			if opts.OnCell != nil {
				opts.OnCell(r, cached, i+1, total)
			}
		}
		if opts.TotalsOut != nil {
			*opts.TotalsOut = Totals(out)
		}
		return out, nil
	}

	// Parallel path. Every per-cell structure is a pre-sized slot array
	// indexed by cell or worker: a worker's only cross-goroutine traffic
	// per cell is the one atomic work-counter increment. Results, errors,
	// panics, and the per-worker snapshot-aggregation slabs are all
	// written to slots no other goroutine touches until after the join —
	// no channel, no mutex on the hot path. (The optional Progress
	// callback is the documented exception: its calls are serialized
	// under a mutex, which callers opt into by setting it.)
	results := make([]Result, total)
	errs := make([]error, total)
	panics := make([]any, total)
	workerTotals := make([]stats.Snapshot, workers)
	var next atomic.Int64
	var progressMu sync.Mutex
	progressDone := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slab *stats.Snapshot) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				c := cells[i]
				if opts.Ctx != nil && opts.Ctx.Err() != nil {
					// The matrix was canceled: mark this (unstarted)
					// cell and keep claiming, so every remaining slot is
					// accounted for and the join is quick. In-flight
					// cells stop through their own per-cell budget.
					errs[i] = fmt.Errorf("core: %s under %s skipped: %w", c.spec.Name, c.v.Label, opts.Ctx.Err())
					continue
				}
				// Capture panics (e.g. a malformed kernel's diagnostic
				// panic in gpu.launch) instead of crashing the process
				// from an unrecoverable worker goroutine; they are
				// re-raised on the calling goroutine below — wrapped in
				// CellPanic so the failing cell is identifiable from the
				// panic message alone.
				var cellResult Result
				var cached, ok bool
				func() {
					defer func() {
						if p := recover(); p != nil {
							panics[i] = CellPanic{Workload: c.spec.Name, Variant: c.v.Label, Value: p}
						}
					}()
					r, hit := lookupCell(opts.Lookup, c.spec, c.v)
					if !hit {
						var err error
						r, err = runCell(pool, c.v, c.spec, scale, budgets)
						if err != nil {
							errs[i] = wrapCellErr(c.spec.Name, c.v.Label, err)
							return
						}
					}
					results[i] = r
					cellResult, cached, ok = r, hit, true
					if opts.TotalsOut != nil {
						slab.Add(r.Snap)
					}
				}()
				if opts.Progress != nil || opts.OnCell != nil {
					progressMu.Lock()
					progressDone++
					if opts.Progress != nil {
						opts.Progress(progressDone, total)
					}
					if opts.OnCell != nil && ok {
						opts.OnCell(cellResult, cached, progressDone, total)
					}
					progressMu.Unlock()
				}
			}
		}(&workerTotals[w])
	}
	wg.Wait()
	// First-panic, then first-error propagation in cell order, as the
	// sequential path would have reported them.
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if opts.TotalsOut != nil {
		// Deterministic merge after the barrier: worker-index order.
		// Field-wise sums commute, so this equals the sequential
		// cell-order total.
		var agg stats.Snapshot
		for i := range workerTotals {
			agg.Add(workerTotals[i])
		}
		*opts.TotalsOut = agg
	}
	return results, nil
}

// Matrix indexes results by workload and variant.
type Matrix struct {
	results map[string]map[string]Result
	order   []string
}

// NewMatrix indexes a result list.
func NewMatrix(rs []Result) *Matrix {
	m := &Matrix{results: make(map[string]map[string]Result)}
	for _, r := range rs {
		byVar, ok := m.results[r.Workload]
		if !ok {
			byVar = make(map[string]Result)
			m.results[r.Workload] = byVar
			m.order = append(m.order, r.Workload)
		}
		byVar[r.Variant] = r
	}
	return m
}

// Workloads returns workload names in insertion order.
func (m *Matrix) Workloads() []string { return m.order }

// Get returns the result for (workload, variant).
func (m *Matrix) Get(workload, variant string) (Result, bool) {
	r, ok := m.results[workload][variant]
	return r, ok
}

// MustGet is Get or panic; figures use it after a full RunMatrix.
func (m *Matrix) MustGet(workload, variant string) Result {
	r, ok := m.Get(workload, variant)
	if !ok {
		panic(fmt.Sprintf("core: no result for %s/%s", workload, variant))
	}
	return r
}

// StaticBest returns the static variant with the lowest execution time
// for a workload, and its result.
func (m *Matrix) StaticBest(workload string) (string, Result) {
	return m.staticExtreme(workload, true)
}

// StaticWorst returns the static variant with the highest execution time.
func (m *Matrix) StaticWorst(workload string) (string, Result) {
	return m.staticExtreme(workload, false)
}

func (m *Matrix) staticExtreme(workload string, best bool) (string, Result) {
	var picked string
	var pr Result
	for _, v := range StaticVariants() {
		r, ok := m.Get(workload, v.Label)
		if !ok {
			continue
		}
		if picked == "" ||
			(best && r.Snap.Cycles < pr.Snap.Cycles) ||
			(!best && r.Snap.Cycles > pr.Snap.Cycles) {
			picked, pr = v.Label, r
		}
	}
	if picked == "" {
		panic(fmt.Sprintf("core: no static results for %s", workload))
	}
	return picked, pr
}
