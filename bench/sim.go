package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// simWorkload is a sweep of (spec × variant) cells driven through the
// library's public entry points.
type simWorkload struct {
	cfg      core.Config
	specs    []workloads.Spec
	variants []core.Variant
	scale    workloads.Scale
	// workers is fixed, not GOMAXPROCS, so the load does not follow the
	// host's core count.
	workers int
}

// benchMachine is the machine of the repository's matrix benchmarks:
// Table 1 with 32 CUs and a 1 MiB L2, which keeps each workload's
// footprint-to-capacity regime at scale 0.15.
func benchMachine() core.Config {
	cfg := core.DefaultConfig()
	cfg.GPU.CUs = 32
	cfg.L2.SizeBytes = 1 << 20
	return cfg
}

func specsNamed(names ...string) []workloads.Spec {
	out := make([]workloads.Spec, len(names))
	for i, n := range names {
		s, err := workloads.ByName(n)
		if err != nil {
			panic(err) // callers name Table 2 workloads
		}
		out[i] = s
	}
	return out
}

func specsExcept(name string) []workloads.Spec {
	var out []workloads.Spec
	for _, s := range workloads.All() {
		if s.Name != name {
			out = append(out, s)
		}
	}
	return out
}

// simWorkloads defines the three simulator workloads; README.md says
// why each was chosen.
func simWorkloads() map[string]simWorkload {
	mesh := benchMachine()
	mesh.Topology.Tiles = 4
	mesh.Topology.Kind = noc.Mesh
	return map[string]simWorkload{
		"paper-matrix": {
			cfg: benchMachine(), specs: specsExcept("CM"), variants: core.AllVariants(),
			scale: 0.15, workers: 2,
		},
		"cm-cell": {
			cfg: core.DefaultConfig(), specs: specsNamed("CM"),
			variants: []core.Variant{core.StaticVariants()[2]}, scale: 0.3, workers: 1,
		},
		"mesh-tiles": {
			cfg:      mesh,
			specs:    specsNamed("FwAct", "BwAct", "FwFc", "BwBN", "FwPool", "FwBwLSTM"),
			variants: core.StaticVariants(), scale: 0.15, workers: 2,
		},
	}
}

// setupReps is how many times a run repeats set-up; setup_s is the
// median.
const setupReps = 9

// setUp builds what a sweep needs before its first cell: a pool holding
// every system the workers will use, and each workload generated once.
func (w simWorkload) setUp() (*core.SystemPool, error) {
	pool := core.NewSystemPool(w.cfg)
	for _, v := range w.variants {
		held := make([]*core.System, 0, w.workers)
		for i := 0; i < w.workers; i++ {
			sys, err := pool.Get(v)
			if err != nil {
				return nil, err
			}
			held = append(held, sys)
		}
		for _, sys := range held {
			pool.Put(sys)
		}
	}
	for _, s := range w.specs {
		s.Build(w.scale)
	}
	return pool, nil
}

// sweepOrder returns the specs and variants of one sweep, permuted by
// rng so cells run in a seed-dependent order.
func (w simWorkload) sweepOrder(rng *rand.Rand) ([]workloads.Spec, []core.Variant) {
	specs := append([]workloads.Spec(nil), w.specs...)
	vs := append([]core.Variant(nil), w.variants...)
	if rng != nil {
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	}
	return specs, vs
}

// canonical sorts results into the workload's canonical cell order.
func (w simWorkload) canonical(rs []core.Result) []core.Result {
	pos := make(map[[2]string]int, len(w.specs)*len(w.variants))
	for i, s := range w.specs {
		for j, v := range w.variants {
			pos[[2]string{s.Name, v.Label}] = i*len(w.variants) + j
		}
	}
	out := append([]core.Result(nil), rs...)
	sort.Slice(out, func(a, b int) bool {
		return pos[[2]string{out[a].Workload, out[a].Variant}] < pos[[2]string{out[b].Workload, out[b].Variant}]
	})
	return out
}

// digestResults is the SHA-256 of the JSON encoding of results, which
// must already be in canonical order.
func digestResults(rs []core.Result) string {
	b, err := json.Marshal(rs)
	if err != nil {
		panic(err) // Result holds only integers and strings
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sweepPlain runs one sweep through core.RunMatrixWith, timing each
// cell from the Lookup hook (called just before the cell simulates) to
// the OnCell hook (called just after).
func (w simWorkload) sweepPlain(pool *core.SystemPool, specs []workloads.Spec, vs []core.Variant) ([]core.Result, []time.Duration, error) {
	var mu sync.Mutex
	started := make(map[[2]string]time.Time, len(specs)*len(vs))
	lat := make([]time.Duration, 0, len(specs)*len(vs))
	rs, err := core.RunMatrixWith(w.cfg, vs, specs, w.scale, core.RunMatrixOpts{
		Workers: w.workers,
		Pool:    pool,
		Lookup: func(s workloads.Spec, v core.Variant) (stats.Snapshot, bool) {
			mu.Lock()
			started[[2]string{s.Name, v.Label}] = time.Now()
			mu.Unlock()
			return stats.Snapshot{}, false
		},
		OnCell: func(r core.Result, _ bool, _, _ int) {
			mu.Lock()
			lat = append(lat, time.Since(started[[2]string{r.Workload, r.Variant}]))
			mu.Unlock()
		},
	})
	return rs, lat, err
}

// cellCounts are the event-engine counters of one traced cell.
type cellCounts struct {
	fired   uint64
	pending int
	run     time.Duration
}

// sweepTraced runs one sweep cell by cell with the same pool discipline
// as RunMatrixWith (Get, build, run, Put), recording a span around each
// public call and the engine counters before Put resets them.
func (w simWorkload) sweepTraced(pool *core.SystemPool, specs []workloads.Spec, vs []core.Variant,
	tr *tracer, idBase int64) ([]core.Result, []time.Duration, []cellCounts, error) {
	type cell struct {
		spec workloads.Spec
		v    core.Variant
	}
	cells := make([]cell, 0, len(specs)*len(vs))
	for _, s := range specs {
		for _, v := range vs {
			cells = append(cells, cell{s, v})
		}
	}
	rs := make([]core.Result, len(cells))
	lat := make([]time.Duration, len(cells))
	counts := make([]cellCounts, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < min(w.workers, len(cells)); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				c, id := cells[i], idBase+int64(i)
				t0 := time.Now()
				root := tr.begin(id, "cell", -1)
				s := tr.begin(id, "core.pool_get", root)
				sys, err := pool.Get(c.v)
				tr.end(s)
				if err != nil {
					errs[i] = err
					tr.end(root)
					continue
				}
				s = tr.begin(id, "workloads.build", root)
				wl := c.spec.Build(w.scale)
				tr.end(s)
				s = tr.begin(id, "core.run", root)
				r0 := time.Now()
				snap, err := sys.RunBudgeted(wl, core.Budgets{})
				counts[i] = cellCounts{fired: sys.Sim.Fired(), pending: sys.Sim.MaxQueueLen(), run: time.Since(r0)}
				tr.end(s)
				if err != nil {
					errs[i] = fmt.Errorf("%s under %s: %w", c.spec.Name, c.v.Label, err)
					tr.end(root)
					continue
				}
				s = tr.begin(id, "core.reset", root)
				pool.Put(sys)
				tr.end(s)
				tr.end(root)
				lat[i] = time.Since(t0)
				rs[i] = core.Result{Workload: c.spec.Name, Class: c.spec.Class, Variant: c.v.Label, Snap: snap}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return rs, lat, counts, nil
}

// spotChecks is how many cells per run are recomputed on a fresh
// system, outside timing, and compared with the sweep's results.
const spotChecks = 6

// runSim runs one simulator workload: repeated set-up, one untimed
// warm-up sweep whose results become the run's reference, timed sweeps
// for the run's duration, then the correctness checks.
func runSim(w simWorkload, o runOpts) (*childResult, error) {
	res := newChildResult(o.workload)
	rng := rand.New(rand.NewSource(o.seed))

	var pool *core.SystemPool
	setups := make([]time.Duration, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		// Collect the previous repetition's pool first, so discarded
		// set-ups neither inflate the peak RSS nor trigger a collection
		// inside the next timed set-up.
		pool = nil
		runtime.GC()
		t0 := time.Now()
		p, err := w.setUp()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
		pool = p
	}

	t0 := time.Now()
	specs, vs := w.sweepOrder(nil)
	warm, _, err := w.sweepPlain(pool, specs, vs)
	if err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	ref := w.canonical(warm)
	res.Phases["warmup_s"] = time.Since(t0).Seconds()
	res.Digest = digestResults(ref)

	var tr *tracer
	stopProfile := func() error { return nil }
	if o.trace {
		tr = newTracer()
		if stopProfile, err = startProfile(o.profilePath()); err != nil {
			return nil, err
		}
	}

	var lat, passes []time.Duration
	var counts []cellCounts
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for sweeps := 0; sweeps == 0 || time.Since(start) < o.seconds; sweeps++ {
		specs, vs := w.sweepOrder(rng)
		s0 := time.Now()
		var rs []core.Result
		var l []time.Duration
		var c []cellCounts
		if tr != nil {
			rs, l, c, err = w.sweepTraced(pool, specs, vs, tr, int64(sweeps*len(ref)))
		} else {
			rs, l, err = w.sweepPlain(pool, specs, vs)
		}
		passes = append(passes, time.Since(s0))
		res.Attempted += len(ref)
		if err != nil {
			res.Failed += len(ref)
			res.fail("sweep %d: %v", sweeps, err)
			continue
		}
		lat = append(lat, l...)
		counts = append(counts, c...)
		if n := countMismatches(ref, w.canonical(rs)); n > 0 {
			res.Failed += n
			res.fail("sweep %d: %d cells differ from the warm-up sweep's", sweeps, n)
		}
	}
	runtime.ReadMemStats(&ms1)
	res.Phases["measure_s"] = time.Since(start).Seconds()
	if err := stopProfile(); err != nil {
		return nil, err
	}

	res.setLatency(lat, passes, len(ref))
	res.setSetup(setups)
	res.setGC(&ms0, &ms1, len(lat))
	res.setModelled(core.Totals(ref))
	res.setServer(nil)
	if tr != nil {
		res.setEngine(counts)
		if err := finishTrace(res, tr, w.cfg, simEntries(w, ref), o, len(lat)); err != nil {
			return nil, err
		}
	}

	// Spot checks: a few seeded cells recomputed on fresh systems.
	for _, i := range rng.Perm(len(ref))[:min(spotChecks, len(ref))] {
		r := ref[i]
		spec, _ := workloads.ByName(r.Workload)
		v, _ := core.VariantByLabel(r.Variant)
		got, err := core.RunOne(w.cfg, v, spec, w.scale)
		if err != nil || !got.Equal(r) {
			res.Failed++
			res.fail("spot check %s/%s differs from a fresh core.RunOne (err %v)", r.Workload, r.Variant, err)
		}
	}
	return res, nil
}

// countMismatches counts cells whose results differ.
func countMismatches(want, got []core.Result) int {
	if len(want) != len(got) {
		return len(want)
	}
	n := 0
	for i := range want {
		if !want[i].Equal(got[i]) {
			n++
		}
	}
	return n
}

// simEntries are the sweep's results under the keys micached would
// store them at.
func simEntries(w simWorkload, rs []core.Result) []cacheEntry {
	out := make([]cacheEntry, len(rs))
	for i, r := range rs {
		out[i] = cacheEntry{workload: r.Workload, variant: r.Variant, scale: float64(w.scale), snap: r.Snap}
	}
	return out
}
