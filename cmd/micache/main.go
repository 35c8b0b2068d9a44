// Command micache reproduces the evaluation of "Optimizing GPU Cache
// Policies for MI Workloads" (Alsop et al., IISWC 2019): it runs the 17
// Table 2 MI workloads on the simulated APU under the paper's cache
// policies and optimizations, and regenerates every table and figure.
//
// Usage:
//
//	micache -table 2                 # print a table (1 or 2)
//	micache -figure 6                # regenerate one figure (4..13)
//	micache -all                     # regenerate everything
//	micache -workload FwAct -policy CacheRW   # one cell, verbose stats
//	micache -scale 0.25              # smaller/faster inputs
//	micache -csv                     # machine-readable output
//	micache -cache-dir ~/.micache    # persist results; shared with micached
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/persist"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "micache:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("micache", flag.ContinueOnError)
	var (
		table    = fs.Int("table", 0, "print paper table N (1 or 2)")
		figure   = fs.Int("figure", 0, "regenerate paper figure N (4..13)")
		all      = fs.Bool("all", false, "regenerate every table and figure")
		workload = fs.String("workload", "", "run a single workload (e.g. FwAct)")
		variant  = fs.String("policy", "CacheRW", "variant for -workload (Uncached, CacheR, CacheRW, CacheRW-AB, CacheRW-CR, CacheRW-PCby)")
		scale    = fs.Float64("scale", 1.0, "workload size multiplier")
		csv      = fs.Bool("csv", false, "emit CSV instead of tables")
		cus      = fs.Int("cus", 0, "override compute-unit count (default: Table 1's 64)")
		tiles    = fs.Int("tiles", 0, "split the system into N GPU tiles over a NoC (power of two; 0/1 = monolithic)")
		topology = fs.String("topology", "", "interconnect between tiles (direct, crossbar, mesh; default crossbar)")
		mesh     = fs.Bool("mesh", false, "shorthand for -topology mesh")
		record   = fs.String("record", "", "with -workload: write the memory trace to FILE")
		replay   = fs.String("replay", "", "replay a recorded trace under -policy (trace-driven mode)")
		window   = fs.Int("window", 64, "outstanding-request window for -replay (0 = timed replay)")
		workers  = fs.Int("workers", 0, "concurrent simulations for matrix runs (0 = GOMAXPROCS, 1 = sequential)")
		quiet    = fs.Bool("quiet", false, "suppress progress output on stderr")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget per simulation (0 = unlimited)")
		maxEv    = fs.Uint64("max-events", 0, "event budget per simulation (0 = unlimited)")
		cacheDir = fs.String("cache-dir", "", "persistent result cache directory, shared with micached's MICACHED_CACHE_DIR (\"\" = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A non-positive, NaN, or infinite scale silently degenerates every
	// workload to empty kernels; reject it before anything runs.
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		return fmt.Errorf("-scale must be positive and finite, got %g", *scale)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	if *window < 0 {
		return fmt.Errorf("-window must be >= 0 (0 = timed replay), got %d", *window)
	}

	cfg := core.DefaultConfig()
	if *cus > 0 {
		cfg.GPU.CUs = *cus
	}
	if *tiles > 0 {
		cfg.Topology.Tiles = *tiles
	}
	if *topology != "" {
		k, err := noc.ParseKind(*topology)
		if err != nil {
			return err
		}
		// -mesh is shorthand for -topology mesh; naming two different
		// interconnects in one command is a contradiction, not a
		// precedence question, so refuse it instead of silently letting
		// one flag win.
		if *mesh && k != noc.Mesh {
			return fmt.Errorf("-mesh conflicts with -topology %s: pick one interconnect", k)
		}
		cfg.Topology.Kind = k
	} else if *mesh {
		cfg.Topology.Kind = noc.Mesh
	}
	sc := workloads.Scale(*scale)
	out := os.Stdout
	// Budgets bound each simulation; a tripped budget surfaces as a
	// structured error and a clean non-zero exit, never a stack trace.
	budgets := core.Budgets{Timeout: *timeout, MaxEvents: *maxEv}

	// -cache-dir opens the same crash-safe snapshot store micached
	// persists to (same directory layout, same core.CellKey schema), so
	// CLI runs and server runs share results both ways. A store that
	// fails to open degrades to running everything — this is a cache,
	// not an input.
	var store *persist.Store
	if *cacheDir != "" {
		var err error
		store, err = persist.Open(*cacheDir, persist.Options{Fsync: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "micache: cache-dir unavailable, running uncached: %v\n", err)
		} else {
			defer store.Close()
			if c := store.Counters(); c.Corrupt > 0 && !*quiet {
				fmt.Fprintf(os.Stderr, "micache: quarantined %d corrupt cache entries in %s\n", c.Corrupt, *cacheDir)
			}
		}
	}

	switch {
	case *table == 1:
		report.RenderTable1(out, cfg)
		return nil
	case *table == 2:
		report.RenderTable2(out, sc)
		return nil
	case *table != 0:
		return fmt.Errorf("unknown table %d (the paper has tables 1 and 2)", *table)
	case *replay != "":
		return runReplay(cfg, *replay, *variant, *window)
	case *workload != "":
		return runSingle(cfg, *workload, *variant, sc, *record, budgets, store)
	case *figure != 0:
		return runFigures(cfg, []int{*figure}, sc, *csv, *workers, *quiet, budgets, store)
	case *all:
		report.RenderTable1(out, cfg)
		report.RenderTable2(out, sc)
		return runFigures(cfg, []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, sc, *csv, *workers, *quiet, budgets, store)
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -all, -table, -figure or -workload")
	}
}

// workloadNames lists the Table 2 workload names for error messages.
func workloadNames() string {
	specs := workloads.All()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

// lookupVariant resolves a -policy label, listing the valid labels when
// it does not match.
func lookupVariant(label string) (core.Variant, error) {
	v, err := core.VariantByLabel(label)
	if err != nil {
		vs := core.AllVariants()
		labels := make([]string, len(vs))
		for i, v := range vs {
			labels[i] = v.Label
		}
		return core.Variant{}, fmt.Errorf("unknown policy %q (valid: %s)", label, strings.Join(labels, ", "))
	}
	return v, nil
}

// runSingle runs one workload under one variant and prints full stats;
// with recordPath it also captures and writes the memory trace (the
// recording path ignores budgets and the cache — a trace must be
// complete or absent).
func runSingle(cfg core.Config, name, label string, sc workloads.Scale, recordPath string, b core.Budgets, store *persist.Store) error {
	spec, err := workloads.ByName(name)
	if err != nil {
		return fmt.Errorf("unknown workload %q (valid: %s)", name, workloadNames())
	}
	v, err := lookupVariant(label)
	if err != nil {
		return err
	}
	start := time.Now()
	var r core.Result
	if store != nil && recordPath == "" {
		key := core.CellKey(cfg, spec.Name, v.Label, float64(sc))
		if snap, ok, err := store.Get(key); err == nil && ok {
			fmt.Fprintf(os.Stderr, "served from cache %s\n", store.Dir())
			printSingle(cfg, core.Result{Workload: spec.Name, Class: spec.Class, Variant: v.Label, Snap: snap}, start)
			return nil
		}
	}
	if recordPath != "" {
		var tr *trace.Trace
		r, tr, err = core.RunRecorded(cfg, v, spec, sc)
		if err != nil {
			return err
		}
		f, err := os.Create(recordPath)
		if err != nil {
			return err
		}
		if _, err := tr.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded %d events to %s\n", len(tr.Events), recordPath)
	} else {
		r, err = core.RunOneWith(cfg, v, spec, sc, b)
		if err != nil {
			return err
		}
		if store != nil {
			if err := store.Put(core.CellKey(cfg, spec.Name, v.Label, float64(sc)), r.Snap); err != nil {
				fmt.Fprintf(os.Stderr, "micache: cache write failed: %v\n", err)
			}
		}
	}
	printSingle(cfg, r, start)
	return nil
}

// printSingle renders one cell's full statistics block.
func printSingle(cfg core.Config, r core.Result, start time.Time) {
	s := r.Snap
	fmt.Printf("%s under %s (%s class, simulated in %v)\n",
		r.Workload, r.Variant, r.Class, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  cycles             %d\n", s.Cycles)
	fmt.Printf("  GVOPS              %.1f\n", s.GVOPS(cfg.GPUClockMHz))
	fmt.Printf("  GMR/s              %.2f\n", s.GMRs(cfg.GPUClockMHz))
	fmt.Printf("  GPU mem requests   %d\n", s.GPUMemRequests)
	fmt.Printf("  DRAM accesses      %d (reads %d, writes %d)\n",
		s.DRAM.Accesses(), s.DRAM.Reads, s.DRAM.Writes)
	fmt.Printf("  DRAM row hit rate  %.1f%%\n", 100*s.DRAM.RowHitRate())
	fmt.Printf("  stalls per request %.3f (L1 %d, L2 %d)\n",
		s.StallsPerRequest(), s.L1.Stalls, s.L2.Stalls)
	l1, l2 := s.L1, s.L2
	fmt.Printf("  stall causes (L1)  port %d, alloc %d, mshr %d, bypass %d, line %d\n",
		l1.StallPort, l1.StallAlloc, l1.StallMSHR, l1.StallBypass, l1.StallLine)
	fmt.Printf("  stall causes (L2)  port %d, alloc %d, mshr %d, bypass %d, line %d\n",
		l2.StallPort, l2.StallAlloc, l2.StallMSHR, l2.StallBypass, l2.StallLine)
	fmt.Printf("  L1 hit rate        %.1f%%  L2 hit rate %.1f%%\n",
		100*s.L1.HitRate(), 100*s.L2.HitRate())
	fmt.Printf("  L2 writebacks      %d (rinses %d)\n", s.L2.Writebacks, s.L2.Rinses)
	fmt.Printf("  bypasses           L1 %d, L2 %d (predictor %d, alloc %d)\n",
		s.L1.Bypasses, s.L2.Bypasses, s.L2.PredBypass, s.L1.AllocBypass+s.L2.AllocBypass)
	fmt.Printf("  kernels            %d\n", s.Kernels)
	if len(s.Tiles) > 0 {
		fmt.Println()
		report.RenderTopology(os.Stdout, s)
	}
}

// runReplay drives a recorded trace through the memory system under the
// given policy variant (trace-driven what-if mode).
func runReplay(cfg core.Config, path, label string, window int) error {
	v, err := lookupVariant(label)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var tr trace.Trace
	if _, err := tr.ReadFrom(f); err != nil {
		return err
	}
	mode := trace.Windowed
	if window <= 0 {
		mode = trace.Timed
	}
	start := time.Now()
	snap, err := core.ReplayTrace(cfg, v, &tr, mode, window)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d events under %s (in %v)\n",
		len(tr.Events), v.Label, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  cycles             %d\n", snap.Cycles)
	fmt.Printf("  DRAM accesses      %d (reads %d, writes %d)\n",
		snap.DRAM.Accesses(), snap.DRAM.Reads, snap.DRAM.Writes)
	fmt.Printf("  DRAM row hit rate  %.1f%%\n", 100*snap.DRAM.RowHitRate())
	fmt.Printf("  L1 hit rate        %.1f%%  L2 hit rate %.1f%%\n",
		100*snap.L1.HitRate(), 100*snap.L2.HitRate())
	fmt.Printf("  stalls per request %.3f\n", snap.StallsPerRequest())
	return nil
}

// runFigures computes the result matrix once — cells spread over the
// requested worker count — and renders the requested figures. With a
// store, cells already on disk are served without simulating and fresh
// cells are persisted, so re-rendering figures after an interrupted
// sweep only pays for the missing cells.
func runFigures(cfg core.Config, figs []int, sc workloads.Scale, csv bool, workers int, quiet bool, b core.Budgets, store *persist.Store) error {
	specs := workloads.All()
	figMap := report.Figures(cfg.GPUClockMHz)
	sort.Ints(figs)
	for _, f := range figs {
		if _, ok := figMap[f]; !ok {
			return fmt.Errorf("unknown figure %d (the evaluation has figures 4..13)", f)
		}
	}

	// Figures 4/5 need only CacheR; others need the full variant set.
	needOpt := false
	needStatic := false
	for _, f := range figs {
		if f >= 6 {
			needStatic = true
		}
		if f >= 10 {
			needOpt = true
		}
	}
	var variants []core.Variant
	switch {
	case needOpt:
		variants = core.AllVariants()
	case needStatic:
		variants = core.StaticVariants()
	default:
		v, _ := core.VariantByLabel("CacheR")
		variants = []core.Variant{v}
	}

	start := time.Now()
	opts := core.RunMatrixOpts{
		Workers:          workers,
		CellTimeout:      b.Timeout,
		MaxEventsPerCell: b.MaxEvents,
	}
	cached := 0
	if store != nil {
		opts.Lookup = func(spec workloads.Spec, v core.Variant) (stats.Snapshot, bool) {
			snap, ok, err := store.Get(core.CellKey(cfg, spec.Name, v.Label, float64(sc)))
			return snap, err == nil && ok
		}
		opts.OnCell = func(r core.Result, wasCached bool, done, total int) {
			if wasCached {
				cached++
				return
			}
			if err := store.Put(core.CellKey(cfg, r.Workload, r.Variant, float64(sc)), r.Snap); err != nil && !quiet {
				fmt.Fprintf(os.Stderr, "micache: cache write failed: %v\n", err)
			}
		}
	}
	if !quiet {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d simulations", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	results, err := core.RunMatrixWith(cfg, variants, specs, sc, opts)
	if err != nil {
		if !quiet {
			// The progress line only self-terminates on completion;
			// keep the error off the half-drawn line.
			fmt.Fprintln(os.Stderr)
		}
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "ran %d simulations in %v (workers=%d)\n",
			len(results), time.Since(start).Round(time.Millisecond), opts.EffectiveWorkers())
		if cached > 0 {
			fmt.Fprintf(os.Stderr, "%d of %d cells served from cache\n", cached, len(results))
		}
	}

	m := core.NewMatrix(results)
	for _, f := range figs {
		report.RenderFigure(os.Stdout, figMap[f], m, csv)
	}
	if !csv {
		report.RenderTotals(os.Stdout, results)
	}
	return nil
}
