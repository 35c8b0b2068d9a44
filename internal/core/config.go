// Package core assembles the full simulated APU — GPU, per-CU L1s, banked
// shared L2, coherence directory, and HBM2 memory — and runs Table 2
// workloads under the paper's cache policies and optimizations. It is the
// public entry point of the library: build a Config, pick a Variant, and
// Run a workload to get a stats.Snapshot.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/gpu"
	"repro/internal/noc"
	"repro/internal/policy"
	"repro/internal/workloads"
)

// CacheGeom is the user-visible geometry of one cache level.
type CacheGeom struct {
	// SizeBytes is total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// MSHRs bounds outstanding misses per instance (per bank for L2).
	MSHRs int
	// BypassEntries bounds outstanding bypassed loads per instance.
	BypassEntries int
	// PortsPerCycle is lookup throughput per instance.
	PortsPerCycle int
	// HitLatency, LookupLatency, FillLatency are in GPU cycles.
	HitLatency, LookupLatency, FillLatency event.Cycle
}

// Sets derives the set count.
func (g CacheGeom) Sets(instances int) int {
	return g.SizeBytes / 64 / g.Ways / instances
}

// Config is the full system configuration. DefaultConfig reproduces
// Table 1.
type Config struct {
	// GPU is the compute-side configuration.
	GPU gpu.Config
	// GPUClockMHz converts cycles to seconds for bandwidth figures.
	GPUClockMHz float64
	// L1 is the per-CU data cache (one instance per CU).
	L1 CacheGeom
	// L2 is the shared cache, split into L2Banks banks.
	L2      CacheGeom
	L2Banks int
	// DRAM is the memory system.
	DRAM dram.Config
	// DirectoryLatency is the fabric hop between L2 and memory.
	DirectoryLatency event.Cycle
	// SyncLatency is the fixed kernel-boundary coherence cost.
	SyncLatency event.Cycle
	// Predictor configures PC-based L2 bypassing (used when a Variant
	// enables it).
	Predictor policy.PredictorConfig
	// PredictorSampleEvery keeps the predictor training by caching
	// every Nth predicted-bypass request.
	PredictorSampleEvery int
	// RinserRows bounds the dirty-block index capacity.
	RinserRows int
	// Topology splits the system into GPU tiles over an internal/noc
	// interconnect: each tile owns its share of the CUs (and their
	// L1s), one slice of the L2, and one local HBM stack; the shared
	// directory sits on the hub node, and cache lines are homed to
	// tiles by address interleave. The zero value (and Tiles ≤ 1)
	// lowers to the pre-topology direct wiring — no links, no extra
	// objects, byte-identical timing.
	Topology noc.Config
}

// DefaultConfig returns the Table 1 system: 64 CUs at 1.6 GHz, 16 KB
// 16-way L1 per CU, 4 MB 16-way shared L2, 16-channel HBM2, and
// approximate uncontested latencies of 50/125/225 cycles to L1/L2/memory.
func DefaultConfig() Config {
	return Config{
		GPU:         gpu.DefaultConfig(),
		GPUClockMHz: 1600,
		// Latencies are chosen so the uncontested load-to-use chain
		// reproduces Table 1's ≈50/125/225 cycles:
		//   L1 hit:   50
		//   L2 hit:   15 (L1 lookup) + 75 + 35 (L1 fill) = 125
		//   memory:   15 + 15 + 30 (directory) + 95 (DRAM row miss)
		//             + 35 + 35 (fills) = 225
		// Bypass entries are sized so Uncached traffic queues at the
		// memory controller (throttled by per-wavefront MLP), not at
		// the caches: the paper's Uncached configuration shows almost
		// no cache stalls (Figure 8).
		L1: CacheGeom{
			SizeBytes: 16 << 10, Ways: 16,
			MSHRs: 64, BypassEntries: 512, PortsPerCycle: 2,
			HitLatency: 50, LookupLatency: 15, FillLatency: 35,
		},
		L2: CacheGeom{
			SizeBytes: 4 << 20, Ways: 16,
			MSHRs: 64, BypassEntries: 2048, PortsPerCycle: 2,
			HitLatency: 75, LookupLatency: 15, FillLatency: 35,
		},
		L2Banks:              16,
		DRAM:                 dram.Default(),
		DirectoryLatency:     30,
		SyncLatency:          100,
		Predictor:            policy.DefaultPredictorConfig(),
		PredictorSampleEvery: 32,
		RinserRows:           4096,
		Topology:             noc.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if err := c.GPU.Validate(); err != nil {
		return err
	}
	if c.GPUClockMHz <= 0 {
		return fmt.Errorf("core: GPUClockMHz must be positive")
	}
	if c.L2Banks <= 0 || c.L2Banks&(c.L2Banks-1) != 0 {
		return fmt.Errorf("core: L2Banks must be a positive power of two, got %d", c.L2Banks)
	}
	// Sets divides by Ways, so check both levels' Ways first.
	if c.L1.Ways <= 0 {
		return fmt.Errorf("core: L1 Ways must be positive, got %d", c.L1.Ways)
	}
	if c.L2.Ways <= 0 {
		return fmt.Errorf("core: L2 Ways must be positive, got %d", c.L2.Ways)
	}
	if c.L1.Sets(1) <= 0 {
		return fmt.Errorf("core: L1 geometry yields no sets")
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	tiles := c.Topology.WithDefaults().Tiles
	if c.GPU.CUs%tiles != 0 {
		return fmt.Errorf("core: CUs (%d) must divide evenly across %d tiles", c.GPU.CUs, tiles)
	}
	if c.L2.Sets(c.L2Banks*tiles) <= 0 {
		return fmt.Errorf("core: L2 geometry yields no sets per bank across %d tiles", tiles)
	}
	return c.DRAM.Validate()
}

// OptSet selects the paper's Section VII optimizations.
type OptSet struct {
	// AllocBypass converts blocked allocations to bypasses (CacheRW-AB).
	AllocBypass bool
	// CacheRinse enables dirty-block-index rinsing (CacheRW-CR).
	CacheRinse bool
	// PCBypass enables PC-based L2 bypass prediction (CacheRW-PCby).
	PCBypass bool
}

// Variant is one experimental configuration: a static policy plus
// optimizations.
type Variant struct {
	// Label names the configuration in figures ("CacheRW-AB").
	Label string
	// Policy is the static caching policy.
	Policy coherence.Policy
	// Opts are the enabled optimizations.
	Opts OptSet
}

// StaticVariants returns the three static policies of Section VI.
func StaticVariants() []Variant {
	return []Variant{
		{Label: "Uncached", Policy: coherence.Uncached},
		{Label: "CacheR", Policy: coherence.CacheR},
		{Label: "CacheRW", Policy: coherence.CacheRW},
	}
}

// OptVariants returns the cumulative optimization stack of Section VII,
// all applied to CacheRW: AB, then AB+CR, then AB+CR+PCby.
func OptVariants() []Variant {
	return []Variant{
		{Label: "CacheRW-AB", Policy: coherence.CacheRW,
			Opts: OptSet{AllocBypass: true}},
		{Label: "CacheRW-CR", Policy: coherence.CacheRW,
			Opts: OptSet{AllocBypass: true, CacheRinse: true}},
		{Label: "CacheRW-PCby", Policy: coherence.CacheRW,
			Opts: OptSet{AllocBypass: true, CacheRinse: true, PCBypass: true}},
	}
}

// AllVariants returns the static and optimization variants in figure
// order.
func AllVariants() []Variant {
	return append(StaticVariants(), OptVariants()...)
}

// VariantByLabel finds a variant by its figure label.
func VariantByLabel(label string) (Variant, error) {
	for _, v := range AllVariants() {
		if v.Label == label {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("core: unknown variant %q", label)
}

// buildL1 constructs one CU's L1 for the given variant.
func buildL1(cfg *Config, v Variant, id int, sim *event.Sim, lower cache.Port) *cache.Cache {
	return cache.New(cache.Config{
		Name: fmt.Sprintf("L1.%d", id),
		Sets: cfg.L1.Sets(1), Ways: cfg.L1.Ways,
		HitLatency:    cfg.L1.HitLatency,
		LookupLatency: cfg.L1.LookupLatency,
		FillLatency:   cfg.L1.FillLatency,
		MSHRs:         cfg.L1.MSHRs,
		BypassEntries: cfg.L1.BypassEntries,
		PortsPerCycle: cfg.L1.PortsPerCycle,
		StoreAllocate: false, // stores always bypass the L1 (Section III)
		AllocBypass:   v.Opts.AllocBypass,
	}, sim, lower)
}

// buildL2 constructs one tile's banked L2 slice for the given variant.
// The configured L2 capacity is divided across the tiles (a single-tile
// system gets all of it, exactly the pre-topology geometry); the name
// stays the bare "L2" in that case so single-tile diagnostics are
// unchanged.
func buildL2(cfg *Config, v Variant, tile, tiles int, sim *event.Sim, lower cache.Port,
	pred cache.Predictor, rinse cache.Rinser) *cache.Banked {
	var p cache.Predictor
	if v.Opts.PCBypass {
		p = pred
	}
	var r cache.Rinser
	if v.Opts.CacheRinse {
		r = rinse
	}
	name := "L2"
	if tiles > 1 {
		name = fmt.Sprintf("L2.%d", tile)
	}
	return cache.NewBanked(cache.Config{
		Name: name,
		Sets: cfg.L2.Sets(cfg.L2Banks * tiles), Ways: cfg.L2.Ways,
		HitLatency:           cfg.L2.HitLatency,
		LookupLatency:        cfg.L2.LookupLatency,
		FillLatency:          cfg.L2.FillLatency,
		MSHRs:                cfg.L2.MSHRs,
		BypassEntries:        cfg.L2.BypassEntries,
		PortsPerCycle:        cfg.L2.PortsPerCycle,
		StoreAllocate:        v.Policy.CombinesStores(),
		AllocBypass:          v.Opts.AllocBypass,
		Predictor:            p,
		PredictorSampleEvery: cfg.PredictorSampleEvery,
		Rinser:               r,
	}, cfg.L2Banks, sim, lower)
}

// Workloads re-exports the Table 2 specs for the public API surface.
func Workloads() []workloads.Spec { return workloads.All() }
