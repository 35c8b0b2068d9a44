package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// RunRecorded runs one workload under one variant with a trace recorder
// tapped between the GPU coalescer and the L1s, returning both the run's
// statistics and the captured request trace.
func RunRecorded(cfg Config, v Variant, spec workloads.Spec, scale workloads.Scale) (Result, *trace.Trace, error) {
	sys, err := NewSystem(cfg, v)
	if err != nil {
		return Result{}, nil, err
	}
	rec := trace.NewRecorder(sys.Sim)
	// Re-point the GPU at tapped ports. The GPU copies the port slice
	// at construction, so rebuild it with taps in place.
	ports := make([]cache.Port, len(sys.L1s))
	for i, l1 := range sys.L1s {
		ports[i] = rec.Tap(l1)
	}
	sys.GPU.SetPorts(ports)

	w := spec.Build(scale)
	if w.Name == "" {
		w.Name = spec.Name
	}
	snap, err := sys.Run(w)
	if err != nil {
		return Result{}, nil, err
	}
	r := Result{Workload: spec.Name, Class: spec.Class, Variant: v.Label, Snap: snap}
	return r, &rec.Trace, nil
}

// MemorySystem is the memory hierarchy without the GPU front end, used
// for trace-driven replay: per-CU L1s, banked L2, directory and DRAM,
// configured for a policy variant exactly as NewSystem builds them —
// including multi-tile topologies, which replay over the same NoC.
type MemorySystem struct {
	Sim       *event.Sim
	Tiles     []Tile
	Net       *noc.Network
	L1s       []*cache.Cache
	L2        *cache.Banked
	DRAM      *dram.Controller
	Directory *coherence.Directory
}

// NewMemorySystem wires the memory side only.
func NewMemorySystem(cfg Config, v Variant) (*MemorySystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim := event.New()
	h := buildHierarchy(&cfg, v, sim)
	return &MemorySystem{
		Sim: sim, Tiles: h.tiles, Net: h.net, L1s: h.l1s,
		L2: h.tiles[0].L2, DRAM: h.tiles[0].DRAM, Directory: h.dir,
	}, nil
}

// Snapshot collects the memory-side statistics.
func (ms *MemorySystem) Snapshot() stats.Snapshot {
	snap := stats.Snapshot{
		Cycles: uint64(ms.Sim.Now()),
	}
	snap.L1 = sumCacheStats(ms.L1s)
	for i := range ms.Tiles {
		snap.L2.Add(ms.Tiles[i].L2.Stats())
		snap.DRAM.Add(ms.Tiles[i].DRAM.Stats)
	}
	addTopology(&snap, ms.Tiles, ms.Net)
	return snap
}

// ReplayTrace drives a captured trace through a fresh memory system under
// the given variant and returns the resulting statistics. The variant may
// differ from the one the trace was recorded under: the replayer
// re-decorates requests per the replay policy, enabling what-if studies
// on a fixed request stream. mode selects timed or windowed pacing.
func ReplayTrace(cfg Config, v Variant, tr *trace.Trace, mode trace.ReplayMode, window int) (stats.Snapshot, error) {
	ms, err := NewMemorySystem(cfg, v)
	if err != nil {
		return stats.Snapshot{}, err
	}
	l2s := make([]*cache.Banked, len(ms.Tiles))
	for i := range ms.Tiles {
		l2s[i] = ms.Tiles[i].L2
	}
	eng := &coherence.Engine{
		PolicyKind: v.Policy,
		L1s:        ms.L1s, L2s: l2s,
		Sim: ms.Sim, SyncLatency: cfg.SyncLatency,
	}
	router := cache.PortFunc(func(req *mem.Request) {
		if req.CU < 0 || req.CU >= len(ms.L1s) {
			panic(fmt.Sprintf("core: trace CU %d out of range (have %d CUs)", req.CU, len(ms.L1s)))
		}
		req.Bypass = false
		eng.Decorate(req)
		ms.L1s[req.CU].Submit(req)
	})
	rp := trace.NewReplayer(ms.Sim, router, tr, mode)
	if window > 0 {
		rp.Window = window
	}
	finished := false
	rp.Start(func() { eng.Finish(func() { finished = true }) })
	ms.Sim.Run()
	if !finished && len(tr.Events) > 0 {
		return stats.Snapshot{}, fmt.Errorf("core: replay did not complete (%d/%d events)",
			rp.Completed, len(tr.Events))
	}
	snap := ms.Snapshot()
	snap.GPUMemRequests = uint64(len(tr.Events))
	return snap, nil
}
