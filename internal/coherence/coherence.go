// Package coherence implements the GPU-side coherence semantics the paper
// studies: the three static caching policies (Uncached, CacheR, CacheRW),
// write-through/self-invalidate behaviour at kernel boundaries, the
// system-scope dirty flush, and the directory hop that connects the GPU
// L2 to the conventional CPU coherence fabric.
package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/event"
	"repro/internal/gpu"
	"repro/internal/mem"
)

// Policy selects one of the paper's static GPU caching policies.
type Policy int

const (
	// Uncached: loads and stores bypass all GPU caches.
	Uncached Policy = iota
	// CacheR: loads cache in L1 and L2; stores bypass all GPU caches.
	CacheR
	// CacheRW: loads cache in L1 and L2; stores bypass L1 and combine
	// in the L2 until a system-scope flush.
	CacheRW
)

// Policies lists the static policies in presentation order.
var Policies = []Policy{Uncached, CacheR, CacheRW}

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Uncached:
		return "Uncached"
	case CacheR:
		return "CacheR"
	case CacheRW:
		return "CacheRW"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "Uncached", "uncached":
		return Uncached, nil
	case "CacheR", "cacher":
		return CacheR, nil
	case "CacheRW", "cacherw":
		return CacheRW, nil
	}
	return 0, fmt.Errorf("coherence: unknown policy %q", s)
}

// CachesLoads reports whether loads allocate in GPU caches under p.
func (p Policy) CachesLoads() bool { return p != Uncached }

// CombinesStores reports whether stores combine in the L2 under p.
func (p Policy) CombinesStores() bool { return p == CacheRW }

// Directory models the shared system directory between the GPU L2 and
// memory: every GPU request that leaves the L2 pays a fabric hop. It is
// where a tightly coupled CPU would also attach; the paper's workloads
// are GPU-resident between kernel launches, so the CPU contributes launch
// latency (modelled in gpu.Config) rather than traffic.
type Directory struct {
	sim     *event.Sim
	lower   cache.Port
	latency event.Cycle

	// hop defers requests across the fabric without allocating a
	// closure per request.
	hop *event.Queue[*mem.Request]

	// Requests counts traffic through the directory.
	Requests uint64
}

// NewDirectory builds a directory hop in front of lower.
func NewDirectory(sim *event.Sim, lower cache.Port, latency event.Cycle) *Directory {
	if sim == nil || lower == nil {
		panic("coherence: directory needs a sim and a lower level")
	}
	d := &Directory{sim: sim, lower: lower, latency: latency}
	d.hop = event.NewQueue(sim, func(req *mem.Request) { d.lower.Submit(req) })
	return d
}

// Submit implements cache.Port.
func (d *Directory) Submit(req *mem.Request) {
	d.Requests++
	if d.latency == 0 {
		d.lower.Submit(req)
		return
	}
	d.hop.Push(d.latency, req)
}

// Reset drops undelivered fabric traffic and zeroes the request counter,
// returning the directory to its just-built state. Call it together with
// the owning Sim's Reset.
func (d *Directory) Reset() {
	d.hop.Reset()
	d.Requests = 0
}

// Engine applies a Policy to a built memory hierarchy: it decorates GPU
// requests and performs the coherence actions at kernel boundaries and
// workload end.
type Engine struct {
	// PolicyKind is the active static policy.
	PolicyKind Policy
	// L1s are the per-CU L1 caches, across every tile.
	L1s []*cache.Cache
	// L2s are the banked L2 slices, one per GPU tile (a single-tile
	// system has exactly one). Coherence actions apply to all of them:
	// kernel-boundary self-invalidation touches every slice, and a
	// system-scope flush completes only when every slice has drained.
	L2s []*cache.Banked
	// Sim is the event engine.
	Sim *event.Sim
	// SyncLatency is the fixed cost of a kernel-boundary coherence
	// action (invalidate trigger, pipeline drain).
	SyncLatency event.Cycle

	// Flushes and Invalidations count coherence actions performed.
	Flushes, Invalidations uint64
}

// Reset zeroes the coherence-action counters. The engine holds no other
// run state; the caches it acts on have their own Reset.
func (e *Engine) Reset() {
	e.Flushes = 0
	e.Invalidations = 0
}

// Decorate marks a GPU request according to the policy. It matches the
// gpu.GPU Decorate hook.
func (e *Engine) Decorate(req *mem.Request) {
	if e.PolicyKind == Uncached {
		req.Bypass = true
	}
	// CacheR vs CacheRW store handling is configured structurally:
	// the L1 never store-allocates, and the L2's StoreAllocate flag is
	// set when the hierarchy is built (see internal/core).
}

// KernelBoundary performs the coherence actions after kernel k completes,
// then resumes the GPU. It matches the gpu.GPU OnKernelDone hook.
func (e *Engine) KernelBoundary(k *gpu.Kernel, resume func()) {
	e.boundary(k != nil && k.SystemSync, resume)
}

// Finish performs the workload-final system-scope synchronization: all
// dirty GPU data must be visible to the CPU, so the L2 flushes.
func (e *Engine) Finish(done func()) {
	e.boundary(true, done)
}

func (e *Engine) boundary(systemScope bool, resume func()) {
	if resume == nil {
		resume = func() {}
	}
	if e.PolicyKind.CachesLoads() {
		e.Invalidations++
		for _, l1 := range e.L1s {
			l1.InvalidateClean()
		}
		for _, l2 := range e.L2s {
			l2.InvalidateClean()
		}
	}
	after := func() { e.Sim.Schedule(e.SyncLatency, resume) }
	if systemScope && e.PolicyKind.CombinesStores() {
		e.Flushes++
		if len(e.L2s) == 1 {
			// The single-slice fast path keeps the pre-topology event
			// schedule byte-identical: no barrier closure between the
			// flush walker and the resume.
			e.L2s[0].FlushDirty(after)
			return
		}
		remaining := len(e.L2s)
		for _, l2 := range e.L2s {
			l2.FlushDirty(func() {
				remaining--
				if remaining == 0 {
					after()
				}
			})
		}
		return
	}
	after()
}
