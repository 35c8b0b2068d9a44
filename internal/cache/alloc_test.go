package cache

import (
	"testing"

	"repro/internal/event"
	"repro/internal/mem"
)

// quietLower completes every request after a fixed delay without
// recording it, so allocation measurements see only the cache.
type quietLower struct {
	sim *event.Sim
	lat event.Cycle
}

func (p *quietLower) Submit(req *mem.Request) {
	if req.Done != nil {
		p.sim.Schedule(p.lat, req.Done)
	}
}

// allocCache builds a small cache for the steady-state contracts. Ways=1
// makes alternating same-set lines conflict-miss deterministically.
func allocCache(sim *event.Sim, lower Port) *Cache {
	return New(Config{
		Name: "alloc", Sets: 16, Ways: 1,
		HitLatency: 1, LookupLatency: 1, FillLatency: 1,
		MSHRs: 8, BypassEntries: 8, PortsPerCycle: 4,
	}, sim, lower)
}

// TestForwardPathsAllocationFree pins the zero-allocation contract for
// the cache's lower-level forward paths: steady-state miss fetches
// (pooled MSHRs with embedded fetch requests), bypassed loads (pooled
// bypass entries), bypassed stores (pooled forward pairs), and the
// queued hand-off to the lower level must not allocate at all.
func TestForwardPathsAllocationFree(t *testing.T) {
	sim := event.New()
	c := allocCache(sim, &quietLower{sim: sim, lat: 5})
	noop := func() {}
	// Two loads in the same set (Ways=1) that evict each other: every
	// submit is a clean-victim miss with a fetch forward.
	missA := &mem.Request{ID: 1, Line: 0x0000, Kind: mem.Load, Done: noop}
	missB := &mem.Request{ID: 2, Line: 0x4000, Kind: mem.Load, Done: noop}
	// A store at a no-store-allocate level: always a bypass forward.
	store := &mem.Request{ID: 3, Line: 0x8000, Kind: mem.Store, Done: noop}
	// An end-to-end bypass load (Uncached-policy traffic).
	bypass := &mem.Request{ID: 4, Line: 0xc000, Kind: mem.Load, Bypass: true, Done: noop}

	steps := func() {
		c.Submit(missA)
		sim.Run()
		c.Submit(missB)
		sim.Run()
		c.Submit(store)
		sim.Run()
		c.Submit(bypass)
		sim.Run()
	}
	// Warm up the txn, MSHR, bypass-entry, and forward-pair pools.
	for i := 0; i < 16; i++ {
		steps()
	}
	allocs := testing.AllocsPerRun(100, steps)
	if allocs != 0 {
		t.Fatalf("steady-state forward paths allocate %v/op, want 0", allocs)
	}
	if c.Stats.Misses == 0 || c.Stats.Bypasses == 0 {
		t.Fatalf("paths not exercised: %+v", c.Stats)
	}
}

// TestHitPathStillAllocationFree keeps PR 1's hit-path contract pinned
// alongside the forward-path one: the steady-state hit path — including
// the precomputed (setShift, setMask) set-index extraction — performs
// zero allocations per operation.
func TestHitPathStillAllocationFree(t *testing.T) {
	sim := event.New()
	c := allocCache(sim, &quietLower{sim: sim, lat: 5})
	req := &mem.Request{ID: 1, Line: 0x1000, Kind: mem.Load, Done: func() {}}
	c.Submit(req)
	sim.Run()
	allocs := testing.AllocsPerRun(100, func() {
		c.Submit(req)
		sim.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state hit path allocates %v/op, want 0", allocs)
	}
}

// TestMSHRCoalescingReusesPools drives coalesced misses (several loads
// to one pending line) through recycled MSHRs and checks the waiter
// lists are answered and reset across generations.
func TestMSHRCoalescingReusesPools(t *testing.T) {
	sim := event.New()
	c := allocCache(sim, &quietLower{sim: sim, lat: 50})
	const rounds, waiters = 10, 4
	for r := 0; r < rounds; r++ {
		line := mem.Addr(r * 0x4000)
		got := 0
		reqs := make([]*mem.Request, waiters)
		for i := range reqs {
			reqs[i] = &mem.Request{ID: uint64(r*waiters + i), Line: line, Kind: mem.Load,
				Done: func() { got++ }}
			c.Submit(reqs[i])
		}
		sim.Run()
		if got != waiters {
			t.Fatalf("round %d: %d of %d coalesced waiters answered", r, got, waiters)
		}
		if c.PendingMisses() != 0 {
			t.Fatalf("round %d: %d MSHRs leaked", r, c.PendingMisses())
		}
	}
	if c.Stats.Coalesced != (waiters-1)*rounds {
		t.Fatalf("coalesced = %d, want %d", c.Stats.Coalesced, (waiters-1)*rounds)
	}
}

// TestWaitListsAllocationFree pins the steady-state saturation paths at
// zero allocations: loads parked on a full MSHR table, loads parked on a
// set whose every way is pending, and stores waiting on a pending fill.
// The wait lists are threaded through the parked transactions; a list
// dequeued by reslicing reallocated on every later append.
func TestWaitListsAllocationFree(t *testing.T) {
	sim := event.New()
	const sets = 4
	c := New(Config{
		Name: "sat", Sets: sets, Ways: 2,
		HitLatency: 1, LookupLatency: 1, FillLatency: 1,
		MSHRs: 4, BypassEntries: 8, PortsPerCycle: 4, StoreAllocate: true,
	}, sim, &quietLower{sim: sim, lat: 20})
	noop := func() {}
	var reqs []*mem.Request
	// Six lines per set in sets 0 and 1: two ways fill, the rest wait on
	// the set, and once four fills are out, on the MSHRs. The round
	// leaves each set holding its last two lines, so every round misses
	// the same way.
	for set := 0; set < 2; set++ {
		for k := 0; k < 6; k++ {
			line := mem.Addr((k*sets + set) * mem.LineSize)
			reqs = append(reqs, &mem.Request{ID: uint64(len(reqs)), Line: line, Kind: mem.Load, Done: noop})
		}
	}
	// A store to the first line of set 0 waits for that line's fill.
	reqs = append(reqs, &mem.Request{ID: uint64(len(reqs)), Line: 0, Kind: mem.Store, Done: noop})
	round := func() {
		for _, r := range reqs {
			c.Submit(r)
		}
		sim.Run()
	}
	for i := 0; i < 8; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(100, round)
	if allocs != 0 {
		t.Fatalf("steady-state saturation allocates %v/op, want 0", allocs)
	}
	if s := c.Stats; s.StallAlloc == 0 || s.StallMSHR == 0 || s.StallLine == 0 {
		t.Fatalf("wait lists not exercised: alloc %d, mshr %d, line %d stall cycles",
			s.StallAlloc, s.StallMSHR, s.StallLine)
	}
	if c.PendingMisses() != 0 {
		t.Fatalf("%d MSHRs leaked", c.PendingMisses())
	}
}
