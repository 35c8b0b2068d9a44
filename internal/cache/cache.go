// Package cache implements the set-associative GPU caches (per-CU L1 and
// the banked, shared L2) used by the caching-policy study.
//
// The model reproduces the mechanisms the paper identifies as the sources
// of caching overhead in MI workloads:
//
//   - Blocking allocation: a missing request needs a victim way; if every
//     way in the target set holds a pending fill the request stalls until
//     a way frees (Section VI.C.1 of the paper). The allocation-bypass
//     optimization converts such requests to bypass requests instead.
//   - MSHR coalescing: misses to a line with a pending fill merge into the
//     existing MSHR; bypass loads to a pending bypass line merge likewise.
//   - Write combining: under CacheRW the L2 allocates store lines without
//     fetching and holds them dirty until a system-scope flush.
//   - Self-invalidation: valid clean data is dropped at kernel boundaries.
//
// Stall cycles are accounted exactly: a request blocked on ports, MSHRs,
// or allocation accumulates the real number of cycles it waited, matching
// the paper's definition ("any cycle in which a ready cache request is
// blocked from querying a cache at any level").
package cache

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/stats"
)

// Port is any component that accepts line-granularity memory requests.
// Caches, the coherence directory, and the DRAM controller implement it.
type Port interface {
	Submit(req *mem.Request)
}

// PortFunc adapts a function to the Port interface.
type PortFunc func(req *mem.Request)

// Submit implements Port.
func (f PortFunc) Submit(req *mem.Request) { f(req) }

// Predictor decides, per static instruction (PC), whether a request should
// bypass this cache level. The PC-based L2 bypassing optimization
// (Tian et al. [54], applied at L2 per the paper) implements it in
// internal/policy.
type Predictor interface {
	// ShouldBypass reports whether the request at pc should skip
	// allocation at this level.
	ShouldBypass(pc uint64, kind mem.Kind) bool
	// OnHit notifies the predictor that a line allocated by pc was hit.
	OnHit(pc uint64)
	// OnEvict notifies the predictor that a line allocated by pc left
	// the cache, and whether it had been reused while resident.
	OnEvict(pc uint64, reused bool)
}

// Rinser is the dirty-block index used by row-locality-aware cache rinsing
// (Seshadri et al. [58]). The cache keeps it informed of dirty state and,
// on a dirty eviction, asks for the other dirty lines in the same DRAM row
// so they can be written back together.
type Rinser interface {
	OnDirty(line mem.Addr)
	OnClean(line mem.Addr)
	// RowMates returns the dirty lines sharing a DRAM row with line,
	// excluding line itself.
	RowMates(line mem.Addr) []mem.Addr
}

// Config parameterizes one cache instance.
type Config struct {
	// Name labels the instance in errors and debug output.
	Name string
	// Sets and Ways define the geometry. Lines are mem.LineSize bytes.
	Sets, Ways int
	// HitLatency is accept-to-response latency for a hit, in cycles.
	HitLatency event.Cycle
	// LookupLatency is the tag-access time added before a miss or
	// bypass is forwarded to the lower level.
	LookupLatency event.Cycle
	// FillLatency is added between the lower level's response and this
	// cache's response to waiters.
	FillLatency event.Cycle
	// MSHRs bounds outstanding fetch misses (distinct lines).
	MSHRs int
	// BypassEntries bounds outstanding bypassed loads (distinct lines).
	BypassEntries int
	// PortsPerCycle is how many lookups may start per cycle.
	PortsPerCycle int
	// StoreAllocate enables write-combining allocation for stores
	// (the L2 under CacheRW). When false, cached stores are not
	// expected at this level and are treated as bypasses.
	StoreAllocate bool
	// AllocBypass converts requests that would block on allocation
	// into bypass requests (the CacheRW-AB optimization).
	AllocBypass bool
	// Predictor, if non-nil, is consulted for every cacheable request
	// (the CacheRW-PCby optimization).
	Predictor Predictor
	// PredictorSampleEvery forces every Nth predicted-bypass request to
	// cache anyway so the predictor keeps training. Zero disables
	// sampling.
	PredictorSampleEvery int
	// Rinser, if non-nil, enables dirty-block-index rinsing
	// (the CacheRW-CR optimization).
	Rinser Rinser
}

func (c *Config) validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: Sets must be a positive power of two, got %d", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: Ways must be positive, got %d", c.Name, c.Ways)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cache %s: MSHRs must be positive, got %d", c.Name, c.MSHRs)
	}
	if c.BypassEntries <= 0 {
		return fmt.Errorf("cache %s: BypassEntries must be positive, got %d", c.Name, c.BypassEntries)
	}
	if c.PortsPerCycle <= 0 {
		return fmt.Errorf("cache %s: PortsPerCycle must be positive, got %d", c.Name, c.PortsPerCycle)
	}
	return nil
}

type line struct {
	tag    mem.Addr // line address
	valid  bool
	dirty  bool
	busy   bool // fill pending
	lru    uint64
	pc     uint64 // PC that allocated the line (predictor training)
	reused bool   // hit at least once since allocation
}

// mshr tracks one outstanding fetch miss. Each carries its lower-level
// fetch request with a permanently attached Done, so the steady-state
// miss path recycles the whole tracking structure without allocating.
type mshr struct {
	line    mem.Addr
	set     int
	way     int
	waiters []*mem.Request
	fetch   mem.Request // the fetch sent below; Done fills and recycles
}

// bypassEntry tracks one outstanding bypassed load, with its forwarded
// request embedded the same way.
type bypassEntry struct {
	line    mem.Addr
	waiters []*mem.Request
	fwd     mem.Request // the forward sent below; Done responds and recycles
}

// storeFwd pairs a forwarded bypass store with the original request it
// must acknowledge; Done is attached once and survives recycling.
type storeFwd struct {
	fwd  mem.Request
	orig *mem.Request
}

// chainKind identifies the wait list a woken transaction carries wake
// responsibility for.
type chainKind uint8

const (
	chainNone chainKind = iota
	chainSet
	chainMSHR
	chainBypass
)

// stallCause labels what a blocked transaction is waiting for.
type stallCause uint8

const (
	causePort stallCause = iota
	causeAlloc
	causeMSHR
	causeBypass
	causeLine
)

// txn wraps a request while it is being (re)tried at this cache.
type txn struct {
	req          *mem.Request
	blockedSince event.Cycle
	blocked      bool
	cause        stallCause
	// chain marks that this txn was woken from a wait list and must
	// pass the wake-up along when it resolves without re-blocking on
	// the same resource. chainSetIdx qualifies chainSet.
	chain       chainKind
	chainSetIdx int
}

// Cache is one set-associative cache instance attached to a lower-level
// Port. It is not safe for concurrent use; the single-threaded event loop
// drives it.
type Cache struct {
	cfg   Config
	sim   *event.Sim
	lower Port

	sets [][]line
	// setShift/setMask are the set-index extraction pair, stored per
	// instance so the lookup geometry is self-contained on the Cache:
	// the hot setOf is one shift plus one and. (setShift mirrors
	// mem.LineShift today; a per-instance line granularity would change
	// only this pair.)
	setShift uint
	setMask  mem.Addr
	lruTick  uint64
	mshrs    map[mem.Addr]*mshr
	bypasses map[mem.Addr]*bypassEntry

	// port accounting: virtual lookup-slot sequencing. Slot s is
	// serviced in cycle s/PortsPerCycle; blocked requests are scheduled
	// directly at their slot's cycle instead of polling.
	nextSlot uint64

	// wait lists
	setWaiters  map[int][]*txn      // blocked on allocation in a set
	lineWaiters map[mem.Addr][]*txn // stores blocked on a pending fill of their line
	mshrWaiters []*txn              // blocked on a free MSHR
	bypWaiters  []*txn              // blocked on a free bypass entry

	// free lists. The event loop is single-threaded, so plain slices
	// recycle txn wrappers and cache-originated requests without locking;
	// the steady-state hit, miss-fetch, and bypass-forward paths allocate
	// nothing.
	txnFree  []*txn
	reqFree  []*mem.Request
	wbFree   []*mem.Request // writeback requests with a pre-built self-release Done
	mshrFree []*mshr
	bypFree  []*bypassEntry
	sfFree   []*storeFwd

	// delivery queues: each replaces a family of per-request closures
	// with pooled entries drained by one pre-armed event.
	fwdQ   *event.Queue[*mem.Request] // lookup-latency forwards to the lower level
	retryQ *event.Queue[*txn]         // wake-up retries re-entering try
	accQ   *event.Queue[*txn]         // port-slot waits re-entering access

	flushLines []mem.Addr // scratch for FlushDirty's tag walk

	predSample int

	// Stats accumulates this instance's counters.
	Stats stats.CacheStats
}

// New builds a cache. It panics on invalid configuration: geometry errors
// are programming mistakes, not runtime conditions.
func New(cfg Config, sim *event.Sim, lower Port) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if sim == nil || lower == nil {
		panic(fmt.Sprintf("cache %s: nil sim or lower level", cfg.Name))
	}
	c := &Cache{
		cfg:         cfg,
		sim:         sim,
		lower:       lower,
		sets:        make([][]line, cfg.Sets),
		setShift:    mem.LineShift,
		setMask:     mem.Addr(cfg.Sets - 1),
		mshrs:       make(map[mem.Addr]*mshr),
		bypasses:    make(map[mem.Addr]*bypassEntry),
		setWaiters:  make(map[int][]*txn),
		lineWaiters: make(map[mem.Addr][]*txn),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	c.fwdQ = event.NewQueue(sim, func(r *mem.Request) { c.lower.Submit(r) })
	c.retryQ = event.NewQueue(sim, func(t *txn) { c.try(t) })
	c.accQ = event.NewQueue(sim, func(t *txn) { c.access(t) })
	return c
}

// setOf maps a line address to its set index: one shift, one and, both
// operands precomputed on the Cache at construction.
func (c *Cache) setOf(lineAddr mem.Addr) int {
	return int((lineAddr >> c.setShift) & c.setMask)
}

// Submit implements Port. The request is processed starting this cycle.
func (c *Cache) Submit(req *mem.Request) {
	c.try(c.getTxn(req))
}

// getTxn recycles a transaction wrapper from the free list.
func (c *Cache) getTxn(req *mem.Request) *txn {
	if n := len(c.txnFree); n > 0 {
		t := c.txnFree[n-1]
		c.txnFree = c.txnFree[:n-1]
		*t = txn{req: req}
		return t
	}
	return &txn{req: req}
}

// putTxn releases a transaction that has reached a terminal state: its
// request was answered, coalesced into a wait list, or forwarded below.
// Parked transactions stay live and must not be released.
func (c *Cache) putTxn(t *txn) {
	t.req = nil
	c.txnFree = append(c.txnFree, t)
}

// getReq recycles a request object for traffic this cache originates
// (miss fetches, bypass forwards, flush writebacks). The caller must set
// every field it needs; recycled requests come back zeroed.
func (c *Cache) getReq() *mem.Request {
	if n := len(c.reqFree); n > 0 {
		r := c.reqFree[n-1]
		c.reqFree = c.reqFree[:n-1]
		return r
	}
	return &mem.Request{}
}

// putReq returns a cache-originated request to the free list. Safe only
// after its Done has fired: lower levels drop their references before
// (or by) invoking Done.
func (c *Cache) putReq(r *mem.Request) {
	*r = mem.Request{}
	c.reqFree = append(c.reqFree, r)
}

// getWB recycles a fire-and-forget writeback request. Each carries a
// permanently attached Done that returns it to the free list when the
// lower level completes it, so steady-state writebacks allocate nothing.
func (c *Cache) getWB() *mem.Request {
	if n := len(c.wbFree); n > 0 {
		r := c.wbFree[n-1]
		c.wbFree = c.wbFree[:n-1]
		return r
	}
	r := &mem.Request{}
	r.Done = func() {
		*r = mem.Request{Done: r.Done}
		c.wbFree = append(c.wbFree, r)
	}
	return r
}

// getMSHR recycles a miss-tracking entry. A fresh entry's fetch.Done is
// built once: it fills the miss, then returns the entry to the free
// list (the lower level has dropped its reference by the time Done
// fires).
func (c *Cache) getMSHR() *mshr {
	if n := len(c.mshrFree); n > 0 {
		m := c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
		return m
	}
	m := &mshr{}
	m.fetch.Done = func() {
		c.fill(m)
		m.waiters = m.waiters[:0]
		m.fetch = mem.Request{Done: m.fetch.Done}
		c.mshrFree = append(c.mshrFree, m)
	}
	return m
}

// getBypass recycles a bypassed-load entry; its fwd.Done answers every
// coalesced waiter and recycles the entry.
func (c *Cache) getBypass() *bypassEntry {
	if n := len(c.bypFree); n > 0 {
		e := c.bypFree[n-1]
		c.bypFree = c.bypFree[:n-1]
		return e
	}
	e := &bypassEntry{}
	e.fwd.Done = func() {
		delete(c.bypasses, e.line)
		for _, w := range e.waiters {
			c.respond(w, c.cfg.FillLatency)
		}
		e.waiters = e.waiters[:0]
		e.fwd = mem.Request{Done: e.fwd.Done}
		c.bypFree = append(c.bypFree, e)
		c.wakeBypass()
	}
	return e
}

// getStoreFwd recycles a bypass-store forward pair; its fwd.Done acks
// the original request and recycles the pair.
func (c *Cache) getStoreFwd() *storeFwd {
	if n := len(c.sfFree); n > 0 {
		s := c.sfFree[n-1]
		c.sfFree = c.sfFree[:n-1]
		return s
	}
	s := &storeFwd{}
	s.fwd.Done = func() {
		orig := s.orig
		s.orig = nil
		s.fwd = mem.Request{Done: s.fwd.Done}
		c.sfFree = append(c.sfFree, s)
		c.respond(orig, 0)
	}
	return s
}

// try attempts the access now; on any structural block it records the
// stall start and parks the transaction on the appropriate wait list.
func (c *Cache) try(t *txn) {
	now := c.sim.Now()
	// Port check: PortsPerCycle lookups may start per cycle. Claim the
	// next virtual slot; if it lands in a future cycle, wait for it
	// (an exact, poll-free model of tag-port contention).
	nowSlot := uint64(now) * uint64(c.cfg.PortsPerCycle)
	if c.nextSlot < nowSlot {
		c.nextSlot = nowSlot
	}
	slot := c.nextSlot
	c.nextSlot++
	at := event.Cycle(slot / uint64(c.cfg.PortsPerCycle))
	if at > now {
		c.blockFor(t, causePort)
		c.accQ.PushAt(at, t)
		return
	}
	c.access(t)
}

// access dispatches a transaction that holds a port slot this cycle.
func (c *Cache) access(t *txn) {
	req := t.req
	if req.Bypass || (req.Kind == mem.Store && !c.cfg.StoreAllocate) {
		c.tryBypass(t)
		return
	}
	if c.cfg.Predictor != nil && c.cfg.Predictor.ShouldBypass(req.PC, req.Kind) {
		c.predSample++
		if c.cfg.PredictorSampleEvery == 0 || c.predSample%c.cfg.PredictorSampleEvery != 0 {
			c.Stats.PredBypass++
			c.tryBypass(t)
			return
		}
	}
	c.tryCached(t)
}

// blockFor marks the start (or cause change) of a stall episode for t.
func (c *Cache) blockFor(t *txn, cause stallCause) {
	if t.blocked {
		if t.cause == cause {
			return
		}
		c.accountStall(t)
	}
	t.blocked = true
	t.blockedSince = c.sim.Now()
	t.cause = cause
}

// accountStall closes the current stall segment, attributing it.
func (c *Cache) accountStall(t *txn) {
	d := uint64(c.sim.Now() - t.blockedSince)
	t.blockedSince = c.sim.Now()
	if d == 0 {
		return
	}
	c.Stats.Stalls += d
	switch t.cause {
	case causePort:
		c.Stats.StallPort += d
	case causeAlloc:
		c.Stats.StallAlloc += d
	case causeMSHR:
		c.Stats.StallMSHR += d
	case causeBypass:
		c.Stats.StallBypass += d
	case causeLine:
		c.Stats.StallLine += d
	}
}

// unblock ends a stall episode, accumulating the waited cycles, and
// passes along any wake-up chain the transaction carried: the woken txn
// has resolved, so if its origin resource is still available another
// waiter may proceed.
func (c *Cache) unblock(t *txn) {
	if t.blocked {
		c.accountStall(t)
		t.blocked = false
	}
	c.fireChain(t)
}

// fireChain continues the wake-up chain carried by t, if any.
func (c *Cache) fireChain(t *txn) {
	kind := t.chain
	t.chain = chainNone
	switch kind {
	case chainSet:
		if c.setHasFreeWay(t.chainSetIdx) {
			c.wakeSet(t.chainSetIdx)
		}
	case chainMSHR:
		if len(c.mshrs) < c.cfg.MSHRs {
			c.wakeMSHR()
		}
	case chainBypass:
		if len(c.bypasses) < c.cfg.BypassEntries {
			c.wakeBypass()
		}
	}
}

// park appends t to a wait list identified by (kind, set). If t carries a
// wake chain for a different resource, the chain continues; a chain for
// the same resource is dropped (the resource was consumed by someone
// else, whose completion will generate the next wake-up).
func (c *Cache) park(t *txn, kind chainKind, set int) {
	switch kind {
	case chainSet:
		c.blockFor(t, causeAlloc)
	case chainMSHR:
		c.blockFor(t, causeMSHR)
	case chainBypass:
		c.blockFor(t, causeBypass)
	}
	if t.chain != chainNone && !(t.chain == kind && (kind != chainSet || t.chainSetIdx == set)) {
		c.fireChain(t)
	} else {
		t.chain = chainNone
	}
	switch kind {
	case chainSet:
		c.setWaiters[set] = append(c.setWaiters[set], t)
	case chainMSHR:
		c.mshrWaiters = append(c.mshrWaiters, t)
	case chainBypass:
		c.bypWaiters = append(c.bypWaiters, t)
	}
}

// tryCached handles a request that wants to allocate at this level.
func (c *Cache) tryCached(t *txn) {
	req := t.req
	set := c.setOf(req.Line)
	ways := c.sets[set]

	// Hit?
	for i := range ways {
		l := &ways[i]
		if l.valid && !l.busy && l.tag == req.Line {
			c.unblock(t)
			c.putTxn(t)
			c.Stats.Hits++
			c.lruTick++
			l.lru = c.lruTick
			if !l.reused {
				l.reused = true
				if c.cfg.Predictor != nil {
					c.cfg.Predictor.OnHit(l.pc)
				}
			}
			if req.Kind == mem.Store {
				c.markDirty(l)
			}
			c.respond(req, c.cfg.HitLatency)
			return
		}
	}

	// Pending fill for this line? Coalesce loads; stores wait for the
	// fill to complete (they need the line valid to merge into).
	if m, ok := c.mshrs[req.Line]; ok {
		if req.Kind == mem.Load {
			c.unblock(t)
			c.putTxn(t)
			c.Stats.Coalesced++
			m.waiters = append(m.waiters, req)
			return
		}
		c.blockFor(t, causeLine)
		c.fireChain(t) // waiting on a fill, not on the chained resource
		c.lineWaiters[req.Line] = append(c.lineWaiters[req.Line], t)
		return
	}

	// Miss: stores with StoreAllocate combine without fetching;
	// loads need an MSHR.
	// MSHR exhaustion waits; it is tracking-capacity pressure, not the
	// blocking-allocation pathology, and converting here would discard
	// reuse the allocation-bypass optimization means to preserve.
	if req.Kind == mem.Load && len(c.mshrs) >= c.cfg.MSHRs {
		c.park(t, chainMSHR, 0)
		return
	}

	// Find a victim way: prefer invalid, else least-recently-used
	// non-busy way.
	victim := -1
	var bestLRU uint64
	for i := range ways {
		l := &ways[i]
		if l.busy {
			continue
		}
		if !l.valid {
			victim = i
			break
		}
		if victim == -1 || l.lru < bestLRU {
			victim = i
			bestLRU = l.lru
		}
	}
	if victim == -1 {
		// Every way holds a pending fill: blocking allocation.
		if c.cfg.AllocBypass {
			c.Stats.AllocBypass++
			c.tryBypass(t)
			return
		}
		c.park(t, chainSet, set)
		return
	}

	c.unblock(t)
	c.putTxn(t)
	c.evict(set, victim)
	l := &ways[victim]
	c.lruTick++
	*l = line{tag: req.Line, lru: c.lruTick, pc: req.PC}

	if req.Kind == mem.Store {
		// Write-combining allocation: no fetch. The full line is
		// considered written (the coalescer emits line-granularity
		// stores).
		c.Stats.Misses++
		l.valid = true
		c.markDirty(l)
		c.respond(req, c.cfg.HitLatency)
		c.wakeSet(set)
		return
	}

	// Load miss: reserve the way, grab an MSHR, fetch below. The MSHR's
	// embedded fetch request fills the miss from its pre-built Done.
	c.Stats.Misses++
	l.busy = true
	m := c.getMSHR()
	m.line = req.Line
	m.set = set
	m.way = victim
	m.waiters = append(m.waiters, req)
	c.mshrs[req.Line] = m
	m.fetch.ID = req.ID
	m.fetch.PC = req.PC
	m.fetch.Line = req.Line
	m.fetch.Kind = mem.Load
	m.fetch.CU = req.CU
	m.fetch.Wavefront = req.Wavefront
	c.fwdQ.Push(c.cfg.LookupLatency, &m.fetch)
}

// fill completes an outstanding miss: the line becomes valid and all
// coalesced waiters are answered.
func (c *Cache) fill(m *mshr) {
	delete(c.mshrs, m.line)
	l := &c.sets[m.set][m.way]
	if l.busy && l.tag == m.line {
		l.busy = false
		l.valid = true
	}
	for _, w := range m.waiters {
		c.respond(w, c.cfg.FillLatency)
	}
	// Stores that were waiting for this exact fill can all proceed
	// (they will hit the now-valid line, or re-miss harmlessly if a
	// chained allocator evicts it first).
	if lw := c.lineWaiters[m.line]; len(lw) > 0 {
		delete(c.lineWaiters, m.line)
		for _, t := range lw {
			c.retryQ.Push(1, t)
		}
	}
	c.wakeSet(m.set)
	c.wakeMSHR()
}

// tryBypass handles a request that skips allocation at this level.
// Bypass loads to the same line coalesce while the original is pending.
func (c *Cache) tryBypass(t *txn) {
	req := t.req
	if req.Kind == mem.Load {
		if e, ok := c.bypasses[req.Line]; ok {
			c.unblock(t)
			c.putTxn(t)
			c.Stats.Coalesced++
			e.waiters = append(e.waiters, req)
			return
		}
		if len(c.bypasses) >= c.cfg.BypassEntries {
			c.park(t, chainBypass, 0)
			return
		}
		c.unblock(t)
		c.putTxn(t)
		c.Stats.Bypasses++
		e := c.getBypass()
		e.line = req.Line
		e.waiters = append(e.waiters, req)
		c.bypasses[req.Line] = e
		// The forwarded request inherits the original's Bypass flag:
		// a locally-bypassed request (store at a no-store-allocate
		// level, predictor or allocation bypass) may still cache at
		// the level below; only Uncached-policy traffic carries
		// Bypass=true end to end.
		//
		// Bypassed loads traverse the same response pipeline stage as
		// fills, so the uncontested memory latency is
		// policy-independent (Table 1's ≈225 cycles); the entry's
		// pre-built fwd.Done answers all coalesced waiters.
		e.fwd.ID = req.ID
		e.fwd.PC = req.PC
		e.fwd.Line = req.Line
		e.fwd.Kind = mem.Load
		e.fwd.CU = req.CU
		e.fwd.Wavefront = req.Wavefront
		e.fwd.Bypass = req.Bypass
		c.fwdQ.Push(c.cfg.LookupLatency, &e.fwd)
		return
	}

	// Bypass store: forward downward; the lower level acks through the
	// pair's pre-built Done.
	c.unblock(t)
	c.putTxn(t)
	c.Stats.Bypasses++
	sf := c.getStoreFwd()
	sf.orig = req
	sf.fwd.ID = req.ID
	sf.fwd.PC = req.PC
	sf.fwd.Line = req.Line
	sf.fwd.Kind = mem.Store
	sf.fwd.CU = req.CU
	sf.fwd.Wavefront = req.Wavefront
	sf.fwd.Bypass = req.Bypass
	c.fwdQ.Push(c.cfg.LookupLatency, &sf.fwd)
}

// markDirty sets the dirty bit and informs the rinser's dirty-block index.
func (c *Cache) markDirty(l *line) {
	if !l.dirty {
		l.dirty = true
		if c.cfg.Rinser != nil {
			c.cfg.Rinser.OnDirty(l.tag)
		}
	}
}

// evict clears a victim way, writing back dirty data. With a rinser
// attached, a dirty eviction also rinses every other dirty line in the
// same DRAM row (they are written back but stay valid-clean).
func (c *Cache) evict(set, way int) {
	l := &c.sets[set][way]
	if !l.valid {
		return
	}
	if c.cfg.Predictor != nil {
		c.cfg.Predictor.OnEvict(l.pc, l.reused)
	}
	if l.dirty {
		c.writeback(l.tag)
		if c.cfg.Rinser != nil {
			c.cfg.Rinser.OnClean(l.tag)
			for _, mate := range c.cfg.Rinser.RowMates(l.tag) {
				c.rinse(mate)
			}
		}
	}
	l.valid = false
	l.dirty = false
}

// rinse writes back a still-resident dirty line and marks it clean.
func (c *Cache) rinse(lineAddr mem.Addr) {
	set := c.setOf(lineAddr)
	ways := c.sets[set]
	for i := range ways {
		l := &ways[i]
		if l.valid && l.dirty && l.tag == lineAddr {
			l.dirty = false
			c.Stats.Rinses++
			c.writeback(lineAddr)
			if c.cfg.Rinser != nil {
				c.cfg.Rinser.OnClean(lineAddr)
			}
			return
		}
	}
}

// writeback sends a fire-and-forget store toward memory.
func (c *Cache) writeback(lineAddr mem.Addr) {
	c.Stats.Writebacks++
	wb := c.getWB()
	wb.Line = lineAddr
	wb.Kind = mem.Store
	wb.Bypass = true
	c.fwdQ.Push(c.cfg.LookupLatency, wb)
}

// respond completes a request after the given delay.
func (c *Cache) respond(req *mem.Request, delay event.Cycle) {
	if req.Done == nil {
		return
	}
	if delay == 0 {
		req.Done()
		return
	}
	c.sim.Schedule(delay, req.Done)
}

// Wake-ups are chained rather than broadcast: each resource-freeing
// event retries one waiter, and if that waiter resolves without consuming
// the freed resource (e.g. its line has become valid meanwhile), the next
// waiter is retried. Chaining keeps the event count linear in requests
// where a broadcast would be quadratic under saturation, and the
// post-retry availability check makes it deadlock-free.

// wakeSet retries one transaction blocked on allocation in set. The
// transaction carries the wake-up chain: when it resolves without
// re-blocking on the same set, the next waiter is woken if a way remains
// allocatable.
func (c *Cache) wakeSet(set int) {
	ws := c.setWaiters[set]
	if len(ws) == 0 {
		return
	}
	t := ws[0]
	if len(ws) == 1 {
		delete(c.setWaiters, set)
	} else {
		c.setWaiters[set] = ws[1:]
	}
	t.chain = chainSet
	t.chainSetIdx = set
	c.retryQ.Push(1, t)
}

// setHasFreeWay reports whether any way in set could be allocated now.
func (c *Cache) setHasFreeWay(set int) bool {
	ways := c.sets[set]
	for i := range ways {
		if !ways[i].busy {
			return true
		}
	}
	return false
}

// wakeMSHR retries one transaction blocked on a free MSHR; the chain
// continues when it resolves without consuming one.
func (c *Cache) wakeMSHR() {
	if len(c.mshrWaiters) == 0 {
		return
	}
	t := c.mshrWaiters[0]
	c.mshrWaiters = c.mshrWaiters[1:]
	t.chain = chainMSHR
	c.retryQ.Push(1, t)
}

// wakeBypass retries one transaction blocked on a free bypass entry; the
// chain continues when it resolves without consuming one.
func (c *Cache) wakeBypass() {
	if len(c.bypWaiters) == 0 {
		return
	}
	t := c.bypWaiters[0]
	c.bypWaiters = c.bypWaiters[1:]
	t.chain = chainBypass
	c.retryQ.Push(1, t)
}

// InvalidateClean drops every valid clean line, modelling GPU
// self-invalidation at a kernel boundary. Dirty lines (combined stores
// awaiting a system-scope flush) and pending fills are untouched.
func (c *Cache) InvalidateClean() {
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if l.valid && !l.busy && !l.dirty {
				if c.cfg.Predictor != nil {
					c.cfg.Predictor.OnEvict(l.pc, l.reused)
				}
				l.valid = false
				c.Stats.Invalidates++
			}
		}
	}
}

// FlushDirty writes back and invalidates every dirty line, modelling the
// system-scope synchronization flush. done (if non-nil) runs after the
// last writeback has been accepted by the lower level; the flush issues
// writebacks paced by LookupLatency so they arrive as a burst in address
// order, as a hardware flush walker would generate them.
func (c *Cache) FlushDirty(done func()) {
	lines := c.flushLines[:0]
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if l.valid && !l.busy && l.dirty {
				lines = append(lines, l.tag)
				if c.cfg.Predictor != nil {
					c.cfg.Predictor.OnEvict(l.pc, l.reused)
				}
				if c.cfg.Rinser != nil {
					c.cfg.Rinser.OnClean(l.tag)
				}
				l.valid = false
				l.dirty = false
				c.Stats.Invalidates++
			}
		}
	}
	c.flushLines = lines // keep the grown scratch for the next flush
	if len(lines) == 0 {
		// Deliberately Schedule(0, ...), not a direct call: done must
		// observe the documented same-cycle ordering (after events
		// already queued this cycle), keeping a no-dirty-lines flush
		// interleaved identically to a one-line flush. Batch dispatch
		// makes the deferred event cheap but not redundant.
		if done != nil {
			c.sim.Schedule(0, done)
		}
		return
	}
	remaining := len(lines)
	for i, la := range lines {
		c.Stats.Writebacks++
		wb := c.getReq()
		wb.Line = la
		wb.Kind = mem.Store
		wb.Bypass = true
		wb.Done = func() {
			remaining--
			if remaining == 0 && done != nil {
				done()
			}
			c.putReq(wb)
		}
		// The flush walker emits one writeback per cycle, in tag-walk
		// (address) order — a row-friendly burst, as in hardware —
		// through the forward queue rather than one timer per line.
		c.fwdQ.Push(event.Cycle(i)+c.cfg.LookupLatency, wb)
	}
}

// DirtyLines returns the number of valid dirty lines (for tests and the
// harness's sanity checks).
func (c *Cache) DirtyLines() int {
	n := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if l.valid && l.dirty {
				n++
			}
		}
	}
	return n
}

// ValidLines returns the number of valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid {
				n++
			}
		}
	}
	return n
}

// PendingMisses returns the number of outstanding MSHRs (tests).
func (c *Cache) PendingMisses() int { return len(c.mshrs) }

// Reset returns the cache to the observable state of a freshly built
// one: every line invalid, tracking structures and wait lists empty,
// delivery queues drained, statistics zeroed. Free lists, maps, and
// grown scratch buffers keep their capacity, so a reset cache re-runs a
// workload without the cold-start allocations of a fresh one. Call it
// together with the owning Sim's Reset; in-flight requests parked here
// are dropped, their txn wrappers and tracking entries recycled.
func (c *Cache) Reset() {
	for s := range c.sets {
		ways := c.sets[s]
		for w := range ways {
			ways[w] = line{}
		}
	}
	c.lruTick = 0
	c.nextSlot = 0
	c.predSample = 0

	for _, m := range c.mshrs {
		clear(m.waiters) // release dropped waiter requests to the GC
		m.waiters = m.waiters[:0]
		m.fetch = mem.Request{Done: m.fetch.Done}
		c.mshrFree = append(c.mshrFree, m)
	}
	clear(c.mshrs)
	for _, e := range c.bypasses {
		clear(e.waiters)
		e.waiters = e.waiters[:0]
		e.fwd = mem.Request{Done: e.fwd.Done}
		c.bypFree = append(c.bypFree, e)
	}
	clear(c.bypasses)

	for _, ts := range c.setWaiters {
		for _, t := range ts {
			c.putTxn(t)
		}
	}
	clear(c.setWaiters)
	for _, ts := range c.lineWaiters {
		for _, t := range ts {
			c.putTxn(t)
		}
	}
	clear(c.lineWaiters)
	for _, t := range c.mshrWaiters {
		c.putTxn(t)
	}
	c.mshrWaiters = c.mshrWaiters[:0]
	for _, t := range c.bypWaiters {
		c.putTxn(t)
	}
	c.bypWaiters = c.bypWaiters[:0]

	c.fwdQ.Reset()
	c.retryQ.Reset()
	c.accQ.Reset()
	c.Stats = stats.CacheStats{}
}
