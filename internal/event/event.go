// Package event provides a deterministic discrete-event simulation engine.
//
// All simulator components share a single Sim. Time is measured in integer
// cycles (GPU clock domain). Events scheduled for the same cycle fire in
// the order they were scheduled, which keeps runs bit-for-bit reproducible.
//
// # Scheduler structure
//
// The engine is a two-level time wheel. The first level is a power-of-two
// ring of per-cycle buckets covering the near horizon — the next WheelSpan
// cycles. Each bucket is an append-only []Func reused across wheel
// revolutions, so scheduling within the horizon is one append plus one
// occupancy-bitmap OR, and same-cycle FIFO order falls out of append order
// with no sequence-number comparisons. Events beyond the horizon spill
// into a small overflow min-heap (ordered by time, then scheduling order)
// that refills the wheel as the clock advances; in a cycle-accurate
// simulator almost everything is scheduled within a short, known horizon
// (next-cycle issue, cache latencies, DRAM timing windows), so the heap
// sees only coarse timers such as kernel-launch latency and flush-walker
// tails.
//
// Dispatch is batched: Run and RunUntil drain an entire bucket per clock
// advance instead of performing one ordered pop per event. Events
// scheduled for the current cycle mid-drain are appended to the live
// bucket and fire in the same drain, preserving the documented
// "delay 0 runs after already-queued same-cycle events" contract.
//
// # Tuning
//
// WheelSpan (2^wheelBits cycles) is the one tunable. It should comfortably
// cover the common scheduling delays of the modelled hardware (here: the
// ≈225-cycle uncontested memory latency, all cache/DRAM/fabric latencies);
// raising wheelBits trades bucket-array memory (one slice header per
// cycle of horizon) for fewer overflow spills. Spills are correct but pay
// the old O(log n) heap cost, so a horizon that captures the hot paths is
// all that matters — coarse one-off timers can spill freely.
//
// Multi-tile topologies stack internal/noc link latencies on top of the
// cache and DRAM delays: a request crossing an H-hop path schedules one
// event per hop (each well under WheelSpan at the default 24-cycle link
// latency) plus one return event at the whole path's one-way latency.
// With the built-in topologies (≤ 8×8 mesh, worst path ≈ 16 hops ≈ 384
// cycles) every hot delay still fits the 512-cycle horizon. If you
// raise link latency or build deeper custom graphs so that H × latency
// approaches WheelSpan, the return events start spilling to the
// overflow heap on every request — BenchmarkScheduleFire/noc-latency
// tracks exactly this regime, and a drift of its ns/op toward the
// past-horizon sub-benchmark is the signal to raise wheelBits.
package event

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, in GPU clock cycles.
type Cycle uint64

// Func is the callback invoked when an event fires.
type Func func()

// ErrStopped describes a Run or RunUntil that returned early because the
// cooperative stop condition (SetStop) fired: the clock and fired-event
// count at the stop point, and how many events were left pending. The
// harness layers above (budgets, cancellation, watchdogs) wrap it into
// their own diagnostics.
type ErrStopped struct {
	// Clock is the simulated cycle at which the run stopped.
	Clock Cycle
	// Fired is the number of events executed when the stop triggered.
	Fired uint64
	// Pending is the number of events still waiting to fire.
	Pending int
}

// Error implements error.
func (e *ErrStopped) Error() string {
	return fmt.Sprintf("event: run stopped at cycle %d (%d events fired, %d pending)",
		e.Clock, e.Fired, e.Pending)
}

const (
	// wheelBits sizes the near-horizon bucket ring. It must be at least
	// 6: the occupancy bitmap packs 64 buckets per word, and the ring
	// scan requires a whole (power-of-two) number of words.
	wheelBits = 9
	// WheelSpan is the scheduling horizon of the wheel level: an event
	// with delay < WheelSpan goes into a per-cycle bucket (O(1));
	// farther events spill into the overflow heap until the clock
	// advances to within WheelSpan of them.
	WheelSpan Cycle = 1 << wheelBits
	wheelMask       = int(WheelSpan - 1)
	occWords        = int(WheelSpan) / 64
)

// Compile-time guard: wheelBits >= 6 (see the wheelBits comment); a
// smaller ring would make occWords zero and every At panic.
const _ = uint(wheelBits - 6)

// item is one overflow-heap entry. seq breaks same-cycle ties in
// scheduling order; wheel buckets need no seq, append order is FIFO.
type item struct {
	at  Cycle
	seq uint64
	fn  Func
}

// less orders items by time, breaking ties by scheduling order (the
// same-cycle FIFO determinism contract).
func (a item) less(b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Sim is a discrete-event simulator. The zero value is ready to use.
//
// Nothing on the scheduling or dispatch path boxes into an interface or
// allocates per event: wheel buckets and the overflow heap are concrete
// slices whose growth is amortized, and bucket storage is reused across
// wheel revolutions.
type Sim struct {
	now   Cycle
	fired uint64

	// wheel is the near-horizon level: bucket (t & wheelMask) holds the
	// events of cycle t for now <= t < now+WheelSpan. head indexes the
	// next unfired event of the current cycle's bucket; mid-drain
	// schedules for the current cycle append behind it.
	wheel      [int(WheelSpan)][]Func
	occ        [occWords]uint64 // occupancy bitmap over wheel buckets
	wheelLive  int              // unfired events across all buckets
	head       int
	wheelReady bool // buckets carved from the seed arena

	// overflow is the far-future level: a binary min-heap (maintained
	// inline over a concrete slice) of events at now+WheelSpan or later,
	// drained into the wheel as the clock advances.
	overflow []item
	seq      uint64

	maxLen int

	// stop, when non-nil, is the cooperative stop condition: polled once
	// per bucket drain (and at cascade-compaction points, so unbounded
	// same-cycle cascades stay interruptible). When it returns true the
	// current Run/RunUntil returns early with stopped set. Unset, it
	// costs one nil check per clock advance — nothing per event.
	stop    func() bool
	stopped bool
}

// New returns a fresh simulator at cycle 0.
func New() *Sim { return &Sim{} }

// Now returns the current simulated cycle.
func (s *Sim) Now() Cycle { return s.now }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of events waiting to fire, across the wheel
// buckets and the overflow heap.
func (s *Sim) Pending() int { return s.wheelLive + len(s.overflow) }

// SetStop installs (or, with nil, removes) the cooperative stop
// condition. The engine polls it once per bucket drain — i.e. once per
// clock advance that had events — and additionally every
// bucketCompactLen events inside a sustained same-cycle cascade, so
// every livelock shape is polled at a bounded event interval. When the
// poll returns true, the running Run/RunUntil returns immediately with
// events still pending; Stopped reports the interruption and StopError
// describes it. SetStop clears any previous stop state.
//
// The stop function runs on the simulation goroutine between event
// callbacks; it must not schedule events or re-enter the Sim. Polls are
// bounded but not per-event: a stop request is honored within one
// bucket (or one compaction interval), so budget enforcement built on
// top overshoots by at most that much.
func (s *Sim) SetStop(stop func() bool) {
	s.stop = stop
	s.stopped = false
}

// Stopped reports whether the most recent Run or RunUntil returned early
// because the stop condition fired. Starting a new Run/RunUntil or
// calling SetStop or Reset clears it.
func (s *Sim) Stopped() bool { return s.stopped }

// StopError returns an *ErrStopped describing the interrupted run, or
// nil when the engine is not stopped.
func (s *Sim) StopError() *ErrStopped {
	if !s.stopped {
		return nil
	}
	return &ErrStopped{Clock: s.now, Fired: s.fired, Pending: s.Pending()}
}

// checkStop polls the stop condition, latching stopped. It reports
// whether the current drain loop should bail out.
func (s *Sim) checkStop() bool {
	if s.stop != nil && s.stop() {
		s.stopped = true
	}
	return s.stopped
}

// Schedule arranges for fn to run delay cycles from now. A delay of zero
// runs fn later in the current cycle, after already-queued same-cycle
// events.
func (s *Sim) Schedule(delay Cycle, fn Func) {
	s.At(s.now+delay, fn)
}

// At arranges for fn to run at absolute cycle t. Scheduling in the past
// panics: it would silently corrupt causality.
func (s *Sim) At(t Cycle, fn Func) {
	if t < s.now {
		panic("event: scheduling in the past")
	}
	if fn == nil {
		panic("event: nil event func")
	}
	if !s.wheelReady {
		s.initWheel()
	}
	if t-s.now < WheelSpan {
		b := int(t) & wheelMask
		s.wheel[b] = append(s.wheel[b], fn)
		s.occ[b>>6] |= 1 << (uint(b) & 63)
		s.wheelLive++
	} else {
		s.seq++
		s.overflow = append(s.overflow, item{at: t, seq: s.seq, fn: fn})
		s.siftUp(len(s.overflow) - 1)
	}
	if n := s.wheelLive + len(s.overflow); n > s.maxLen {
		s.maxLen = n
	}
}

// bucketSeedCap is the initial capacity every wheel bucket is carved
// with. Buckets whose per-cycle load exceeds it grow normally (and keep
// the grown capacity for their ring slot); the seed only ensures that
// warming the engine for one scheduling pattern warms every bucket at
// once, so steady-state scheduling is allocation-free after the first
// few events rather than after a full wheel revolution.
const bucketSeedCap = 16

// initWheel carves all bucket slices from one arena allocation. Called
// on the first schedule; Reset keeps the carved (or grown) capacity.
func (s *Sim) initWheel() {
	s.wheelReady = true
	arena := make([]Func, 0, int(WheelSpan)*bucketSeedCap)
	for i := range s.wheel {
		lo := i * bucketSeedCap
		s.wheel[i] = arena[lo : lo : lo+bucketSeedCap]
	}
}

// siftUp restores the overflow heap property after appending at index i.
func (s *Sim) siftUp(i int) {
	q := s.overflow
	it := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !it.less(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = it
}

// popOverflow removes and returns the minimum overflow item. The caller
// checks non-empty.
func (s *Sim) popOverflow() item {
	q := s.overflow
	top := q[0]
	n := len(q) - 1
	it := q[n]
	q[n].fn = nil // release the callback so it can be collected
	s.overflow = q[:n]
	if n > 0 {
		// Sift the former last element down from the root.
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if right := child + 1; right < n && q[right].less(q[child]) {
				child = right
			}
			if !q[child].less(it) {
				break
			}
			q[i] = q[child]
			i = child
		}
		q[i] = it
	}
	return top
}

// refill drains every overflow event now inside the wheel horizon into
// its bucket. Called after every clock advance; heap pops come out in
// (time, scheduling order), and any later direct schedule for the same
// cycle appends behind them, so cross-level FIFO order is preserved.
func (s *Sim) refill() {
	horizon := s.now + WheelSpan
	for len(s.overflow) > 0 && s.overflow[0].at < horizon {
		it := s.popOverflow()
		b := int(it.at) & wheelMask
		s.wheel[b] = append(s.wheel[b], it.fn)
		s.occ[b>>6] |= 1 << (uint(b) & 63)
		s.wheelLive++
	}
}

// finalizeBucket resets the fully fired current-cycle bucket for its next
// revolution: length truncated (capacity kept), occupancy bit cleared,
// drain cursor rewound. Fired slots were already nil'd during dispatch.
func (s *Sim) finalizeBucket(b int) {
	if len(s.wheel[b]) > 0 {
		s.wheel[b] = s.wheel[b][:0]
	}
	s.head = 0
	s.occ[b>>6] &^= 1 << (uint(b) & 63)
}

// nextWheelTime returns the cycle of the earliest occupied wheel bucket
// strictly after now. Precondition: the current cycle's bucket has been
// finalized (its occupancy bit is clear) and wheelLive > 0.
func (s *Sim) nextWheelTime() Cycle {
	start := (int(s.now) + 1) & wheelMask
	w := start >> 6
	if v := s.occ[w] & (^uint64(0) << (uint(start) & 63)); v != 0 {
		b := w<<6 | bits.TrailingZeros64(v)
		return s.now + Cycle((uint(b)-uint(s.now))&uint(wheelMask))
	}
	for i := 1; i <= occWords; i++ {
		w2 := (w + i) & (occWords - 1)
		if v := s.occ[w2]; v != 0 {
			b := w2<<6 | bits.TrailingZeros64(v)
			return s.now + Cycle((uint(b)-uint(s.now))&uint(wheelMask))
		}
	}
	panic("event: wheel accounting corrupt (live events but no occupied bucket)")
}

// nextTime returns the earliest pending event time. All wheel events lie
// within [now, now+WheelSpan) and all overflow events at or beyond the
// horizon, so the wheel always wins when it is non-empty. Precondition:
// the current cycle's bucket has been finalized.
func (s *Sim) nextTime() (Cycle, bool) {
	if s.wheelLive > 0 {
		return s.nextWheelTime(), true
	}
	if len(s.overflow) > 0 {
		return s.overflow[0].at, true
	}
	return 0, false
}

// bucketCompactLen is the drain progress beyond which the live bucket is
// compacted mid-cycle. Only sustained same-cycle cascades (every fired
// event scheduling another zero-delay event) reach it; compaction keeps
// bucket memory bounded by the undrained tail instead of growing with
// the cascade length.
const bucketCompactLen = 1024

// compactBucket shifts the undrained tail of the live bucket to the
// front once a long same-cycle cascade has consumed most of it.
func (s *Sim) compactBucket(b int) {
	bucket := s.wheel[b]
	rem := copy(bucket, bucket[s.head:])
	for i := rem; i < len(bucket); i++ {
		bucket[i] = nil // release moved slots so callbacks can be collected
	}
	s.wheel[b] = bucket[:rem]
	s.head = 0
}

// drainCurrent fires every event of the current cycle — batch dispatch:
// one bucket walk per clock advance instead of one ordered pop per event.
// Events the callbacks schedule for this same cycle land behind head in
// the live bucket and fire in this drain. The bucket is finalized for its
// next revolution afterwards.
func (s *Sim) drainCurrent() {
	for {
		b := int(s.now) & wheelMask
		if s.head >= len(s.wheel[b]) {
			s.finalizeBucket(b)
			s.checkStop() // once per bucket drain; Run/RunUntil observe stopped
			return
		}
		if s.head >= bucketCompactLen {
			s.compactBucket(b)
			if s.checkStop() {
				// Mid-cascade stop: leave the undrained tail in place
				// (Reset handles a mid-drain bucket) and bail out.
				return
			}
		}
		fn := s.wheel[b][s.head]
		s.wheel[b][s.head] = nil // release the callback so it can be collected
		s.head++
		s.wheelLive--
		s.fired++
		fn()
	}
}

// Step executes the next event, if any, advancing the clock to its time.
// It reports whether an event was executed.
func (s *Sim) Step() bool {
	b := int(s.now) & wheelMask
	if s.head >= len(s.wheel[b]) {
		s.finalizeBucket(b)
		t, ok := s.nextTime()
		if !ok {
			return false
		}
		s.now = t
		s.refill()
		b = int(s.now) & wheelMask
	} else if s.head >= bucketCompactLen {
		s.compactBucket(b)
	}
	fn := s.wheel[b][s.head]
	s.wheel[b][s.head] = nil
	s.head++
	s.wheelLive--
	s.fired++
	fn()
	return true
}

// Run executes events until the queue drains and returns the final cycle.
// If a stop condition is installed (SetStop) and fires, Run returns early
// at the stop cycle with events still pending; Stopped/StopError report
// it. A stopped engine may be Run again (resuming where it stopped) or
// Reset.
func (s *Sim) Run() Cycle {
	s.stopped = false
	for {
		s.drainCurrent()
		if s.stopped {
			return s.now
		}
		t, ok := s.nextTime()
		if !ok {
			return s.now
		}
		s.now = t
		s.refill()
	}
}

// RunUntil executes events with time ≤ limit. It returns true if the queue
// drained, false if events at cycles beyond limit remain. A limit in the
// past leaves the clock untouched: time never rewinds. A stop condition
// (SetStop) interrupts RunUntil exactly as it does Run; a stopped
// RunUntil reports false without advancing the clock to limit.
func (s *Sim) RunUntil(limit Cycle) bool {
	s.stopped = false
	if s.now <= limit {
		for {
			s.drainCurrent()
			if s.stopped {
				return false
			}
			t, ok := s.nextTime()
			if !ok || t > limit {
				break
			}
			s.now = t
			s.refill()
		}
	}
	if s.Pending() == 0 {
		return true
	}
	if limit > s.now {
		s.now = limit
		s.refill() // the horizon moved; pull due overflow into the wheel
	}
	return false
}

// MaxQueueLen reports the high-water mark of pending events — the peak of
// Pending() across the run, summed over the wheel buckets and the
// overflow heap — useful for harness diagnostics.
func (s *Sim) MaxQueueLen() int { return s.maxLen }

// Reset returns the simulator to the state of a freshly built one — cycle
// 0, nothing fired, nothing pending — while keeping the grown capacity of
// every wheel bucket and of the overflow heap, so a reset simulator
// re-runs without cold-start allocations. The wheel rewinds to cycle 0
// mid-revolution: bucket indices are derived from the absolute cycle, so
// clearing the buckets and the clock together is sufficient. Pending
// events are dropped, not fired. Components that track their own arming
// state on top of the Sim (Ticker, Queue) must be Reset alongside, or
// their bookkeeping would reference events that no longer exist.
func (s *Sim) Reset() {
	if s.wheelLive > 0 {
		for w, v := range s.occ {
			for v != 0 {
				b := w<<6 | bits.TrailingZeros64(v)
				v &= v - 1
				bucket := s.wheel[b]
				for i := range bucket {
					bucket[i] = nil // release callbacks so they can be collected
				}
				s.wheel[b] = bucket[:0]
			}
		}
	}
	// The current cycle's bucket may hold fired-but-not-finalized slots
	// even when no live events remain — and its occupancy bit may still
	// be set, so the bitmap is cleared unconditionally below (a stale
	// bit would later steer nextWheelTime into an empty bucket).
	b := int(s.now) & wheelMask
	if len(s.wheel[b]) > 0 {
		s.wheel[b] = s.wheel[b][:0]
	}
	s.occ = [occWords]uint64{}
	s.wheelLive = 0
	s.head = 0
	for i := range s.overflow {
		s.overflow[i].fn = nil // release callbacks so they can be collected
	}
	s.overflow = s.overflow[:0]
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.maxLen = 0
	// A fresh engine has no stop condition: budgets are installed per
	// run by the harness, never inherited across a Reset.
	s.stop = nil
	s.stopped = false
}
