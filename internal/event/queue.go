package event

// This file implements the deferred-delivery subsystem. Components that
// used to schedule one closure per deferred hand-off
// (`sim.Schedule(delay, func() { port.Submit(req) })`) instead Push the
// value onto a Queue whose single pre-built drain event delivers every
// due entry; the steady-state hand-off path performs no allocation.
//
// Two primitives are provided:
//
//   - Queue[T]: (time, value) entries drained by one pre-armed event,
//     held in an in-order FIFO lane with a min-heap beside it for
//     out-of-order pushes. Replaces per-request submit closures in the
//     GPU coalescer, the caches' lower-level forwards and retry
//     wake-ups, and the coherence directory hop.
//   - Ticker: a single re-armable callback. Replaces the per-call tick
//     closures (and generation-counter supersession) in the DRAM
//     controller and the SIMD front end.
//
// Ticker owns the arming discipline, and Queue builds on it: scheduled
// fire times form a strictly decreasing stack (`arms`), because a new
// fire is armed only when it is strictly earlier than every outstanding
// one. The Sim fires a ticker's events in time order, so the stack top
// is always the next fire, and a pop-on-fire keeps the bookkeeping
// exact without event cancellation. Fires left behind by an earlier
// re-arm are harmless: drain and tick callbacks are idempotent (they
// deliver whatever is due and re-arm for whatever remains).

// qentry is one deferred delivery: value v due at time at. seq breaks
// same-cycle ties in push order, preserving FIFO determinism.
type qentry[T any] struct {
	at  Cycle
	seq uint64
	v   T
}

func (a *qentry[T]) less(b *qentry[T]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Queue delivers values to a fixed callback at requested cycles, FIFO
// within a cycle, without allocating per delivery. One drain event at a
// time is usually armed; see the package comment on the arming stack.
//
// Entries live in two structures, each ordered by (at, seq): an in-order
// lane, which takes every push due at or after the lane's tail, and a
// min-heap, which takes the rest. Most producers push with a fixed delay
// or at monotone port slots, so their entries never touch the heap; the
// drain delivers whichever head is earlier, which is exactly the order
// one heap over every entry would give.
//
// deliver runs inside the queue's drain event and may push further
// entries onto the same queue (they are delivered in this drain if due,
// later otherwise).
type Queue[T any] struct {
	sim     *Sim
	deliver func(T)
	lane    ring[qentry[T]] // pushes due at or after the lane's tail
	heap    []qentry[T]     // min-heap by (at, seq): every other push
	seq     uint64
	ticker  *Ticker // arms the drain for the earliest due entry
}

// NewQueue builds a delivery queue over sim. deliver must be non-nil.
func NewQueue[T any](sim *Sim, deliver func(T)) *Queue[T] {
	if sim == nil || deliver == nil {
		panic("event: queue needs a sim and a deliver func")
	}
	q := &Queue[T]{sim: sim, deliver: deliver}
	q.ticker = NewTicker(sim, q.drain)
	return q
}

// Push arranges for v to be delivered delay cycles from now.
func (q *Queue[T]) Push(delay Cycle, v T) {
	q.PushAt(q.sim.Now()+delay, v)
}

// PushAt arranges for v to be delivered at absolute cycle t (clamped to
// the current cycle; a same-cycle delivery runs after already-queued
// events, like Schedule(0, ...)).
func (q *Queue[T]) PushAt(t Cycle, v T) {
	if now := q.sim.Now(); t < now {
		t = now
	}
	q.seq++
	e := qentry[T]{at: t, seq: q.seq, v: v}
	if q.lane.n == 0 || q.lane.back().at <= t {
		q.lane.push(e)
	} else {
		q.heap = append(q.heap, e)
		q.siftUp(len(q.heap) - 1)
	}
	q.ticker.ArmAt(t)
}

// Len returns the number of undelivered entries.
func (q *Queue[T]) Len() int { return q.lane.n + len(q.heap) }

// Armed reports whether a drain fire is scheduled that will deliver.
func (q *Queue[T]) Armed() bool { return q.ticker.Armed() }

// Disarm drops every undelivered entry and silences the outstanding
// drain fires (see Ticker.Disarm), keeping the entry buffers' capacity.
// Unlike Reset it is safe while the owning Sim still holds the drain
// events: they fire as no-ops. Idle components (an empty GPU front-end
// shard) use it to shed pending work without event cancellation; a
// later Push re-arms normally.
func (q *Queue[T]) Disarm() {
	q.clear()
	q.ticker.Disarm()
}

// Reset drops every undelivered entry and the ticker's arming state,
// keeping the entry buffers' capacity. Call it together with the owning
// Sim's Reset: the drain events already scheduled there are assumed gone.
func (q *Queue[T]) Reset() {
	q.clear()
	q.seq = 0
	q.ticker.Reset()
}

// clear empties both structures, releasing their values to the GC.
func (q *Queue[T]) clear() {
	q.lane.drop()
	clear(q.heap)
	q.heap = q.heap[:0]
}

// drain is the ticker callback: it delivers every due entry in
// (time, push-order) and re-arms for the earliest remaining entry.
func (q *Queue[T]) drain() {
	now := q.sim.Now()
	for {
		var next *qentry[T]
		fromLane := q.lane.n > 0
		if fromLane {
			next = q.lane.front()
			if len(q.heap) > 0 && q.heap[0].less(next) {
				next, fromLane = &q.heap[0], false
			}
		} else if len(q.heap) > 0 {
			next = &q.heap[0]
		} else {
			return
		}
		if next.at > now {
			q.ticker.ArmAt(next.at)
			return
		}
		if fromLane {
			q.deliver(q.lane.pop().v)
		} else {
			q.deliver(q.pop())
		}
	}
}

// siftUp restores the heap property after appending at index i.
func (q *Queue[T]) siftUp(i int) {
	e := q.heap
	it := e[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !it.less(&e[parent]) {
			break
		}
		e[i] = e[parent]
		i = parent
	}
	e[i] = it
}

// pop removes and returns the heap's minimum entry's value. Caller
// checks non-empty.
func (q *Queue[T]) pop() T {
	e := q.heap
	top := e[0].v
	n := len(e) - 1
	it := e[n]
	var zero T
	e[n].v = zero // release the value so it can be collected
	q.heap = e[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if right := child + 1; right < n && e[right].less(&e[child]) {
				child = right
			}
			if !e[child].less(&it) {
				break
			}
			e[i] = e[child]
			i = child
		}
		e[i] = it
	}
	return top
}

// ring is a first-in, first-out queue that reuses its storage: once it
// has grown to its working size, pushes and pops allocate nothing. The
// zero value is empty.
type ring[T any] struct {
	buf  []T // power-of-two capacity, or nil
	head int // index of the front entry
	n    int // live entries
}

// push appends v at the back, doubling the ring when it is full.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(8, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// front and back return the oldest and the newest entry; valid only
// while n > 0 and until the next push or pop.
func (r *ring[T]) front() *T { return &r.buf[r.head] }
func (r *ring[T]) back() *T  { return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }

// pop removes and returns the oldest entry. Caller checks n > 0.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // release the value so it can be collected
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// drop empties the ring, releasing its values and keeping its capacity.
func (r *ring[T]) drop() {
	for r.n > 0 {
		r.pop()
	}
	r.head = 0
}

// Ticker re-arms a single callback without allocating per arm: ArmAt
// requests a run at (or before) a cycle, and redundant requests for the
// same or later cycles coalesce into the already-scheduled fire. The
// callback must tolerate extra invocations (a later-armed fire that a
// subsequent earlier arm superseded still runs), re-checking its own
// state and re-arming as needed — the natural shape of a component tick.
type Ticker struct {
	sim  *Sim
	fn   Func
	arms []Cycle // strictly decreasing stack of scheduled fire times
	// alive counts the top arms whose fires invoke the callback; the
	// arms below them were cut loose by Disarm and fire as no-ops.
	alive int
	fire  Func // built once; every arm reuses it
}

// NewTicker builds a ticker that runs fn when fired.
func NewTicker(sim *Sim, fn Func) *Ticker {
	if sim == nil || fn == nil {
		panic("event: ticker needs a sim and a callback")
	}
	t := &Ticker{sim: sim, fn: fn}
	t.fire = func() {
		if n := len(t.arms); n > 0 {
			t.arms = t.arms[:n-1]
			if t.alive == 0 {
				return // a fire Disarm orphaned: pop the bookkeeping only
			}
			t.alive--
		}
		t.fn()
	}
	return t
}

// ArmAt schedules the callback to run at cycle at (clamped to now). If a
// fire is already scheduled at an earlier-or-equal cycle, the request
// coalesces into it: that fire's callback is responsible for re-arming
// if its work is not done. On a disarmed ticker the earliest orphaned
// fire is revived instead when it is due at or before the requested
// cycle — the callback may then run earlier than requested, which the
// Ticker contract already allows.
func (t *Ticker) ArmAt(at Cycle) {
	if now := t.sim.Now(); at < now {
		at = now
	}
	if n := len(t.arms); n > 0 && t.arms[n-1] <= at {
		if t.alive == 0 {
			t.alive = 1
		}
		return
	}
	t.arms = append(t.arms, at)
	t.alive++
	t.sim.At(at, t.fire)
}

// Disarm turns every outstanding fire into a no-op: the scheduled
// events still pop their bookkeeping when they come due, but the
// callback is not invoked. Idle components (an empty GPU front-end
// shard) use it to shed stale wake-ups without event cancellation; a
// later ArmAt re-enables the ticker.
func (t *Ticker) Disarm() { t.alive = 0 }

// Reset forgets every outstanding arm, keeping the stack's capacity.
// Call it together with the owning Sim's Reset: the fires already
// scheduled there are assumed dropped. (If a stale fire does survive, it
// pops nothing and invokes the callback, which is idempotent by the
// Ticker contract — but the bookkeeping would no longer be exact.)
func (t *Ticker) Reset() {
	t.arms = t.arms[:0]
	t.alive = 0
}

// Armed reports whether any fire is scheduled that will invoke the
// callback.
func (t *Ticker) Armed() bool { return t.alive > 0 }

// NextFire returns the earliest scheduled fire time; valid only when
// Armed.
func (t *Ticker) NextFire() Cycle { return t.arms[len(t.arms)-1] }
