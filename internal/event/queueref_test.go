package event

// heapQueue is the pre-lane Queue — every entry in one binary min-heap
// over (time, push order) — kept as a test-only reference. It arms the
// same Ticker the same way, so the randomized differential test
// (TestQueueRandomizedMatchesSchedule) can pin the lane+heap Queue
// against it on delivery order, Len and the Sim's fired-event count.
type heapQueue[T any] struct {
	sim     *Sim
	deliver func(T)
	entries []qentry[T] // min-heap by (at, seq)
	seq     uint64
	ticker  *Ticker
}

func newHeapQueue[T any](sim *Sim, deliver func(T)) *heapQueue[T] {
	q := &heapQueue[T]{sim: sim, deliver: deliver}
	q.ticker = NewTicker(sim, q.drain)
	return q
}

func (q *heapQueue[T]) PushAt(t Cycle, v T) {
	if now := q.sim.Now(); t < now {
		t = now
	}
	q.seq++
	q.entries = append(q.entries, qentry[T]{at: t, seq: q.seq, v: v})
	q.siftUp(len(q.entries) - 1)
	q.ticker.ArmAt(t)
}

func (q *heapQueue[T]) Len() int { return len(q.entries) }

func (q *heapQueue[T]) Disarm() {
	q.entries = q.entries[:0]
	q.ticker.Disarm()
}

func (q *heapQueue[T]) Reset() {
	q.entries = q.entries[:0]
	q.seq = 0
	q.ticker.Reset()
}

func (q *heapQueue[T]) drain() {
	now := q.sim.Now()
	for len(q.entries) > 0 && q.entries[0].at <= now {
		q.deliver(q.pop())
	}
	if len(q.entries) > 0 {
		q.ticker.ArmAt(q.entries[0].at)
	}
}

func (q *heapQueue[T]) siftUp(i int) {
	e := q.entries
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

func (q *heapQueue[T]) pop() T {
	e := q.entries
	top := e[0].v
	n := len(e) - 1
	it := e[n]
	q.entries = e[:n]
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
