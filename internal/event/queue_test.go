package event

import (
	"math/rand"
	"sort"
	"testing"
)

func TestQueueDeliversInTimeOrder(t *testing.T) {
	s := New()
	var got []int
	q := NewQueue(s, func(v int) { got = append(got, v) })
	q.Push(10, 2)
	q.Push(3, 1)
	q.Push(20, 3)
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order = %v, want %v", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", q.Len())
	}
}

func TestQueueSameCycleFIFO(t *testing.T) {
	s := New()
	var got []int
	q := NewQueue(s, func(v int) { got = append(got, v) })
	for i := 0; i < 100; i++ {
		q.Push(7, i)
	}
	s.Run()
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("same-cycle deliveries out of order at %d: %v", i, got[i])
		}
	}
}

func TestQueueEarlierPushSupersedesArmedDrain(t *testing.T) {
	// Arm a drain at a late time, then push an earlier entry: it must be
	// delivered at its own time, and the stale late fire must not
	// re-deliver or crash.
	s := New()
	var at []Cycle
	var q *Queue[int]
	q = NewQueue(s, func(v int) { at = append(at, s.Now()) })
	q.Push(50, 1)
	s.Schedule(5, func() { q.Push(2, 2) }) // due at 7, earlier than 50
	s.Run()
	if len(at) != 2 || at[0] != 7 || at[1] != 50 {
		t.Fatalf("delivery times = %v, want [7 50]", at)
	}
}

func TestQueueDeliverTimes(t *testing.T) {
	s := New()
	var times []Cycle
	q := NewQueue(s, func(v int) { times = append(times, s.Now()) })
	q.Push(0, 0) // zero delay delivers later this cycle
	q.Push(4, 1)
	s.Run()
	if len(times) != 2 || times[0] != 0 || times[1] != 4 {
		t.Fatalf("delivery times = %v, want [0 4]", times)
	}
}

func TestQueueReentrantPush(t *testing.T) {
	// deliver pushes back into the same queue: same-cycle pushes are
	// delivered within the same drain, future ones re-arm.
	s := New()
	var got []int
	var q *Queue[int]
	q = NewQueue(s, func(v int) {
		got = append(got, v)
		if v < 4 {
			q.Push(0, v+10) // due now: same drain
			q.Push(2, v+1)  // future: re-armed drain
		}
	})
	q.Push(1, 1)
	s.Run()
	want := []int{1, 11, 2, 12, 3, 13, 4}
	if len(got) != len(want) {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deliveries = %v, want %v", got, want)
		}
	}
}

func TestQueueSteadyStateNoAllocs(t *testing.T) {
	s := New()
	n := 0
	q := NewQueue(s, func(v int) { n += v })
	// Warm up the lane, the heap and the arm stack.
	for i := 0; i < 64; i++ {
		q.Push(Cycle(i%7), 1)
	}
	s.Run()
	for _, tc := range []struct {
		name  string
		delay func(i int) Cycle
	}{
		{"in-order", func(i int) Cycle { return Cycle(i / 4) }},
		{"heap-fallback", func(i int) Cycle { return Cycle(31 - i) }},
		{"mixed", func(i int) Cycle { return Cycle(i % 5) }},
	} {
		heapUsed := false
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < 32; i++ {
				q.Push(tc.delay(i), 1)
			}
			heapUsed = heapUsed || len(q.heap) > 0
			s.Run()
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state queue push/drain allocates %v/op, want 0", tc.name, allocs)
		}
		if want := tc.name != "in-order"; heapUsed != want {
			t.Errorf("%s: heap used = %v, want %v", tc.name, heapUsed, want)
		}
	}
}

// pushQueue is the surface the randomized differential drives on both
// Queue and the heap-only reference (queueref_test.go).
type pushQueue interface {
	PushAt(t Cycle, v int)
	Len() int
	Disarm()
	Reset()
}

// queueRec is one observation of a queue scenario: a delivery (v ≥ 0)
// or a Len checkpoint (v = -1 - Len).
type queueRec struct {
	at Cycle
	v  int
}

// runQueueScenario drives a seeded random mix of monotone runs,
// out-of-order, same-cycle and clamped-past pushes (from outside and
// from inside deliveries), partial runs, Disarms and paired
// Queue/Sim Resets through the queue mk builds. It returns what was
// observed and the total events the Sim fired.
func runQueueScenario(seed int64, mk func(*Sim, func(int)) pushQueue) ([]queueRec, uint64) {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	var log []queueRec
	var q pushQueue
	next := 0
	// push makes one push of a randomly chosen shape.
	push := func() {
		now := s.Now()
		var at Cycle
		switch rng.Intn(6) {
		case 0, 1: // extend a monotone run: the lane's fast path
			at = now + Cycle(rng.Intn(4)) + 8
		case 2: // out of order: usually lands before the lane's tail
			at = now + Cycle(rng.Intn(12))
		case 3: // same cycle
			at = now
		case 4: // in the past: clamped to now
			at = now - min(now, Cycle(1+rng.Intn(5)))
		default: // far ahead
			at = now + Cycle(20+rng.Intn(40))
		}
		q.PushAt(at, next)
		next++
	}
	q = mk(s, func(v int) {
		log = append(log, queueRec{at: s.Now(), v: v})
		if next < 3000 && rng.Intn(3) == 0 {
			push()
		}
	})
	var fired uint64
	for step := 0; step < 200; step++ {
		switch r := rng.Intn(20); {
		case r < 12:
			for k := rng.Intn(8); k >= 0; k-- {
				push()
			}
		case r < 17:
			s.RunUntil(s.Now() + Cycle(rng.Intn(16)))
		case r < 19:
			q.Disarm()
		default:
			q.Reset()
			fired += s.Fired()
			s.Reset()
		}
		log = append(log, queueRec{at: s.Now(), v: -1 - q.Len()})
	}
	s.Run()
	log = append(log, queueRec{at: s.Now(), v: -1 - q.Len()})
	return log, fired + s.Fired()
}

// TestQueueRandomizedMatchesSchedule cross-checks the queue against
// plain per-entry scheduling under random pushes, including pushes from
// inside deliveries, and against the heap-only reference Queue under
// random push shapes, partial runs, Disarm and Reset.
func TestQueueRandomizedMatchesSchedule(t *testing.T) {
	type rec struct {
		at Cycle
		v  int
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s := New()
		var got []rec
		var q *Queue[int]
		depth := 0
		q = NewQueue(s, func(v int) {
			got = append(got, rec{at: s.Now(), v: v})
			if depth < 200 && rng.Intn(3) == 0 {
				depth++
				q.Push(Cycle(rng.Intn(6)), depth+1000)
			}
		})
		var want []rec
		base := 0
		for i := 0; i < 30; i++ {
			d := Cycle(rng.Intn(10))
			q.Push(d, base+i)
			want = append(want, rec{at: s.Now() + d, v: base + i})
		}
		s.Run()
		// Every pushed entry must have been delivered at its due time;
		// nested pushes are checked for time-monotonicity only.
		delivered := make(map[int]Cycle)
		for i, r := range got {
			delivered[r.v] = r.at
			if i > 0 && got[i].at < got[i-1].at {
				t.Fatalf("trial %d: deliveries went back in time: %v", trial, got)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].at < want[j].at })
		for _, w := range want {
			at, ok := delivered[w.v]
			if !ok {
				t.Fatalf("trial %d: entry %d never delivered", trial, w.v)
			}
			if at != w.at {
				t.Fatalf("trial %d: entry %d delivered at %d, want %d", trial, w.v, at, w.at)
			}
		}
	}

	var lanePushes, heapPushes int
	for seed := int64(1); seed <= 40; seed++ {
		got, gotFired := runQueueScenario(seed, func(s *Sim, deliver func(int)) pushQueue {
			q := NewQueue(s, deliver)
			return &laneCounter{Queue: q, lane: &lanePushes, heap: &heapPushes}
		})
		want, wantFired := runQueueScenario(seed, func(s *Sim, deliver func(int)) pushQueue {
			return newHeapQueue(s, deliver)
		})
		if gotFired != wantFired {
			t.Fatalf("seed %d: Sim fired %d events, heap reference %d", seed, gotFired, wantFired)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations, heap reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: observation %d = %+v, heap reference %+v", seed, i, got[i], want[i])
			}
		}
	}
	// Both paths must carry real traffic, or the differential proves
	// nothing about one of them.
	if lanePushes < 1000 || heapPushes < 1000 {
		t.Fatalf("pushes: %d to the lane, %d to the heap; want ≥ 1000 each", lanePushes, heapPushes)
	}
}

// laneCounter tallies which structure each Queue push landed in.
type laneCounter struct {
	*Queue[int]
	lane, heap *int
}

func (c *laneCounter) PushAt(t Cycle, v int) {
	h := len(c.Queue.heap)
	c.Queue.PushAt(t, v)
	if len(c.Queue.heap) > h {
		*c.heap++
	} else {
		*c.lane++
	}
}

func TestTickerCoalescesArms(t *testing.T) {
	s := New()
	fired := 0
	var tk *Ticker
	tk = NewTicker(s, func() { fired++ })
	tk.ArmAt(5)
	tk.ArmAt(5) // coalesces
	tk.ArmAt(9) // later: covered by the 5 fire's re-arm responsibility
	s.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1 (arms coalesce)", fired)
	}
	if tk.Armed() {
		t.Fatal("ticker still armed after drain")
	}
}

func TestTickerDisarmSilencesOutstandingFires(t *testing.T) {
	s := New()
	fired := 0
	tk := NewTicker(s, func() { fired++ })
	tk.ArmAt(5)
	tk.ArmAt(3) // stack [5, 3]; two events scheduled
	tk.Disarm()
	if tk.Armed() {
		t.Fatal("disarmed ticker reports Armed")
	}
	s.Run()
	if fired != 0 {
		t.Fatalf("disarmed ticker fired %d times, want 0", fired)
	}
}

func TestTickerRearmAfterDisarmRevivesEarliestFire(t *testing.T) {
	s := New()
	var at []Cycle
	var tk *Ticker
	tk = NewTicker(s, func() { at = append(at, s.Now()) })
	tk.ArmAt(10)
	tk.Disarm()
	// Re-arming for a later cycle revives the orphaned earlier fire:
	// the callback runs early (contractually fine — it re-checks) and
	// exactly once, not twice.
	tk.ArmAt(15)
	if !tk.Armed() {
		t.Fatal("re-armed ticker reports disarmed")
	}
	s.Run()
	if len(at) != 1 || at[0] != 10 {
		t.Fatalf("fire times = %v, want [10] (revived early fire)", at)
	}
}

func TestTickerRearmAfterDisarmAtEarlierCycle(t *testing.T) {
	s := New()
	var at []Cycle
	var tk *Ticker
	tk = NewTicker(s, func() { at = append(at, s.Now()) })
	tk.ArmAt(10)
	tk.Disarm()
	tk.ArmAt(4) // earlier than the orphaned fire: a fresh event
	s.Run()
	// The fresh arm fires at 4; the orphaned fire at 10 stays silent.
	if len(at) != 1 || at[0] != 4 {
		t.Fatalf("fire times = %v, want [4]", at)
	}
}

func TestTickerEarlierArmFires(t *testing.T) {
	s := New()
	var at []Cycle
	var tk *Ticker
	tk = NewTicker(s, func() { at = append(at, s.Now()) })
	tk.ArmAt(20)
	s.Schedule(3, func() { tk.ArmAt(6) })
	s.Run()
	// The earlier arm fires at 6; the superseded arm still fires at 20
	// (tickers cannot cancel), and the callback must tolerate it.
	if len(at) != 2 || at[0] != 6 || at[1] != 20 {
		t.Fatalf("fire times = %v, want [6 20]", at)
	}
}

func TestTickerRearmFromCallback(t *testing.T) {
	s := New()
	n := 0
	var tk *Ticker
	tk = NewTicker(s, func() {
		n++
		if n < 5 {
			tk.ArmAt(s.Now() + 3)
		}
	})
	tk.ArmAt(1)
	end := s.Run()
	if n != 5 {
		t.Fatalf("ticks = %d, want 5", n)
	}
	if end != 13 {
		t.Fatalf("end = %d, want 13", end)
	}
}

func TestTickerSteadyStateNoAllocs(t *testing.T) {
	s := New()
	var tk *Ticker
	tk = NewTicker(s, func() {})
	tk.ArmAt(1)
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		tk.ArmAt(s.Now() + 1)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state ticker arm/fire allocates %v/op, want 0", allocs)
	}
}

// TestRunUntilNeverRewinds is the regression test for the clock-rewind
// bug: RunUntil with a limit below the current cycle used to set
// s.now = limit, silently moving time backwards.
func TestRunUntilNeverRewinds(t *testing.T) {
	s := New()
	s.Schedule(10, func() {})
	s.Schedule(20, func() {})
	if s.RunUntil(10) {
		t.Fatal("RunUntil(10) reported drained with an event at 20 pending")
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %d, want 10", s.Now())
	}
	if s.RunUntil(5) {
		t.Fatal("RunUntil(5) reported drained")
	}
	if s.Now() != 10 {
		t.Fatalf("RunUntil(5) rewound the clock to %d, want 10", s.Now())
	}
	// A drained queue must not rewind either.
	s.RunUntil(100)
	if s.Now() != 20 {
		t.Fatalf("Now = %d after drain, want 20", s.Now())
	}
	s.RunUntil(3)
	if s.Now() != 20 {
		t.Fatalf("RunUntil(3) on a drained sim rewound the clock to %d, want 20", s.Now())
	}
}

// TestQueueReset checks reset drops undelivered entries and the queue
// keeps working on a reset sim.
func TestQueueReset(t *testing.T) {
	s := New()
	var got []int
	q := NewQueue(s, func(v int) { got = append(got, v) })
	q.Push(3, 1)
	q.Push(7, 2)

	q.Reset()
	s.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", q.Len())
	}
	s.Run()
	if len(got) != 0 {
		t.Fatalf("reset queue delivered %v", got)
	}

	q.Push(2, 42)
	s.Run()
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("post-reset delivery = %v, want [42]", got)
	}
	if s.Now() != 2 {
		t.Fatalf("post-reset delivery at %d, want 2", s.Now())
	}
}

// TestTickerReset checks reset clears the arming stack so a reset ticker
// re-arms from scratch.
func TestTickerReset(t *testing.T) {
	s := New()
	fires := 0
	tk := NewTicker(s, func() { fires++ })
	tk.ArmAt(4)

	tk.Reset()
	s.Reset()
	if tk.Armed() {
		t.Fatal("ticker still armed after Reset")
	}
	s.Run()
	if fires != 0 {
		t.Fatalf("reset ticker fired %d times", fires)
	}

	tk.ArmAt(2)
	if !tk.Armed() || tk.NextFire() != 2 {
		t.Fatal("ticker did not re-arm after Reset")
	}
	s.Run()
	if fires != 1 {
		t.Fatalf("post-reset fires = %d, want 1", fires)
	}
}
