package event

import "testing"

// BenchmarkScheduleFire pins the schedule→fire round-trip cost of the
// wheel engine per scheduling regime, with the pre-wheel heap reference
// (heapref_test.go) as the comparison baseline. All steady-state wheel
// variants must report 0 allocs/op; CI's bench-smoke job runs every
// sub-benchmark once so the wheel-vs-heap comparison cannot rot.
func BenchmarkScheduleFire(b *testing.B) {
	// near-horizon: delays well inside WheelSpan — the bucket fast path
	// every cache/DRAM/issue latency takes.
	b.Run("near-horizon", func(b *testing.B) {
		s := New()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				s.Schedule(Cycle(n%7+1), tick)
			}
		}
		b.ReportAllocs()
		s.Schedule(1, tick)
		s.Run()
	})
	// past-horizon: every delay spills to the overflow heap and refills
	// the wheel as the clock advances — the worst case for the wheel.
	b.Run("past-horizon", func(b *testing.B) {
		s := New()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				s.Schedule(WheelSpan+Cycle(n%7), tick)
			}
		}
		b.ReportAllocs()
		s.Schedule(WheelSpan, tick)
		s.Run()
	})
	// zero-delay: a same-cycle storm appended to the live bucket
	// mid-drain — pure batch-dispatch throughput.
	b.Run("zero-delay", func(b *testing.B) {
		s := New()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				s.Schedule(0, tick)
			}
		}
		b.ReportAllocs()
		s.Schedule(1, tick)
		s.Run()
	})
	// noc-latency: the delay profile of a multi-tile NoC run — per-link
	// latencies in the tens of cycles plus the occasional multi-hop
	// return path that lands near or past the horizon. Guards the wheel
	// horizon: if accumulated path latencies push the hot delays past
	// WheelSpan, this sub-benchmark's allocs and ns/op degrade toward
	// past-horizon and wheelBits should be raised (see "# Tuning" in
	// event.go).
	b.Run("noc-latency", func(b *testing.B) {
		s := New()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				switch n & 7 {
				case 0:
					// A worst-case mesh round trip: several 24-cycle
					// hops each way stacked on queueing, spilling just
					// past the horizon.
					s.Schedule(WheelSpan+Cycle(n&31), tick)
				case 1, 2:
					// Multi-hop forward paths: a few links deep.
					s.Schedule(Cycle(3*24+n%24), tick)
				default:
					// Single-link hops at the default 24-cycle latency.
					s.Schedule(Cycle(24+n%8), tick)
				}
			}
		}
		b.ReportAllocs()
		s.Schedule(24, tick)
		s.Run()
	})
	// mixed: a fan of pending events across near, boundary, and
	// past-horizon delays — the realistic regime, and the shape that
	// made the old heap pay O(log n) per event.
	b.Run("mixed", func(b *testing.B) {
		s := New()
		benchMixed(s, b.N, b)
	})
	// heap-reference: the identical mixed workload on the pre-wheel
	// binary heap, so the wheel-vs-heap ratio is visible in every bench
	// run without checking out an old commit.
	b.Run("heap-reference", func(b *testing.B) {
		s := &heapSim{}
		benchMixed(s, b.N, b)
	})
}

// benchMixed drives n events through eng with a 256-event fan across a
// mixed delay distribution (near-horizon, horizon boundary, overflow).
func benchMixed(eng engine, n int, b *testing.B) {
	const fan = 256
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < n {
			switch fired & 15 {
			case 0:
				eng.Schedule(0, tick)
			case 1:
				eng.Schedule(WheelSpan-1+Cycle(fired&3), tick)
			case 2:
				eng.Schedule(2*WheelSpan, tick)
			default:
				eng.Schedule(Cycle(fired%13+1), tick)
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < fan && i < n; i++ {
		fired++
		eng.Schedule(Cycle(i%13+1), tick)
	}
	eng.Run()
}

// BenchmarkQueue pins Queue's push→deliver cost on each of its two
// structures. in-order: every delivery re-pushes with a fixed delay, as
// the caches' forward and retry queues do, so every entry rides the
// in-order lane. mixed: re-push delays vary, so most entries land
// before the lane's tail and take the heap. Both must report 0
// allocs/op.
func BenchmarkQueue(b *testing.B) {
	for _, tc := range []struct {
		name  string
		delay func(n int) Cycle
	}{
		{"in-order", func(int) Cycle { return 15 }},
		{"mixed", func(n int) Cycle { return Cycle(n%13 + 1) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const fan = 64
			s := New()
			n := 0
			var q *Queue[int]
			q = NewQueue(s, func(v int) {
				n++
				if n <= b.N-fan {
					q.Push(tc.delay(n), v)
				}
			})
			b.ReportAllocs()
			for i := 0; i < fan && i < b.N; i++ {
				q.Push(tc.delay(i), i)
			}
			s.Run()
		})
	}
}
