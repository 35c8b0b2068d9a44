package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/mem"
)

func sampleTrace() *Trace {
	return &Trace{Events: []Event{
		{Cycle: 0, PC: 0x400, Line: 0x1000, Kind: mem.Load, CU: 0},
		{Cycle: 3, PC: 0x404, Line: 0x1040, Kind: mem.Load, CU: 1},
		{Cycle: 3, PC: 0x408, Line: 0x0fc0, Kind: mem.Store, CU: 0, Bypass: true},
		{Cycle: 10, PC: 0x400, Line: 0x2000, Kind: mem.Load, CU: 63},
	}}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var back Trace
	if _, err := back.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("events = %d, want %d", len(back.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if back.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, back.Events[i], tr.Events[i])
		}
	}
}

func TestBadMagicRejected(t *testing.T) {
	var tr Trace
	if _, err := tr.ReadFrom(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncatedRejected(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	var back Trace
	if _, err := back.ReadFrom(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	tr := &Trace{Events: []Event{{Cycle: 5}, {Cycle: 3}}}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err == nil {
		t.Fatal("out-of-order trace encoded")
	}
}

func TestUnalignedLineRejected(t *testing.T) {
	tr := &Trace{Events: []Event{{Cycle: 1, Line: 0x1000}, {Cycle: 2, Line: 0x1001}}}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var back Trace
	if _, err := back.ReadFrom(&buf); err == nil {
		t.Fatal("trace with an unaligned line accepted")
	}
}

// Property: any monotone trace round-trips exactly.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(deltas []uint16, lines []uint32, pcs []uint16) bool {
		var tr Trace
		cycle := uint64(0)
		for i, d := range deltas {
			cycle += uint64(d)
			var line mem.Addr
			if i < len(lines) {
				line = mem.LineAddr(mem.Addr(lines[i]))
			}
			var pc uint64
			if i < len(pcs) {
				pc = uint64(pcs[i])
			}
			tr.Events = append(tr.Events, Event{
				Cycle: cycle, Line: line, PC: pc,
				Kind: mem.Kind(i % 2), CU: int32(i % 64), Bypass: i%3 == 0,
			})
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		var back Trace
		if _, err := back.ReadFrom(&buf); err != nil {
			return false
		}
		if len(back.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if back.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// latencyPort responds after a fixed delay and records arrivals.
type latencyPort struct {
	sim     *event.Sim
	lat     event.Cycle
	arrived []mem.Addr
	times   []event.Cycle
}

func (p *latencyPort) Submit(req *mem.Request) {
	p.arrived = append(p.arrived, req.Line)
	p.times = append(p.times, p.sim.Now())
	if req.Done != nil {
		p.sim.Schedule(p.lat, req.Done)
	}
}

func TestRecorderCaptures(t *testing.T) {
	sim := event.New()
	inner := &latencyPort{sim: sim, lat: 5}
	rec := NewRecorder(sim)
	tap := rec.Tap(inner)
	sim.Schedule(7, func() {
		tap.Submit(&mem.Request{PC: 1, Line: 0x40, Kind: mem.Load, CU: 2})
	})
	sim.Run()
	if len(rec.Trace.Events) != 1 {
		t.Fatalf("events = %d", len(rec.Trace.Events))
	}
	e := rec.Trace.Events[0]
	if e.Cycle != 7 || e.Line != 0x40 || e.CU != 2 {
		t.Fatalf("event = %+v", e)
	}
	if len(inner.arrived) != 1 {
		t.Fatal("recorder swallowed the request")
	}
}

func TestRecorderMultiTapStaysMonotone(t *testing.T) {
	sim := event.New()
	rec := NewRecorder(sim)
	a := rec.Tap(&latencyPort{sim: sim, lat: 1})
	b := rec.Tap(&latencyPort{sim: sim, lat: 1})
	sim.Schedule(2, func() { b.Submit(&mem.Request{Line: 0x40, Kind: mem.Load, CU: 1}) })
	sim.Schedule(1, func() { a.Submit(&mem.Request{Line: 0x80, Kind: mem.Load, CU: 0}) })
	sim.Run()
	if len(rec.Trace.Events) != 2 {
		t.Fatalf("events = %d", len(rec.Trace.Events))
	}
	if rec.Trace.Events[0].Cycle > rec.Trace.Events[1].Cycle {
		t.Fatal("shared trace not monotone")
	}
	var buf bytes.Buffer
	if _, err := rec.Trace.WriteTo(&buf); err != nil {
		t.Fatalf("multi-tap trace not encodable: %v", err)
	}
}

func TestTimedReplayPreservesTiming(t *testing.T) {
	sim := event.New()
	port := &latencyPort{sim: sim, lat: 2}
	tr := sampleTrace()
	rp := NewReplayer(sim, port, tr, Timed)
	finished := false
	rp.Start(func() { finished = true })
	sim.Run()
	if !finished {
		t.Fatal("replay did not finish")
	}
	if rp.Completed != 4 {
		t.Fatalf("completed = %d", rp.Completed)
	}
	for i, e := range tr.Events {
		if port.times[i] != event.Cycle(e.Cycle) {
			t.Fatalf("event %d issued at %d, want %d", i, port.times[i], e.Cycle)
		}
	}
}

func TestWindowedReplayThrottles(t *testing.T) {
	sim := event.New()
	port := &latencyPort{sim: sim, lat: 10}
	var tr Trace
	for i := 0; i < 20; i++ {
		tr.Events = append(tr.Events, Event{Cycle: 0, Line: mem.Addr(i * 64), Kind: mem.Load})
	}
	rp := NewReplayer(sim, port, &tr, Windowed)
	rp.Window = 4
	finished := false
	rp.Start(func() { finished = true })
	// Before the sim runs, only Window requests are outstanding.
	if len(port.arrived) != 4 {
		t.Fatalf("initial outstanding = %d, want 4", len(port.arrived))
	}
	sim.Run()
	if !finished || rp.Completed != 20 {
		t.Fatalf("finished=%v completed=%d", finished, rp.Completed)
	}
}

func TestEmptyTraceReplay(t *testing.T) {
	sim := event.New()
	port := &latencyPort{sim: sim, lat: 1}
	rp := NewReplayer(sim, port, &Trace{}, Timed)
	finished := false
	rp.Start(func() { finished = true })
	sim.Run()
	if !finished {
		t.Fatal("empty replay did not finish")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag(%d) round-trips to %d", v, got)
		}
	}
}
