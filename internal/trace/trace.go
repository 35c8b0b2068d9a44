// Package trace provides memory-trace capture and replay: a Recorder
// taps the request stream entering the memory hierarchy, a compact
// delta/varint binary format stores it, and a Replayer drives a recorded
// trace back through any cache.Port — trace-driven simulation of the
// memory system without the execution-driven GPU front end, the same
// methodological split many cache studies (and the paper's related work)
// rely on.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/event"
	"repro/internal/mem"
)

// Event is one recorded line request.
type Event struct {
	// Cycle is the submission time.
	Cycle uint64
	// PC identifies the static instruction.
	PC uint64
	// Line is the line-aligned address.
	Line mem.Addr
	// Kind is Load or Store.
	Kind mem.Kind
	// CU is the issuing compute unit.
	CU int32
	// Bypass records the policy decoration at capture time.
	Bypass bool
}

// Trace is a captured request stream in submission order.
type Trace struct {
	Events []Event
}

// magic identifies the file format; the version byte allows evolution.
const magic = "MITR\x01"

// WriteTo encodes the trace. Cycles and lines are delta-encoded as
// varints, which compresses streaming traces well.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	m, err := bw.WriteString(magic)
	n += int64(m)
	if err != nil {
		return n, err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		m, err := bw.Write(buf[:k])
		n += int64(m)
		return err
	}
	if err := put(uint64(len(t.Events))); err != nil {
		return n, err
	}
	var prevCycle uint64
	var prevLine uint64
	for i := range t.Events {
		e := &t.Events[i]
		if e.Cycle < prevCycle {
			return n, fmt.Errorf("trace: events out of order at %d", i)
		}
		if err := put(e.Cycle - prevCycle); err != nil {
			return n, err
		}
		prevCycle = e.Cycle
		// Lines move both directions; zig-zag the delta.
		delta := int64(uint64(e.Line)) - int64(prevLine)
		if err := put(zigzag(delta)); err != nil {
			return n, err
		}
		prevLine = uint64(e.Line)
		if err := put(e.PC); err != nil {
			return n, err
		}
		flags := uint64(e.Kind) & 1
		if e.Bypass {
			flags |= 2
		}
		flags |= uint64(e.CU) << 2
		if err := put(flags); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadFrom decodes a trace written by WriteTo.
func (t *Trace) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return 0, fmt.Errorf("trace: short header: %w", err)
	}
	if string(head) != magic {
		return int64(len(head)), errors.New("trace: bad magic (not a trace file or wrong version)")
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	const maxEvents = 1 << 30
	if count > maxEvents {
		return 0, fmt.Errorf("trace: implausible event count %d", count)
	}
	t.Events = make([]Event, 0, count)
	var cycle, line uint64
	for i := uint64(0); i < count; i++ {
		dc, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("trace: truncated at event %d: %w", i, err)
		}
		cycle += dc
		zl, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, err
		}
		line = uint64(int64(line) + unzigzag(zl))
		// The caches keep way state in a line address's low bits.
		if la := mem.Addr(line); la != mem.LineAddr(la) {
			return 0, fmt.Errorf("trace: event %d line %#x is not line-aligned", i, line)
		}
		pc, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, err
		}
		flags, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, err
		}
		t.Events = append(t.Events, Event{
			Cycle:  cycle,
			PC:     pc,
			Line:   mem.Addr(line),
			Kind:   mem.Kind(flags & 1),
			Bypass: flags&2 != 0,
			CU:     int32(flags >> 2),
		})
	}
	return 0, nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// Recorder captures every request flowing through the ports it taps.
// One Recorder can tap all per-CU L1 ports: the single-threaded event
// loop serializes Submit calls in nondecreasing time order, so the shared
// trace stays monotone.
type Recorder struct {
	sim *event.Sim
	// Trace accumulates the captured stream.
	Trace Trace
}

// NewRecorder builds an empty recorder.
func NewRecorder(sim *event.Sim) *Recorder {
	if sim == nil {
		panic("trace: recorder needs a sim")
	}
	return &Recorder{sim: sim}
}

// Tap returns a Port that records and forwards to inner.
func (r *Recorder) Tap(inner cache.Port) cache.Port {
	if inner == nil {
		panic("trace: tap needs an inner port")
	}
	return cache.PortFunc(func(req *mem.Request) {
		r.Trace.Events = append(r.Trace.Events, Event{
			Cycle:  uint64(r.sim.Now()),
			PC:     req.PC,
			Line:   req.Line,
			Kind:   req.Kind,
			CU:     int32(req.CU),
			Bypass: req.Bypass,
		})
		inner.Submit(req)
	})
}

// ReplayMode selects how a Replayer paces the trace.
type ReplayMode int

const (
	// Timed replays each event at its recorded cycle.
	Timed ReplayMode = iota
	// Windowed ignores recorded timing and keeps a fixed number of
	// requests outstanding — an as-fast-as-possible closed loop.
	Windowed
)

// Replayer drives a trace into a Port.
type Replayer struct {
	sim  *event.Sim
	port cache.Port
	mode ReplayMode
	// Window is the outstanding-request bound for Windowed mode.
	Window int

	// Completed counts responses received.
	Completed uint64

	trace *Trace
	next  int
	done  func()
	ids   mem.IDSource
	out   int
}

// NewReplayer builds a replayer over port.
func NewReplayer(sim *event.Sim, port cache.Port, tr *Trace, mode ReplayMode) *Replayer {
	if sim == nil || port == nil || tr == nil {
		panic("trace: replayer needs a sim, port and trace")
	}
	return &Replayer{sim: sim, port: port, trace: tr, mode: mode, Window: 64}
}

// Start begins the replay; done (optional) runs when every event has
// completed.
func (r *Replayer) Start(done func()) {
	r.done = done
	if len(r.trace.Events) == 0 {
		// Direct call, not Schedule(0, ...): an empty trace has nothing
		// in flight for the completion to order against (batch-dispatch
		// audit, PR 5).
		if done != nil {
			done()
		}
		return
	}
	switch r.mode {
	case Timed:
		for i := range r.trace.Events {
			e := &r.trace.Events[i]
			at := event.Cycle(e.Cycle)
			if at < r.sim.Now() {
				at = r.sim.Now()
			}
			r.sim.At(at, func() { r.issue(e) })
		}
	case Windowed:
		for r.out < r.Window && r.next < len(r.trace.Events) {
			e := &r.trace.Events[r.next]
			r.next++
			r.issue(e)
		}
	default:
		panic(fmt.Sprintf("trace: unknown replay mode %d", r.mode))
	}
}

func (r *Replayer) issue(e *Event) {
	r.out++
	req := &mem.Request{
		ID:     r.ids.Next(),
		PC:     e.PC,
		Line:   e.Line,
		Kind:   e.Kind,
		CU:     int(e.CU),
		Bypass: e.Bypass,
		Done:   r.response,
	}
	r.port.Submit(req)
}

func (r *Replayer) response() {
	r.out--
	r.Completed++
	if r.mode == Windowed {
		for r.out < r.Window && r.next < len(r.trace.Events) {
			e := &r.trace.Events[r.next]
			r.next++
			r.issue(e)
		}
	}
	if r.Completed == uint64(len(r.trace.Events)) && r.done != nil {
		r.done()
	}
}
