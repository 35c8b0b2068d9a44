package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Budgets bounds one workload run. The zero value means "run to
// completion", which costs nothing: no stop condition is installed on
// the engine and no monitor goroutine is started, so the unbudgeted path
// is byte- and allocation-identical to the pre-budget simulator.
//
// All limits are cooperative: the engine polls a stop flag once per
// bucket drain (and once per 1024-event same-cycle cascade interval), so
// a budget is honored within that bound, never mid-event. The one thing
// no budget can interrupt is a single event callback that never returns;
// the watchdog detects that case and reports it through OnStall, but the
// run cannot return until the callback does.
type Budgets struct {
	// Ctx, when non-nil, cancels the run when the context is done. The
	// run returns an *ErrBudgetExceeded wrapping ctx.Err(), so
	// errors.Is(err, context.Canceled) and context.DeadlineExceeded both
	// work.
	Ctx context.Context
	// MaxEvents, when non-zero, stops the run once the engine has fired
	// that many events (within one poll interval of overshoot).
	MaxEvents uint64
	// Timeout, when non-zero, stops the run after that much wall-clock
	// time.
	Timeout time.Duration
	// WatchdogInterval, when non-zero, arms a progress watchdog: if a
	// full interval elapses with zero events fired — the livelock shape
	// where the simulation goroutine is stuck inside one callback —
	// OnStall is invoked (once) with the last observed progress, the
	// run is flagged to stop, and it returns ErrBudgetExceeded with
	// ReasonStalled as soon as the engine polls again. Pick an interval
	// orders of magnitude above a bucket drain (milliseconds of wall
	// time); the engine fires millions of events per second, so a whole
	// empty interval is diagnostic, not noise.
	WatchdogInterval time.Duration
	// OnStall, when non-nil, is called from the watchdog goroutine when
	// the watchdog trips. It is advisory: it may race a run that
	// completes in the same instant (the run's return value is still
	// authoritative), so use it for logging/metrics, not control flow.
	OnStall func(StallInfo)
}

// unbounded reports whether b imposes no limit at all.
func (b Budgets) unbounded() bool {
	return b.Ctx == nil && b.MaxEvents == 0 && b.Timeout == 0 && b.WatchdogInterval == 0
}

// StallInfo is the progress watchdog's report: the fired-event count it
// last observed and how long it watched without seeing it move.
type StallInfo struct {
	// Workload and Variant identify the stalled run.
	Workload, Variant string
	// Fired is the event count that has not advanced.
	Fired uint64
	// Interval is the wall-clock window that elapsed with no progress.
	Interval time.Duration
}

// BudgetReason identifies which limit interrupted a run.
type BudgetReason string

const (
	// ReasonCanceled: the Budgets.Ctx context was canceled or timed out.
	ReasonCanceled BudgetReason = "canceled"
	// ReasonMaxEvents: the fired-event budget was exhausted.
	ReasonMaxEvents BudgetReason = "max-events"
	// ReasonTimeout: the wall-clock budget was exhausted.
	ReasonTimeout BudgetReason = "timeout"
	// ReasonStalled: the progress watchdog saw a full interval with no
	// events fired.
	ReasonStalled BudgetReason = "stalled"
)

// ErrBudgetExceeded reports a run interrupted by a Budgets limit. It
// carries the same diagnostics as the deadlock path — simulated clock,
// events fired, events pending — plus the partial statistics snapshot at
// the stop point, so an interrupted cell is still inspectable.
//
// The interrupted System is NOT automatically reusable: Reset it before
// running anything else on it (the pool layers do this; the chaos tests
// pin that a reset-after-interrupt system is byte-identical to fresh).
type ErrBudgetExceeded struct {
	// Workload and Variant identify the interrupted cell.
	Workload, Variant string
	// Reason is which budget tripped.
	Reason BudgetReason
	// Clock, Fired, Pending are the engine state at the stop point.
	Clock   event.Cycle
	Fired   uint64
	Pending int
	// Elapsed is the wall-clock time the run consumed.
	Elapsed time.Duration
	// Partial is the statistics snapshot at the stop point.
	Partial stats.Snapshot
	// Cause is the underlying context error for ReasonCanceled
	// (context.Canceled or context.DeadlineExceeded), nil otherwise.
	Cause error
}

// Error implements error.
func (e *ErrBudgetExceeded) Error() string {
	return fmt.Sprintf("core: %s under %s stopped (%s) at cycle %d: %d events fired, %d pending, %v elapsed",
		e.Workload, e.Variant, e.Reason, e.Clock, e.Fired, e.Pending, e.Elapsed.Round(time.Millisecond))
}

// Unwrap exposes the context error so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) see through the wrapper.
func (e *ErrBudgetExceeded) Unwrap() error { return e.Cause }

// ErrDeadlock reports a run whose event queue drained (or wedged) before
// the workload's completion callback fired: a wait chain lost its
// wake-up, or queued events can never become runnable. It replaces the
// old diagnostic panic; panics remain only for internal wiring errors.
type ErrDeadlock struct {
	// Workload and Variant identify the deadlocked cell.
	Workload, Variant string
	// Clock is the simulated cycle the engine stopped at.
	Clock event.Cycle
	// Fired is the number of events executed before the deadlock.
	Fired uint64
	// Pending distinguishes a true deadlock (queued-but-unreachable
	// events, e.g. a wait chain that lost its wake-up) from a quietly
	// drained engine whose completion callback never ran.
	Pending int
}

// Error implements error.
func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("core: %s/%s did not finish (deadlock at cycle %d: %d events fired, %d pending)",
		e.Variant, e.Workload, e.Clock, e.Fired, e.Pending)
}

// Stop-flag values the monitor goroutine publishes to the simulation
// goroutine. One atomic word is the whole cross-goroutine protocol.
const (
	flagNone int32 = iota
	flagCanceled
	flagTimeout
	flagStalled
)

// budgetRunner is the per-run state behind RunBudgeted: the sim-side
// stop poll and the monitor goroutine communicate through two atomics
// (flag: monitor → sim, progress: sim → monitor). Everything else is
// goroutine-local.
type budgetRunner struct {
	sys       *System
	maxEvents uint64

	// flag is set (once) by the monitor goroutine: canceled, timeout, or
	// stalled. The sim-side poll observes it within one bucket drain.
	flag atomic.Int32
	// progress is the fired-event count as of the sim's last poll; the
	// watchdog samples it to detect a wedged callback.
	progress atomic.Uint64

	// reason is written by the sim goroutine when the poll trips, read
	// after Run returns. No concurrency: same goroutine.
	reason BudgetReason
}

// poll is the engine stop condition: one comparison for the event
// budget, one atomic store publishing progress, one atomic load checking
// the monitor's verdict. It runs once per bucket drain, between event
// callbacks, on the goroutine driving the simulation.
func (r *budgetRunner) poll() bool {
	fired := r.sys.Sim.Fired()
	if r.maxEvents > 0 && fired >= r.maxEvents {
		r.reason = ReasonMaxEvents
		return true
	}
	r.progress.Store(fired)
	switch r.flag.Load() {
	case flagNone:
		return false
	case flagCanceled:
		r.reason = ReasonCanceled
	case flagTimeout:
		r.reason = ReasonTimeout
	default:
		r.reason = ReasonStalled
	}
	return true
}

// monitor watches the wall-clock limits on its own goroutine and raises
// the stop flag; it exits as soon as it has raised one (the sim side
// takes it from there) or when done closes. ctxDone may be nil.
func (r *budgetRunner) monitor(done <-chan struct{}, ctxDone <-chan struct{},
	timeout, wdInterval time.Duration, onStall func(StallInfo), who func(uint64) StallInfo) {
	var timeoutC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	var tickC <-chan time.Time
	if wdInterval > 0 {
		tick := time.NewTicker(wdInterval)
		defer tick.Stop()
		tickC = tick.C
	}
	last := r.progress.Load()
	for {
		select {
		case <-done:
			return
		case <-ctxDone:
			r.flag.CompareAndSwap(flagNone, flagCanceled)
			return
		case <-timeoutC:
			r.flag.CompareAndSwap(flagNone, flagTimeout)
			return
		case <-tickC:
			// Re-check done first: a tick racing run completion must not
			// flag a stall on a finished run.
			select {
			case <-done:
				return
			default:
			}
			cur := r.progress.Load()
			if cur == last {
				r.flag.CompareAndSwap(flagNone, flagStalled)
				if onStall != nil {
					onStall(who(cur))
				}
				return
			}
			last = cur
		}
	}
}

// RunBudgeted executes a built workload under the given budgets. With a
// zero Budgets it is exactly Run. An interrupted run returns
// *ErrBudgetExceeded (with partial statistics inside); a workload that
// can never finish returns *ErrDeadlock. In both cases the System holds
// the interrupted state for inspection — Reset it before reuse.
func (s *System) RunBudgeted(w workloads.Workload, b Budgets) (stats.Snapshot, error) {
	name := w.Name
	if name == "" {
		name = "unnamed workload"
	}
	if b.Ctx != nil {
		// A context canceled before the run starts: report without
		// simulating anything.
		if err := b.Ctx.Err(); err != nil {
			return stats.Snapshot{}, &ErrBudgetExceeded{
				Workload: name, Variant: s.Variant.Label,
				Reason: ReasonCanceled, Cause: err,
				Clock: s.Sim.Now(), Fired: s.Sim.Fired(), Pending: s.Sim.Pending(),
			}
		}
	}

	var r *budgetRunner
	start := time.Now()
	var stopMonitor func()
	if !b.unbounded() {
		r = &budgetRunner{sys: s, maxEvents: b.MaxEvents}
		if b.Ctx != nil || b.Timeout > 0 || b.WatchdogInterval > 0 {
			done := make(chan struct{})
			stopMonitor = func() { close(done) }
			var ctxDone <-chan struct{}
			if b.Ctx != nil {
				ctxDone = b.Ctx.Done()
			}
			who := func(fired uint64) StallInfo {
				return StallInfo{Workload: name, Variant: s.Variant.Label,
					Fired: fired, Interval: b.WatchdogInterval}
			}
			go r.monitor(done, ctxDone, b.Timeout, b.WatchdogInterval, b.OnStall, who)
		}
		s.Sim.SetStop(r.poll)
		defer s.Sim.SetStop(nil)
	}

	finished := false
	s.GPU.RunWorkload(w.Kernels, func() {
		s.Engine.Finish(func() { finished = true })
	})
	s.Sim.Run()
	if stopMonitor != nil {
		stopMonitor()
	}

	if s.Sim.Stopped() {
		err := &ErrBudgetExceeded{
			Workload: name, Variant: s.Variant.Label,
			Reason:  r.reason,
			Clock:   s.Sim.Now(),
			Fired:   s.Sim.Fired(),
			Pending: s.Sim.Pending(),
			Elapsed: time.Since(start),
			Partial: s.Snapshot(w),
		}
		if err.Reason == ReasonCanceled && b.Ctx != nil {
			err.Cause = b.Ctx.Err()
		}
		return stats.Snapshot{}, err
	}
	if !finished {
		return stats.Snapshot{}, &ErrDeadlock{
			Workload: name, Variant: s.Variant.Label,
			Clock: s.Sim.Now(), Fired: s.Sim.Fired(), Pending: s.Sim.Pending(),
		}
	}
	return s.Snapshot(w), nil
}
