package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/workloads"
)

// SystemPool recycles warm System instances across experiment cells.
// Building a System is the dominant cold-start cost of a matrix sweep
// (cache set arrays, MSHR/bypass free lists, per-CU wavefront state,
// DRAM bank state); System.Reset restores a used system to its exact
// just-built observable state while keeping all of that capacity, so a
// pooled system re-runs a cell with almost no allocation.
//
// Systems are pooled per Variant: a system's wiring (store allocation,
// predictor, rinser attachment) is variant-specific and cannot be
// changed after construction. The pool is safe for concurrent use by the
// matrix worker pool; a Get/Put pair costs one mutex acquisition each.
type SystemPool struct {
	cfg Config

	mu   sync.Mutex
	free map[Variant][]*System

	// built/reused/puts are metrics-grade atomic counters so a serving
	// layer can export pool traffic (/metrics) without core importing
	// any HTTP machinery; internal/metrics is dependency-free.
	built  metrics.Counter
	reused metrics.Counter
	puts   metrics.Counter
}

// NewSystemPool builds an empty pool whose systems use cfg. The
// configuration is validated lazily by the first NewSystem call.
func NewSystemPool(cfg Config) *SystemPool {
	return &SystemPool{cfg: cfg, free: make(map[Variant][]*System)}
}

// Config returns the configuration every pooled system was built with.
func (p *SystemPool) Config() Config { return p.cfg }

// Get returns a ready-to-run system for v: a recycled warm one when
// available, a freshly built one otherwise. The caller runs it and,
// if the run completed normally, returns it with Put. A system that
// panicked mid-run must NOT be Put back; dropping it is safe.
func (p *SystemPool) Get(v Variant) (*System, error) {
	p.mu.Lock()
	if ss := p.free[v]; len(ss) > 0 {
		n := len(ss)
		s := ss[n-1]
		ss[n-1] = nil
		p.free[v] = ss[:n-1]
		p.mu.Unlock()
		p.reused.Inc()
		return s, nil
	}
	p.mu.Unlock()

	s, err := NewSystem(p.cfg, v)
	if err != nil {
		return nil, err
	}
	p.built.Inc()
	return s, nil
}

// Put resets s and makes it available to later Get calls for its
// variant. Only systems built with this pool's Config may be returned;
// mixing configurations would silently run cells on the wrong machine.
func (p *SystemPool) Put(s *System) {
	if s.Cfg != p.cfg {
		panic("core: SystemPool.Put of a system built with a different Config")
	}
	s.Reset()
	p.mu.Lock()
	p.free[s.Variant] = append(p.free[s.Variant], s)
	p.mu.Unlock()
	p.puts.Inc()
}

// Counts reports how many systems the pool has constructed and how many
// Get calls were served by reuse (benchmarks and tests).
func (p *SystemPool) Counts() (built, reused uint64) {
	return p.built.Load(), p.reused.Load()
}

// Gets reports the total systems handed out (built + reused); with
// Puts it exposes pool traffic for operational metrics.
func (p *SystemPool) Gets() uint64 { return p.built.Load() + p.reused.Load() }

// Puts reports how many systems have been returned (and reset).
func (p *SystemPool) Puts() uint64 { return p.puts.Load() }

// runCell executes one (spec, variant) cell on a pooled system. On
// success the system goes back to the pool. A budget-interrupted cell's
// system is also re-pooled: Put resets it, and the chaos tests pin that
// a reset-after-interrupt system is byte-identical to a fresh one. A
// deadlocked cell's system is discarded — a deadlock means the model
// itself misbehaved, so its state is not trusted for reuse — and a
// panicking cell's system is abandoned by the unwind, never re-pooled.
func runCell(pool *SystemPool, v Variant, spec workloads.Spec, scale workloads.Scale, b Budgets) (Result, error) {
	sys, err := pool.Get(v)
	if err != nil {
		return Result{}, err
	}
	r, err := runOn(sys, spec, scale, b)
	if err != nil {
		var be *ErrBudgetExceeded
		if errors.As(err, &be) {
			pool.Put(sys)
		}
		return Result{}, err
	}
	pool.Put(sys)
	return r, nil
}

// CellPanic wraps a panic raised inside a matrix cell with the cell's
// identity, so a deadlocked or crashing cell is identifiable from the
// panic message alone. RunMatrixWith re-raises worker panics as
// CellPanic values; recover-ing callers can unwrap Value.
type CellPanic struct {
	// Workload and Variant identify the matrix cell.
	Workload, Variant string
	// Value is the original panic value.
	Value any
}

// Error implements error, which is also what the runtime prints for an
// uncaught panic.
func (cp CellPanic) Error() string {
	return fmt.Sprintf("core: cell %s/%s panicked: %v", cp.Workload, cp.Variant, cp.Value)
}
