package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/persist"
	"repro/internal/resultcache"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// statusClientClosedRequest is nginx's 499: the client went away before
// the response. The writer is dead, so the status is for the access log
// and the handler's own bookkeeping, not the client.
const statusClientClosedRequest = 499

// server runs simulation cells from a shared warm SystemPool with
// bounded concurrency and bounded queueing. The zero value is not
// usable; build with newServer.
type server struct {
	cfg  core.Config
	pool *core.SystemPool
	log  *slog.Logger

	// cache serves repeat requests from memory: the simulator is
	// deterministic, so the canonical request tuple is a content
	// address for the snapshot. nil = caching disabled.
	cache *resultcache.Cache

	// The persistent tier, attached asynchronously: openStore scans
	// the cache directory in the background and publishes the store
	// (and the breaker guarding it) here when the index is rebuilt.
	// storeDone closes when that settles either way; storeState is the
	// lifecycle for /readyz and /metrics.
	store      atomic.Pointer[persist.Store]
	breaker    atomic.Pointer[resultcache.Breaker]
	storeState atomic.Int32
	storeDone  chan struct{}

	// quar refuses (workload, variant) tuples that keep panicking;
	// wallNS is the EWMA of completed-cell wall time (float64 bits)
	// that Retry-After estimates are derived from.
	quar   *quarantine
	wallNS atomic.Uint64

	// sem holds one slot per concurrent simulation; queueMax bounds
	// how many acquirers may block on it before new arrivals are
	// refused outright.
	sem      chan struct{}
	workers  int
	queueMax int64
	queued   atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool

	timeout   time.Duration
	maxEvents uint64
	watchdog  time.Duration
	maxScale  float64

	m serverMetrics

	// runFn is (*core.System).RunBudgeted in production; tests swap it
	// to control timing (backpressure, drain) and failure injection
	// (panic isolation, cancellation) deterministically.
	runFn func(*core.System, workloads.Workload, core.Budgets) (stats.Snapshot, error)
	// matrixFn is core.RunMatrixWith in production; tests swap it to
	// drive the SSE stream deterministically.
	matrixFn func(core.Config, []core.Variant, []workloads.Spec, workloads.Scale, core.RunMatrixOpts) ([]core.Result, error)
}

// serverMetrics holds the server-level counters /metrics exposes.
// Queue depth, inflight, and drain state are read live from the
// server's own atomics; everything event-shaped accumulates here.
type serverMetrics struct {
	runRequests    metrics.Counter // POSTs reaching /run
	matrixRequests metrics.Counter // POSTs reaching /matrix
	refused        metrics.Counter // 429: admission refused
	timeouts       metrics.Counter // 504: budget trips
	internalErrors metrics.Counter // 500: panics, deadlocks, build failures
	clientGone     metrics.Counter // 499: client disconnected mid-run
	quarantined    metrics.Counter // 503: refused because the tuple is quarantined
}

type serverOpts struct {
	Workers   int
	Queue     int
	Timeout   time.Duration
	MaxEvents uint64
	Watchdog  time.Duration
	MaxScale  float64
	// CacheEntries bounds the result cache; 0 disables caching (and the
	// X-Micached-Cache header). CacheBytes additionally bounds the
	// accounted snapshot bytes when positive.
	CacheEntries int
	CacheBytes   int64
	// CacheDir enables the persistent tier (requires CacheEntries > 0):
	// completed snapshots are written through to a crash-safe store
	// there and survive restarts. CacheFsync selects its durability
	// policy; StoreFS is the filesystem seam (nil = the real one; tests
	// inject faults through it).
	CacheDir   string
	CacheFsync bool
	StoreFS    faultfs.FS
	// BreakerFailures consecutive store errors trip the disk circuit
	// breaker (default 5); BreakerCooldown is how long it stays open
	// before probing the disk again (default 10s).
	BreakerFailures int
	BreakerCooldown time.Duration
	// QuarantinePanics consecutive panics of one (workload, variant)
	// quarantine that tuple for QuarantineFor (defaults 3, 60s).
	QuarantinePanics int
	QuarantineFor    time.Duration
	Log              *slog.Logger
}

func newServer(cfg core.Config, o serverOpts) *server {
	if o.Log == nil {
		o.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.BreakerFailures <= 0 {
		o.BreakerFailures = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 10 * time.Second
	}
	if o.QuarantinePanics <= 0 {
		o.QuarantinePanics = 3
	}
	if o.QuarantineFor <= 0 {
		o.QuarantineFor = time.Minute
	}
	var rc *resultcache.Cache
	if o.CacheEntries > 0 {
		rc = resultcache.New(o.CacheEntries, o.CacheBytes)
	}
	s := &server{
		cfg:       cfg,
		pool:      core.NewSystemPool(cfg),
		log:       o.Log,
		cache:     rc,
		quar:      newQuarantine(o.QuarantinePanics, o.QuarantineFor),
		storeDone: make(chan struct{}),
		sem:       make(chan struct{}, o.Workers),
		workers:   o.Workers,
		queueMax:  int64(o.Queue),
		timeout:   o.Timeout,
		maxEvents: o.MaxEvents,
		watchdog:  o.Watchdog,
		maxScale:  o.MaxScale,
		runFn:     (*core.System).RunBudgeted,
		matrixFn:  core.RunMatrixWith,
	}
	if o.CacheDir != "" && rc != nil {
		s.storeState.Store(storeInitializing)
		go s.openStore(o)
	} else {
		close(s.storeDone)
	}
	return s
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/matrix", s.handleMatrix)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// beginDrain flips the server into shutdown mode: /healthz reports 503
// and new /run requests are refused, while requests already admitted
// (running or queued) proceed to completion.
func (s *server) beginDrain() { s.draining.Store(true) }

// Inflight reports how many admitted runs have not finished.
func (s *server) Inflight() int64 { return s.inflight.Load() }

type runRequest struct {
	Workload string  `json:"workload"`
	Variant  string  `json:"variant"`
	Scale    float64 `json:"scale"`
	// Tiles and Topology select a multi-tile NoC system (see
	// core.Config.Topology). Off-default topologies run on a fresh
	// system rather than the shared warm pool, so they pay construction
	// per request; the default (0 / "") keeps the pooled fast path.
	Tiles    int    `json:"tiles,omitempty"`
	Topology string `json:"topology,omitempty"`
}

type runResponse struct {
	Workload  string         `json:"workload"`
	Variant   string         `json:"variant"`
	Scale     float64        `json:"scale"`
	Tiles     int            `json:"tiles,omitempty"`
	Topology  string         `json:"topology,omitempty"`
	ElapsedMS float64        `json:"elapsed_ms"`
	GVOPS     float64        `json:"gvops"`
	GMRs      float64        `json:"gmrs"`
	Snapshot  stats.Snapshot `json:"snapshot"`
}

type errResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
	// Fired and Clock are pointers so a budget trip or deadlock caught
	// at events_fired/clock 0 still serializes its diagnostics
	// ("events_fired":0) instead of silently dropping the fields, while
	// plain request errors omit them entirely.
	Fired *uint64 `json:"events_fired,omitempty"`
	Clock *uint64 `json:"clock,omitempty"`
}

// u64p boxes a diagnostic counter for errResponse.
func u64p(v uint64) *uint64 { return &v }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Cache keys come from core.CellKey — the schema shared with
// micache's -cache-dir store, covering the simulator fingerprint
// (deploy invalidation), the request tuple, and the resolved topology.

// admit reserves a worker slot, waiting in the bounded queue when the
// workers are busy. It reports false after writing the refusal (429) or
// cancellation (503) response; on true the caller owns one sem slot and
// must release it.
func (s *server) admit(w http.ResponseWriter, r *http.Request) bool {
	// Admission: take a worker slot if one is free; otherwise wait in
	// the bounded queue. Anything beyond queue capacity is refused NOW
	// — a client retrying against an overloaded server should back
	// off, not stack up goroutines.
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if s.queued.Add(1) > s.queueMax {
		s.queued.Add(-1)
		s.m.refused.Inc()
		s.setRetryAfter(w, 0)
		writeJSON(w, http.StatusTooManyRequests, errResponse{Error: "server saturated: worker and queue slots full"})
		return false
	}
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
		return true
	case <-r.Context().Done():
		s.queued.Add(-1)
		writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: "canceled while queued"})
		return false
	}
}

// errRunAbandoned resolves a flight whose leader bailed before running
// (refused admission, pool failure): waiters see it and retry.
var errRunAbandoned = errors.New("micached: leader abandoned the run before completion")

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errResponse{Error: "POST only"})
		return
	}
	s.m.runRequests.Inc()
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: "server is draining"})
		return
	}

	var req runRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "bad request body: " + err.Error()})
		return
	}
	spec, err := workloads.ByName(req.Workload)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
		return
	}
	v, err := core.VariantByLabel(req.Variant)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
		return
	}
	if req.Scale == 0 {
		req.Scale = 1.0
	}
	if !(req.Scale > 0) || math.IsInf(req.Scale, 0) || req.Scale > s.maxScale {
		writeJSON(w, http.StatusBadRequest, errResponse{
			Error: fmt.Sprintf("scale must be in (0, %g], got %g", s.maxScale, req.Scale)})
		return
	}
	// An off-default topology reshapes the whole hierarchy, so it cannot
	// reuse pooled systems; validate the derived config now (client
	// error) and build fresh after admission.
	cfg := s.cfg
	topoCustom := req.Tiles > 0 || req.Topology != ""
	if topoCustom {
		if req.Tiles > 0 {
			cfg.Topology.Tiles = req.Tiles
		}
		if req.Topology != "" {
			k, err := noc.ParseKind(req.Topology)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
				return
			}
			cfg.Topology.Kind = k
		}
		if err := cfg.Validate(); err != nil {
			writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
			return
		}
	}

	// A (workload, variant) tuple that keeps panicking is refused
	// before it can burn another worker slot; Retry-After carries the
	// longer of the quarantine remainder and the queue estimate.
	qkey := spec.Name + "/" + v.Label
	if blocked, remaining := s.quar.check(qkey); blocked {
		s.m.quarantined.Inc()
		s.setRetryAfter(w, remaining)
		writeJSON(w, http.StatusServiceUnavailable, errResponse{
			Error: fmt.Sprintf("%s/%s quarantined after repeated panics; retry later", req.Workload, req.Variant)})
		return
	}

	// Cache resolution: a hit is served before any admission or pool
	// traffic; a miss elects this request the key's single-flight
	// leader, so concurrent identical requests wait on this run instead
	// of each burning a worker slot on the same simulation.
	var fl *resultcache.Flight
	key := core.CellKey(cfg, spec.Name, v.Label, req.Scale)
	if s.cache != nil {
		for {
			snap, hit, f, leader := s.cache.Acquire(key)
			if hit {
				s.writeRunResponse(w, req, cfg, topoCustom, snap, 0, "hit")
				return
			}
			if leader {
				fl = f
				break
			}
			snap, err := f.Wait(r.Context())
			if err == nil {
				s.writeRunResponse(w, req, cfg, topoCustom, snap, 0, "hit")
				return
			}
			if r.Context().Err() != nil {
				s.m.clientGone.Inc()
				s.log.Info("client disconnected while collapsed on a flight",
					"workload", req.Workload, "variant", req.Variant)
				writeJSON(w, statusClientClosedRequest, errResponse{Error: "client closed request"})
				return
			}
			// The leader failed (budget, panic, abandonment): loop and
			// contend for leadership of a fresh attempt.
		}
	}
	flightDone := false
	finish := func(snap stats.Snapshot, err error) {
		if fl == nil || flightDone {
			return
		}
		flightDone = true
		s.cache.Complete(fl, snap, err)
	}
	// Any early return below (refused admission, build failure) must
	// release the waiters; completed runs overwrite this with the real
	// outcome before the defer fires.
	defer finish(stats.Snapshot{}, errRunAbandoned)

	if !s.admit(w, r) {
		return
	}
	defer func() { <-s.sem }()

	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	var sys *core.System
	if topoCustom {
		sys, err = core.NewSystem(cfg, v)
	} else {
		sys, err = s.pool.Get(v)
	}
	if err != nil {
		s.m.internalErrors.Inc()
		writeJSON(w, http.StatusInternalServerError, errResponse{Error: err.Error()})
		return
	}

	b := core.Budgets{
		Ctx:              r.Context(),
		MaxEvents:        s.maxEvents,
		Timeout:          s.timeout,
		WatchdogInterval: s.watchdog,
		OnStall: func(si core.StallInfo) {
			s.log.Warn("run stalled", "workload", si.Workload, "variant", si.Variant,
				"fired", si.Fired, "interval", si.Interval)
		},
	}

	start := time.Now()
	snap, runErr, panicked := s.runIsolated(sys, spec.Build(workloads.Scale(req.Scale)), b)
	elapsed := time.Since(start)

	switch {
	case panicked:
		// The system's state is unknown; abandon it to the GC rather
		// than re-pool it. The server itself keeps serving — but a
		// tuple that panics repeatedly gets quarantined so it stops
		// costing worker slots.
		finish(stats.Snapshot{}, runErr)
		s.m.internalErrors.Inc()
		if s.quar.recordPanic(qkey) {
			s.log.Error("variant quarantined after repeated panics",
				"workload", req.Workload, "variant", req.Variant)
		}
		s.log.Error("run panicked", "workload", req.Workload, "variant", req.Variant, "err", runErr)
		writeJSON(w, http.StatusInternalServerError, errResponse{Error: runErr.Error()})
	case runErr == nil:
		if !topoCustom {
			s.pool.Put(sys)
		}
		s.quar.recordHealthy(qkey)
		s.observeWall(elapsed)
		finish(snap, nil)
		s.writeRunResponse(w, req, cfg, topoCustom, snap, elapsed, "miss")
	default:
		finish(stats.Snapshot{}, runErr)
		var be *core.ErrBudgetExceeded
		var dl *core.ErrDeadlock
		switch {
		case errors.As(runErr, &be):
			// Interrupted, not broken: Put resets the system, and the
			// chaos tests pin that reset-after-interrupt ≡ fresh.
			// Off-default topologies were never pooled; let the GC take
			// them.
			if !topoCustom {
				s.pool.Put(sys)
			}
			if errors.Is(runErr, context.Canceled) {
				// Budgets.Ctx is the request context, so this is the
				// client hanging up mid-run — routine, not a budget
				// problem. The writer is dead; the 499 is for the
				// access log and the metrics, not the client.
				s.m.clientGone.Inc()
				s.log.Info("client disconnected mid-run", "workload", req.Workload,
					"variant", req.Variant, "fired", be.Fired, "elapsed", elapsed)
				writeJSON(w, statusClientClosedRequest, errResponse{
					Error:  "client closed request",
					Reason: string(be.Reason),
					Fired:  u64p(be.Fired),
					Clock:  u64p(uint64(be.Clock)),
				})
				return
			}
			s.m.timeouts.Inc()
			s.log.Warn("run over budget", "workload", req.Workload, "variant", req.Variant,
				"reason", be.Reason, "fired", be.Fired, "elapsed", elapsed)
			writeJSON(w, http.StatusGatewayTimeout, errResponse{
				Error:  runErr.Error(),
				Reason: string(be.Reason),
				Fired:  u64p(be.Fired),
				Clock:  u64p(uint64(be.Clock)),
			})
		case errors.As(runErr, &dl):
			// A deadlock means the model misbehaved; the system's
			// state is not trusted for reuse.
			s.m.internalErrors.Inc()
			s.log.Error("run deadlocked", "workload", req.Workload, "variant", req.Variant,
				"clock", dl.Clock, "fired", dl.Fired, "pending", dl.Pending)
			writeJSON(w, http.StatusInternalServerError, errResponse{
				Error: runErr.Error(),
				Fired: u64p(dl.Fired),
				Clock: u64p(uint64(dl.Clock)),
			})
		default:
			s.m.internalErrors.Inc()
			writeJSON(w, http.StatusInternalServerError, errResponse{Error: runErr.Error()})
		}
	}
}

// writeRunResponse renders a successful /run result. source is "hit"
// or "miss"; the X-Micached-Cache header is only sent when caching is
// enabled, so its presence always means the cache was consulted.
func (s *server) writeRunResponse(w http.ResponseWriter, req runRequest, cfg core.Config,
	topoCustom bool, snap stats.Snapshot, elapsed time.Duration, source string) {
	if s.cache != nil {
		w.Header().Set("X-Micached-Cache", source)
	}
	resp := runResponse{
		Workload:  req.Workload,
		Variant:   req.Variant,
		Scale:     req.Scale,
		ElapsedMS: elapsed.Seconds() * 1e3,
		GVOPS:     snap.GVOPS(s.cfg.GPUClockMHz),
		GMRs:      snap.GMRs(s.cfg.GPUClockMHz),
		Snapshot:  snap,
	}
	if topoCustom {
		t := cfg.Topology.WithDefaults()
		resp.Tiles = t.Tiles
		resp.Topology = t.Kind.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

// runIsolated runs one cell, converting a panic into an error so one
// bad request cannot take the server down. The caller must not re-pool
// the system when panicked is true.
func (s *server) runIsolated(sys *core.System, w workloads.Workload, b core.Budgets) (snap stats.Snapshot, err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run panicked: %v", p)
			panicked = true
		}
	}()
	snap, err = s.runFn(sys, w, b)
	return snap, err, false
}
