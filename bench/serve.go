package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
)

// serveWorkload is one traffic mix against a micached process.
type serveWorkload struct {
	// scales and specs span the key catalog, with every variant.
	scales []float64
	specs  []workloads.Spec
	// phase is the timed traffic: "miss", "disk" or "hot".
	phase string
	// rate is the open-loop request rate of the disk and hot phases.
	rate float64
	// zipfS is the skew of the hot phase's key popularity.
	zipfS float64
}

// conns is the generator's connection (and client goroutine) count.
const conns = 2

// maxLagP99 bounds how late the open-loop generator may send; beyond
// it, latencies describe the generator rather than the server and the
// run is counted as failed.
const maxLagP99 = 10 * time.Millisecond

func serveWorkloads() map[string]serveWorkload {
	base := serveWorkload{scales: []float64{0.05, 0.1}, specs: specsExcept("CM"), rate: 1000, zipfS: 1.1}
	miss, disk, hot := base, base, base
	miss.phase, disk.phase, hot.phase = "miss", "disk", "hot"
	return map[string]serveWorkload{"serve-miss": miss, "serve-disk": disk, "serve-hot": hot}
}

// serverConfig is the machine micached simulates under serverEnv.
func serverConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.GPU.CUs = 32
	return cfg
}

// catalog lists the workload's keys in canonical order: scale, then
// spec, then variant.
func (w serveWorkload) catalog() []cacheEntry {
	var out []cacheEntry
	for _, sc := range w.scales {
		for _, s := range w.specs {
			for _, v := range core.AllVariants() {
				out = append(out, cacheEntry{workload: s.Name, variant: v.Label, scale: sc})
			}
		}
	}
	return out
}

// serveRun is the state of one serve workload run.
type serveRun struct {
	w       serveWorkload
	o       runOpts
	res     *childResult
	rng     *rand.Rand
	entries []cacheEntry
	bodies  [][]byte
	// ref[k] is key k's snapshot as first served; every later reply
	// for k must match it byte for byte.
	ref    []json.RawMessage
	setups []time.Duration
	rss    []float64
	lat    []time.Duration
	lag    []time.Duration
	// passes are the durations of the timed traffic passes.
	passes []time.Duration
	deltas map[string]float64
	qpeak  float64
	sent   int
	dirSeq int
}

// freshDir returns a new, empty cache directory inside the run's
// scratch space.
func (r *serveRun) freshDir() string {
	r.dirSeq++
	return filepath.Join(r.o.scratch, fmt.Sprintf("cache-%d", r.dirSeq))
}

// start launches micached; every start counts as a set-up sample.
func (r *serveRun) start(dir string) (*micached, error) {
	m, err := startMicached(r.o.micached, dir)
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, m.ready)
	return m, nil
}

// stop drains a server; servers that carried timed traffic contribute
// their peak RSS.
func (r *serveRun) stop(m *micached, timed bool) error {
	rss, err := m.stop()
	if err != nil {
		return err
	}
	if timed {
		r.rss = append(r.rss, rss)
	}
	return nil
}

// check validates one reply: status 200, the expected cache outcome,
// and a snapshot identical to the key's reference. With record set, the
// first reply for a key becomes its reference.
func (r *serveRun) check(rp reply, wantCache string, record bool) {
	switch {
	case rp.err != nil:
		r.res.fail("request %d: %v", rp.key, rp.err)
	case rp.status != http.StatusOK:
		r.res.fail("request %d: HTTP %d", rp.key, rp.status)
	case rp.cache != wantCache:
		r.res.fail("request %d: X-Micached-Cache %q, want %q", rp.key, rp.cache, wantCache)
	case record && r.ref[rp.key] == nil:
		r.ref[rp.key] = rp.snapshot
		return
	case !bytes.Equal(rp.snapshot, r.ref[rp.key]):
		r.res.fail("request %d: snapshot differs from the key's first reply", rp.key)
	default:
		return
	}
	r.res.Failed++
}

// traffic sends keys to m, closed-loop when rate is 0 and open-loop at
// rate otherwise, checking every reply. Timed traffic contributes its
// latencies, lags and the server's counter deltas.
func (r *serveRun) traffic(m *micached, keys []int, rate float64, wantCache string, record, timed bool) error {
	g := newLoadgen(m.base, conns, r.bodies)
	defer g.close()
	before, err := m.scrape()
	if err != nil {
		return err
	}
	stopPoll := m.pollQueueDepth()
	onReply := func(rp reply) {
		r.check(rp, wantCache, record)
		if timed {
			r.lat = append(r.lat, rp.latency)
			if rate > 0 {
				r.lag = append(r.lag, rp.lag)
			}
		}
	}
	t0 := time.Now()
	g.drive(keys, rate, onReply)
	elapsed := time.Since(t0)
	qpeak := stopPoll()
	after, err := m.scrape()
	if err != nil || !timed {
		return err
	}
	r.passes = append(r.passes, elapsed)
	r.sent += len(keys)
	r.res.Attempted += len(keys)
	for _, n := range []string{
		"micached_cache_hits_total", "micached_cache_misses_total", "micached_disk_hits_total",
		"micached_persist_writes_total", "micached_refused_total", "micached_errors_total",
		"micached_pool_built_total", "micached_pool_reused_total",
	} {
		r.deltas[n] += after[n] - before[n]
	}
	r.qpeak = max(r.qpeak, qpeak)
	return nil
}

// fill sends every key once, closed-loop, to an empty server and
// records the replies as the keys' references.
func (r *serveRun) fill(m *micached) error {
	t0 := time.Now()
	err := r.traffic(m, r.rng.Perm(len(r.entries)), 0, "miss", true, false)
	r.res.Phases["fill_s"] = time.Since(t0).Seconds()
	return err
}

// runServe runs one serve workload.
func runServe(w serveWorkload, o runOpts) (*childResult, error) {
	r := &serveRun{
		w: w, o: o, res: newChildResult(o.workload), rng: rand.New(rand.NewSource(o.seed)),
		entries: w.catalog(), deltas: map[string]float64{},
	}
	r.ref = make([]json.RawMessage, len(r.entries))
	for _, e := range r.entries {
		b, err := json.Marshal(map[string]any{"workload": e.workload, "variant": e.variant, "scale": e.scale})
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, b)
	}

	var tr *tracer
	stopProfile := func() error { return nil }
	var ms0, ms1 runtime.MemStats
	beginTimed := func() error {
		runtime.ReadMemStats(&ms0)
		if !o.trace {
			return nil
		}
		tr = newTracer()
		var err error
		stopProfile, err = startProfile(o.profilePath())
		return err
	}
	phase := map[string]func(func() error) error{"miss": r.runMiss, "disk": r.runDisk, "hot": r.runHot}[w.phase]
	t0 := time.Now()
	if err := phase(beginTimed); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	if err := stopProfile(); err != nil {
		return nil, err
	}
	r.res.Phases["total_s"] = time.Since(t0).Seconds()

	res := r.res
	res.setLatency(r.lat, r.passes, r.sent/len(r.passes))
	res.setSetup(r.setups)
	res.setGC(&ms0, &ms1, len(r.lat))
	res.ServerRSSMB = median(r.rss)
	r.setServerMetrics()

	// Correctness: the catalog's digest, and seeded keys recomputed
	// in-process on micached's machine.
	results := make([]core.Result, len(r.entries))
	for k, e := range r.entries {
		spec, _ := workloads.ByName(e.workload)
		results[k] = core.Result{Workload: e.workload, Class: spec.Class, Variant: e.variant}
		if r.ref[k] == nil {
			res.fail("key %d was never served", k)
			continue
		}
		if err := json.Unmarshal(r.ref[k], &results[k].Snap); err != nil {
			res.fail("key %d: %v", k, err)
			continue
		}
		r.entries[k].snap = results[k].Snap
	}
	res.Digest = digestResults(results)
	res.setModelled(core.Totals(results))
	for _, k := range r.rng.Perm(len(r.entries))[:min(serveSpotChecks, len(r.entries))] {
		e := r.entries[k]
		spec, _ := workloads.ByName(e.workload)
		v, _ := core.VariantByLabel(e.variant)
		got, err := core.RunOne(serverConfig(), v, spec, workloads.Scale(e.scale))
		if err != nil || !got.Snap.Equal(results[k].Snap) {
			res.Failed++
			res.fail("spot check %s/%s@%g differs from a fresh core.RunOne (err %v)", e.workload, e.variant, e.scale, err)
		}
	}

	res.setEngine(nil)
	if tr != nil {
		if err := finishTrace(res, tr, serverConfig(), r.entries, o, len(r.lat)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serveSpotChecks is how many catalog keys per run are recomputed
// in-process and compared with what the server returned.
const serveSpotChecks = 8

// runMiss: every timed pass is a fresh server on an empty directory, so
// every request simulates and writes its snapshot through to disk.
func (r *serveRun) runMiss(beginTimed func() error) error {
	// Warm-up: a throwaway server answering two requests, so the first
	// timed pass does not pay for a cold binary and page cache.
	m, err := r.start(r.freshDir())
	if err != nil {
		return err
	}
	if err := r.traffic(m, []int{0, 1}, 0, "miss", true, false); err != nil {
		m.kill()
		return err
	}
	if err := r.stop(m, false); err != nil {
		return err
	}

	if err := beginTimed(); err != nil {
		return err
	}
	start := time.Now()
	for time.Since(start) < r.o.seconds {
		m, err := r.start(r.freshDir())
		if err != nil {
			return err
		}
		if err := r.traffic(m, r.rng.Perm(len(r.entries)), 0, "miss", true, true); err != nil {
			m.kill()
			return err
		}
		if err := r.stop(m, true); err != nil {
			return err
		}
	}
	r.res.Phases["measure_s"] = time.Since(start).Seconds()
	return nil
}

// runDisk: an untimed pass fills a directory; every timed pass restarts
// the server on it and requests each key once, open-loop, so every
// request is served from disk.
func (r *serveRun) runDisk(beginTimed func() error) error {
	dir := r.freshDir()
	m, err := r.start(dir)
	if err != nil {
		return err
	}
	if err := r.fill(m); err != nil {
		m.kill()
		return err
	}
	if err := r.stop(m, false); err != nil {
		return err
	}

	if err := beginTimed(); err != nil {
		return err
	}
	start := time.Now()
	for time.Since(start) < r.o.seconds {
		m, err := r.start(dir)
		if err != nil {
			return err
		}
		if err := r.traffic(m, r.rng.Perm(len(r.entries)), r.w.rate, "hit", false, true); err != nil {
			m.kill()
			return err
		}
		if err := r.stop(m, true); err != nil {
			return err
		}
	}
	r.res.Phases["measure_s"] = time.Since(start).Seconds()
	return nil
}

// hotStarts is how many times the hot workload starts its server; the
// last one serves the traffic.
const hotStarts = 3

// runHot: an untimed pass fills the server's memory, then an open loop
// sends Zipf-distributed keys for the run's duration, every one a
// memory hit.
func (r *serveRun) runHot(beginTimed func() error) error {
	dir := r.freshDir()
	var m *micached
	for i := 0; i < hotStarts; i++ {
		var err error
		if m, err = r.start(dir); err != nil {
			return err
		}
		if i < hotStarts-1 {
			if err := r.stop(m, false); err != nil {
				return err
			}
		}
	}
	if err := r.fill(m); err != nil {
		m.kill()
		return err
	}

	// Key popularity is Zipf over a seeded ranking of the catalog.
	rank := r.rng.Perm(len(r.entries))
	z := rand.NewZipf(r.rng, r.w.zipfS, 1, uint64(len(r.entries)-1))
	keys := make([]int, int(r.w.rate*r.o.seconds.Seconds()))
	for i := range keys {
		keys[i] = rank[z.Uint64()]
	}

	if err := beginTimed(); err != nil {
		m.kill()
		return err
	}
	if err := r.traffic(m, keys, r.w.rate, "hit", false, true); err != nil {
		m.kill()
		return err
	}
	r.res.Phases["measure_s"] = r.passes[0].Seconds()
	return r.stop(m, true)
}

// setServerMetrics records the server's counter deltas over the timed
// phase and the generator's own health.
func (r *serveRun) setServerMetrics() {
	lag := durationsMS(r.lag)
	d := r.deltas
	s := &serverStats{
		cacheHits: d["micached_cache_hits_total"], cacheMisses: d["micached_cache_misses_total"],
		diskHits: d["micached_disk_hits_total"], persistWrites: d["micached_persist_writes_total"],
		refused: d["micached_refused_total"], errors: d["micached_errors_total"],
		poolBuilt: d["micached_pool_built_total"], poolReused: d["micached_pool_reused_total"],
		queuePeak: r.qpeak, sent: float64(r.sent),
	}
	if len(lag) > 0 {
		s.lagP50, s.lagP99 = percentile(lag, 50), percentile(lag, 99)
		if s.lagP99 > float64(maxLagP99)/float64(time.Millisecond) {
			r.res.Failed++
			r.res.fail("generator lag p99 %.2f ms exceeds %v: the open loop did not keep its schedule", s.lagP99, maxLagP99)
		}
	}
	r.res.setServer(s)
	r.res.Phases["lag_p50_ms"], r.res.Phases["lag_p99_ms"] = s.lagP50, s.lagP99
}

// serverStats are the serve-side per-layer metrics.
type serverStats struct {
	cacheHits, cacheMisses, diskHits, persistWrites float64
	refused, errors, poolBuilt, poolReused          float64
	queuePeak, sent, lagP50, lagP99                 float64
}

// setServer records serve-side metrics; simulator workloads pass nil
// and report zeros, since no server runs.
func (r *childResult) setServer(s *serverStats) {
	if s == nil {
		s = &serverStats{}
	}
	m := r.Metrics
	m["micached.cache_hits"] = s.cacheHits
	m["micached.cache_misses"] = s.cacheMisses
	m["micached.disk_hits"] = s.diskHits
	m["micached.persist_writes"] = s.persistWrites
	m["micached.refused"] = s.refused
	m["micached.errors"] = s.errors
	m["micached.pool_built"] = s.poolBuilt
	m["micached.pool_reused"] = s.poolReused
	m["micached.queue_depth_peak"] = s.queuePeak
	m["loadgen.sent"] = s.sent
	m["loadgen.lag_p50_ms"] = s.lagP50
	m["loadgen.lag_p99_ms"] = s.lagP99
}
