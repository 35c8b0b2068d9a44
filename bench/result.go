package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/stats"
)

// childResult is what one workload run measured. The parent process
// turns it into the printed metrics.
type childResult struct {
	Workload  string `json:"workload"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Digest is the SHA-256 of the run's canonical-order results.
	Digest string   `json:"digest"`
	Errors []string `json:"errors,omitempty"`
	// Metrics holds every metric the run measured, by declared name.
	Metrics map[string]float64 `json:"metrics"`
	// Phases holds phase durations and generator health, for provenance.
	Phases map[string]float64 `json:"phases"`
	// ServerRSSMB is the median peak RSS of the micached processes that
	// served the timed phase; 0 for simulator workloads.
	ServerRSSMB float64 `json:"server_rss_mb,omitempty"`
}

func newChildResult(name string) *childResult {
	return &childResult{Workload: name, Metrics: map[string]float64{}, Phases: map[string]float64{}}
}

// maxErrors bounds how many failure messages a result keeps.
const maxErrors = 20

// fail records a correctness or operation failure message.
func (r *childResult) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.Workload, msg)
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, msg)
	}
}

// setLatency records per-operation latencies and throughput. The timed
// phase is a series of passes of opsPerPass operations each (a sweep,
// or one request per catalog key); throughput is a pass's operations
// over the median pass time, which a few passes slowed by the host do
// not move.
func (r *childResult) setLatency(lat, passes []time.Duration, opsPerPass int) {
	ms := durationsMS(lat)
	r.Metrics["ops_per_s"] = float64(opsPerPass) / median(durationsMS(passes)) * 1e3
	r.Phases["passes"] = float64(len(passes))
	r.Metrics["latency_p50_ms"] = percentile(ms, 50)
	r.Metrics["latency_p90_ms"] = percentile(ms, 90)
	r.Metrics["bench.latency_samples"] = float64(len(ms))
	p, ok := tailPercentile(len(ms))
	if !ok {
		p = 50
	}
	r.Metrics["bench.latency_tail_pct"] = p
	r.Metrics["bench.latency_tail_ms"] = percentile(ms, p)
}

// setSetup records the median of the run's repeated set-ups.
func (r *childResult) setSetup(ds []time.Duration) {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	r.Metrics["setup_s"] = median(s)
	r.Phases["setup_reps"] = float64(len(ds))
}

// setGC records Go runtime allocation and pause deltas over the timed
// phase.
func (r *childResult) setGC(before, after *runtime.MemStats, ops int) {
	n := float64(max(ops, 1))
	r.Metrics["gc.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / n
	r.Metrics["gc.mallocs_per_op"] = float64(after.Mallocs-before.Mallocs) / n
	r.Metrics["gc.pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

// modelled are simulated quantities, summed over one canonical pass of
// the workload's cells. Each hit rate is followed by its base.
var modelled = []struct {
	name string
	of   func(t *stats.Snapshot) float64
}{
	{"gpu.sim_cycles", func(t *stats.Snapshot) float64 { return float64(t.Cycles) }},
	{"gpu.mem_requests", func(t *stats.Snapshot) float64 { return float64(t.GPUMemRequests) }},
	{"gpu.vector_ops", func(t *stats.Snapshot) float64 { return float64(t.VectorOps) }},
	{"cache.l1_hit_rate", func(t *stats.Snapshot) float64 { return t.L1.HitRate() }},
	{"cache.l1_hit_rate_base", func(t *stats.Snapshot) float64 { return float64(t.L1.Hits + t.L1.Misses) }},
	{"cache.l2_hit_rate", func(t *stats.Snapshot) float64 { return t.L2.HitRate() }},
	{"cache.l2_hit_rate_base", func(t *stats.Snapshot) float64 { return float64(t.L2.Hits + t.L2.Misses) }},
	{"cache.l1_stall_cycles", func(t *stats.Snapshot) float64 { return float64(t.L1.Stalls) }},
	{"cache.l2_stall_cycles", func(t *stats.Snapshot) float64 { return float64(t.L2.Stalls) }},
	{"cache.stall_mshr", func(t *stats.Snapshot) float64 { return float64(t.L1.StallMSHR + t.L2.StallMSHR) }},
	{"cache.stall_alloc", func(t *stats.Snapshot) float64 { return float64(t.L1.StallAlloc + t.L2.StallAlloc) }},
	{"cache.l2_writebacks", func(t *stats.Snapshot) float64 { return float64(t.L2.Writebacks) }},
	{"dram.accesses", func(t *stats.Snapshot) float64 { return float64(t.DRAM.Accesses()) }},
	{"dram.row_hit_rate", func(t *stats.Snapshot) float64 { return t.DRAM.RowHitRate() }},
	{"dram.row_hit_rate_base", func(t *stats.Snapshot) float64 {
		return float64(t.DRAM.RowHits + t.DRAM.RowMisses + t.DRAM.RowConflicts)
	}},
	{"policy.pred_bypass", func(t *stats.Snapshot) float64 { return float64(t.L2.PredBypass) }},
	{"policy.rinses", func(t *stats.Snapshot) float64 { return float64(t.L2.Rinses) }},
	{"policy.alloc_bypass", func(t *stats.Snapshot) float64 { return float64(t.L1.AllocBypass + t.L2.AllocBypass) }},
	{"coherence.invalidates", func(t *stats.Snapshot) float64 { return float64(t.L1.Invalidates + t.L2.Invalidates) }},
	{"noc.forwarded", func(t *stats.Snapshot) float64 {
		var n uint64
		for _, l := range t.Links {
			n += l.Forwarded
		}
		return float64(n)
	}},
	{"noc.stall_cycles", func(t *stats.Snapshot) float64 {
		var n uint64
		for _, l := range t.Links {
			n += l.StallCycles
		}
		return float64(n)
	}},
	{"noc.queue_peak", func(t *stats.Snapshot) float64 {
		var n uint64
		for _, l := range t.Links {
			n = max(n, l.QueuePeak)
		}
		return float64(n)
	}},
}

// exactMetrics must repeat exactly from run to run and from commit to
// commit unless the simulated model itself changed: the modelled
// quantities and the event-engine counts.
func exactMetrics() []string {
	out := []string{"event.events_per_cell", "event.pending_peak"}
	for _, m := range modelled {
		out = append(out, m.name)
	}
	return out
}

// setModelled records the modelled quantities of t.
func (r *childResult) setModelled(t stats.Snapshot) {
	for _, m := range modelled {
		r.Metrics[m.name] = m.of(&t)
	}
}

// setSpans records the median (and for runs, p90) duration of the
// benchmark's spans around each cell's public calls. A workload that
// runs no cells in-process reports zeros.
func (r *childResult) setSpans(tr *tracer) {
	var self map[string][]time.Duration
	if tr != nil {
		self = tr.selfTimes()
	}
	p := func(name string, pct float64, unit time.Duration) float64 {
		ds := self[name]
		if len(ds) == 0 {
			return 0
		}
		s := make([]float64, len(ds))
		for i, d := range ds {
			s[i] = float64(d) / float64(unit)
		}
		slices.Sort(s)
		return percentile(s, pct)
	}
	m := r.Metrics
	m["workloads.build_us"] = p("workloads.build", 50, time.Microsecond)
	m["core.pool_get_us"] = p("core.pool_get", 50, time.Microsecond)
	m["core.run_p50_ms"] = p("core.run", 50, time.Millisecond)
	m["core.run_p90_ms"] = p("core.run", 90, time.Millisecond)
	m["core.reset_us"] = p("core.reset", 50, time.Microsecond)
	m["bench.cell_self_us"] = p("cell", 50, time.Microsecond)
	m["core.cellkey_us"] = p("core.cellkey", 50, time.Microsecond)
	m["resultcache.acquire_us"] = p("resultcache.acquire", 50, time.Microsecond)
	m["resultcache.complete_us"] = p("resultcache.complete", 50, time.Microsecond)
	m["persist.put_ms"] = p("persist.put", 50, time.Millisecond)
	m["persist.get_us"] = p("persist.get", 50, time.Microsecond)
	m["persist.open_ms"] = p("persist.open", 50, time.Millisecond)
	m["stats.json_encode_us"] = p("stats.json_encode", 50, time.Microsecond)
}

// setEngine records the event-engine counters of the traced cells:
// mean events fired per cell and the peak pending-event count, both
// exact, and host time per simulated event.
func (r *childResult) setEngine(cs []cellCounts) {
	var fired uint64
	var run time.Duration
	peak := 0
	for _, c := range cs {
		fired += c.fired
		run += c.run
		peak = max(peak, c.pending)
	}
	m := r.Metrics
	m["event.events_per_cell"] = 0
	m["event.ns_per_event"] = 0
	if len(cs) > 0 && fired > 0 {
		m["event.events_per_cell"] = float64(fired) / float64(len(cs))
		m["event.ns_per_event"] = float64(run.Nanoseconds()) / float64(fired)
	}
	m["event.pending_peak"] = float64(peak)
}

// setProfile records CPU time per layer per operation from a folded
// CPU profile of the timed phase.
func (r *childResult) setProfile(byLayer map[string]time.Duration, total time.Duration, ops int) {
	n := float64(max(ops, 1))
	for _, l := range profileLayers {
		r.Metrics[l+".self_ms_per_op"] = float64(byLayer[l]) / float64(time.Millisecond) / n
	}
	r.Metrics["trace.profile_cpu_ms_per_op"] = float64(total) / float64(time.Millisecond) / n
}

// startProfile starts the CPU profile of the timed phase; the returned
// function stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
