package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call made from the benchmark into a layer. Spans of
// one cell or request share an ID; Parent indexes the enclosing span in
// the tracer, or is -1 at the top.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole traced run; they are
// written out once, at the end, so recording costs one append.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(id int64, name string, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: now})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, every span's self time: its
// duration minus the time its child spans cover. Children of one span
// run on the span's own goroutine, one after another, so they never
// overlap and their durations simply add.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]time.Duration)
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-child[i]))
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// profileLayers are the layers CPU time is charged to: the repository's
// simulator and serving packages, the benchmark's own code ("bench"),
// and "runtime" for samples with no repository frame at all (GC
// workers, the scheduler, the network poller). A sample is charged to
// its innermost frame in one of these layers, so runtime helpers (map
// access, malloc, memmove) count toward the layer that called them, and
// small internal packages not listed (metrics, faultfs, trace) toward
// their callers.
var profileLayers = []string{
	"event", "gpu", "cache", "dram", "coherence", "noc", "policy", "mem",
	"workloads", "core", "stats", "resultcache", "persist", "bench", "runtime",
}

// layerOf maps a fully qualified function name to its profile layer, or
// "" when the frame belongs to none.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if slices.Contains(profileLayers, rest) {
		return rest
	}
	return ""
}

// foldProfile charges every sample of a CPU profile to a layer, using
// the toolchain's pprof to decode it, and returns CPU time per layer
// plus the profile's total.
func foldProfile(path string) (map[string]time.Duration, time.Duration, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(out)
}

// foldTraces parses `pprof -traces` text: samples are separated by
// dashed rules, and each starts with its value followed by its frames,
// innermost first.
func foldTraces(text []byte) (map[string]time.Duration, time.Duration, error) {
	byLayer := make(map[string]time.Duration)
	var total time.Duration
	var value time.Duration
	layer := ""
	inSample := false
	flush := func() {
		if inSample {
			if layer == "" {
				layer = "runtime"
			}
			byLayer[layer] += value
			total += value
		}
		inSample, layer = false, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	started := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		if !started || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if !inSample {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, 0, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			value, inSample = d, true
			fields = fields[1:]
		}
		if layer == "" && len(fields) > 0 {
			layer = layerOf(fields[0])
		}
	}
	flush()
	return byLayer, total, sc.Err()
}
