package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// micachedBin is built once by TestMain for the serve smoke tests.
var micachedBin string

func TestMain(m *testing.M) {
	rootDir = ".."
	dir, err := os.MkdirTemp("", "bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	micachedBin = filepath.Join(dir, "micached")
	build := exec.Command("go", "build", "-o", micachedBin, "repro/cmd/micached")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build micached:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // the median has only 9 samples above it
		{20, 50, true},
		{99, 75, true},
		{100, 90, true},
		{999, 90, true}, // p99 would have only 9 above it
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples above it", c.n, p, c.n-rank(c.n, p))
		}
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	// statistics.quantiles([1..10], n=4) in Python.
	if q1, q2, q3 := quartiles(s); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestOpenLoopTimesFromDueTime stalls the server while both generator
// connections are busy: requests that fall due during the stall cannot
// be sent, and their latency must include the wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var mu sync.Mutex
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock() // one request at a time, like a server-wide pause
		defer mu.Unlock()
		n++
		if n == 3 {
			time.Sleep(stall)
		}
		w.Header().Set("X-Micached-Cache", "hit")
		fmt.Fprint(w, `{"snapshot":{}}`)
	}))
	defer srv.Close()

	g := newLoadgen(srv.URL, conns, [][]byte{[]byte(`{}`)})
	defer g.close()
	keys := make([]int, 100)
	var replies []reply
	g.drive(keys, 1000, func(rp reply) {
		if rp.err != nil || rp.status != http.StatusOK {
			t.Errorf("request failed: %v %d", rp.err, rp.status)
		}
		replies = append(replies, rp)
	})
	if len(replies) != len(keys) {
		t.Fatalf("got %d replies, want %d", len(replies), len(keys))
	}
	// About 60 requests fall due during the stall. Most of them spend
	// the stall waiting to be sent, which timing from the send would
	// miss.
	held := 0
	for _, rp := range replies {
		if rp.latency > stall/2 && rp.latency-rp.lag < stall/2 {
			held++
		}
	}
	if held < 20 {
		t.Errorf("only %d requests show a %v stall in their latency at 1000 req/s", held, stall)
	}
}

func TestFoldTraces(t *testing.T) {
	text := []byte(`File: bench
Type: cpu
-----------+-------------------------------------------------------
      20ms   runtime.mapaccess1
             repro/internal/cache.(*Cache).lookup
             repro/internal/core.(*System).RunBudgeted
-----------+-------------------------------------------------------
      10ms   repro/internal/metrics.(*Counter).Inc
             repro/internal/core.(*SystemPool).Get
-----------+-------------------------------------------------------
      30ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
      10ms   main.(*loadgen).send
-----------+-------------------------------------------------------
`)
	by, total, err := foldTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"cache":   20 * time.Millisecond, // a runtime helper counts toward its caller
		"core":    10 * time.Millisecond, // so does an unlisted internal package
		"runtime": 30 * time.Millisecond, // no repository frame at all
		"bench":   10 * time.Millisecond,
	}
	if total != 70*time.Millisecond || len(by) != len(want) {
		t.Fatalf("folded %v (total %v), want %v", by, total, want)
	}
	for l, d := range want {
		if by[l] != d {
			t.Errorf("%s: %v, want %v", l, by[l], d)
		}
	}
}

func TestJudge(t *testing.T) {
	m := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := slices.Clone(base)
		for i := range out {
			out[i] += d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{shift(10), "gain"},
		{shift(-20), "regression"},
		{shift(-1), "no regression"},
		{noisy, "unresolved"},
	} {
		if got, _ := judge(m, base, c.change); got != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.change, got, c.want)
		}
	}
}

// smokeOpts runs a workload briefly in a test's own scratch space.
func smokeOpts(t *testing.T, name string, trace bool) runOpts {
	dir := t.TempDir()
	return runOpts{
		workload: name, seed: 7, seconds: 200 * time.Millisecond, trace: trace,
		scratch: dir, traceDir: dir, micached: micachedBin,
	}
}

// TestSmoke runs every workload at a tiny size, plain and traced, and
// checks that its results are correct and that it emits exactly the
// metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	d, err := loadDecl(declPath())
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range d.Workloads {
		declared = append(declared, w.Name)
	}
	slices.Sort(declared)
	if !slices.Equal(declared, workloadNames()) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark implements %v", declared, workloadNames())
	}

	run := func(name string, trace bool) *childResult {
		t.Helper()
		o := smokeOpts(t, name, trace)
		o.workload = "smoke-" + name // no expected digest at this size
		var res *childResult
		var err error
		if w, ok := simWorkloads()[name]; ok {
			// Short cells: CM's convolution does not shrink with scale.
			w.specs = specsNamed("FwSoft", "BwSoft")[:min(2, len(w.specs))]
			w.variants, w.scale = w.variants[:min(2, len(w.variants))], 0.02
			res, err = runSim(w, o)
		} else {
			w := serveWorkloads()[name]
			w.specs, w.scales, w.rate = w.specs[:2], []float64{0.02}, 200
			res, err = runServe(w, o)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Errors) > 0 || res.Failed > 0 || res.Attempted == 0 {
			t.Fatalf("%s: %d of %d failed: %v", name, res.Failed, res.Attempted, res.Errors)
		}
		return res
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			plain := run(name, false)
			traced := run(name, true)
			if plain.Digest != traced.Digest {
				t.Errorf("plain digest %s, traced %s", plain.Digest, traced.Digest)
			}
			for _, c := range []struct {
				traced *childResult
				set    []metricDecl
			}{{nil, d.EndToEnd}, {traced, d.PerLayer}} {
				rec, err := assemble(d, plain, 1, c.traced)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || len(rec.Metrics) != len(c.set) {
					t.Errorf("record correct=%v with %d metrics, want %d", rec.Correct, len(rec.Metrics), len(c.set))
				}
			}
			// Nothing undeclared: the traced child measures exactly the
			// declared metrics but the two the parent derives.
			want := map[string]bool{}
			for _, m := range append(slices.Clone(d.EndToEnd), d.PerLayer...) {
				want[m.Name] = true
			}
			delete(want, "peak_rss_mb")
			delete(want, "trace.overhead_ratio")
			for n := range traced.Metrics {
				if !want[n] {
					t.Errorf("undeclared metric %s", n)
				}
			}
			for n := range want {
				if _, ok := traced.Metrics[n]; !ok {
					t.Errorf("declared metric %s not emitted", n)
				}
			}
			if sum := layerSum(traced.Metrics); traced.Metrics["trace.profile_cpu_ms_per_op"] > 0 &&
				abs(sum/traced.Metrics["trace.profile_cpu_ms_per_op"]-1) > 0.05 {
				t.Errorf("layer self times sum to %v, profile total %v", sum, traced.Metrics["trace.profile_cpu_ms_per_op"])
			}
		})
	}
}

func layerSum(m map[string]float64) float64 {
	s := 0.0
	for _, l := range profileLayers {
		s += m[l+".self_ms_per_op"]
	}
	return s
}

func abs(x float64) float64 { return max(x, -x) }
