package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// testServerConfig shrinks the machine the same way the core tests do,
// so end-to-end requests finish in milliseconds.
func testServerConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.GPU.CUs = 8
	cfg.L2.SizeBytes = 256 << 10
	return cfg
}

func testServer(opts serverOpts) *server {
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	if opts.MaxScale == 0 {
		opts.MaxScale = 1.0
	}
	return newServer(testServerConfig(), opts)
}

func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestRunEndpoint runs a real cell end-to-end through HTTP and checks
// the snapshot matches a direct in-process run exactly.
func TestRunEndpoint(t *testing.T) {
	srv := testServer(serverOpts{Queue: 4})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, body := postRun(t, ts, `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	var rr runResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}

	spec, err := workloads.ByName("FwSoft")
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.VariantByLabel("CacheRW")
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.RunOne(testServerConfig(), v, spec, workloads.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Snapshot.Equal(r.Snap) {
		t.Fatalf("served snapshot differs from direct run:\nserved: %+v\ndirect: %+v", rr.Snapshot, r.Snap)
	}
	if rr.Snapshot.Cycles == 0 || rr.Snapshot.GPUMemRequests == 0 {
		t.Fatalf("empty snapshot served: %+v", rr.Snapshot)
	}
	if rr.GVOPS <= 0 {
		t.Fatalf("GVOPS = %g, want > 0", rr.GVOPS)
	}

	// The same cell again must be served from the pool, not a rebuild.
	resp2, _ := postRun(t, ts, `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run status = %d", resp2.StatusCode)
	}
	built, reused := srv.pool.Counts()
	if built != 1 || reused != 1 {
		t.Fatalf("pool built=%d reused=%d, want 1/1", built, reused)
	}
}

func TestRequestValidation(t *testing.T) {
	srv := testServer(serverOpts{Queue: 4, MaxScale: 0.5})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	cases := []struct {
		name, body string
		want       int
	}{
		{"unknown workload", `{"workload":"Nope","variant":"CacheRW","scale":0.05}`, http.StatusBadRequest},
		{"unknown variant", `{"workload":"FwSoft","variant":"Nope","scale":0.05}`, http.StatusBadRequest},
		{"negative scale", `{"workload":"FwSoft","variant":"CacheRW","scale":-1}`, http.StatusBadRequest},
		{"scale above cap", `{"workload":"FwSoft","variant":"CacheRW","scale":0.75}`, http.StatusBadRequest},
		{"unknown field", `{"workload":"FwSoft","variant":"CacheRW","bogus":1}`, http.StatusBadRequest},
		{"removed cell_workers field", `{"workload":"FwSoft","variant":"CacheRW","scale":0.05,"cell_workers":2}`, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postRun(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}

	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run status = %d, want 405", resp.StatusCode)
	}
}

// TestRunEndpointTopology runs a 2-tile request end-to-end and checks
// the snapshot matches a direct multi-tile run, reports per-tile and
// per-link sections, and never touches the shared single-tile pool.
func TestRunEndpointTopology(t *testing.T) {
	srv := testServer(serverOpts{Queue: 4})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, body := postRun(t, ts,
		`{"workload":"FwSoft","variant":"CacheRW","scale":0.05,"tiles":2,"topology":"mesh"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	var rr runResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if rr.Tiles != 2 || rr.Topology != "mesh" {
		t.Fatalf("response echoes tiles=%d topology=%q, want 2/mesh", rr.Tiles, rr.Topology)
	}
	if len(rr.Snapshot.Tiles) != 2 || len(rr.Snapshot.Links) == 0 {
		t.Fatalf("snapshot missing topology sections: %+v", rr.Snapshot)
	}

	cfg := testServerConfig()
	cfg.Topology.Tiles = 2
	cfg.Topology.Kind = noc.Mesh
	spec, err := workloads.ByName("FwSoft")
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.VariantByLabel("CacheRW")
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.RunOne(cfg, v, spec, workloads.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Snapshot.Equal(r.Snap) {
		t.Fatalf("served 2-tile snapshot differs from direct run:\nserved: %+v\ndirect: %+v",
			rr.Snapshot, r.Snap)
	}

	// Off-default topologies must not consume or seed the warm pool.
	if built, reused := srv.pool.Counts(); built != 0 || reused != 0 {
		t.Fatalf("topology request touched the pool: built=%d reused=%d", built, reused)
	}
}

// TestTopologyRequestValidation pins the 400 contract for topology
// parameters: unknown names answer with the valid list, and structurally
// impossible tilings are refused before any system is built.
func TestTopologyRequestValidation(t *testing.T) {
	srv := testServer(serverOpts{Queue: 4})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, body := postRun(t, ts,
		`{"workload":"FwSoft","variant":"CacheRW","scale":0.05,"topology":"torus"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown topology status = %d, want 400 (body %s)", resp.StatusCode, body)
	}
	var er errResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("bad error JSON: %v\n%s", err, body)
	}
	for _, name := range noc.Kinds() {
		if !strings.Contains(er.Error, name) {
			t.Fatalf("400 body %q does not list valid topology %q", er.Error, name)
		}
	}

	// tiles=3 (not a power of two) and tiles=16 (does not divide the
	// test config's 8 CUs) are config errors, also 400.
	for _, bad := range []string{
		`{"workload":"FwSoft","variant":"CacheRW","scale":0.05,"tiles":3}`,
		`{"workload":"FwSoft","variant":"CacheRW","scale":0.05,"tiles":16}`,
	} {
		resp, body := postRun(t, ts, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (body %s)", bad, resp.StatusCode, body)
		}
	}
}

// TestBackpressure429 saturates one worker and one queue slot with a
// stubbed blocking run, then checks the next request is refused with
// 429 immediately, and that the admitted ones still complete once
// unblocked. Also a goroutine-leak check: after the storm, the
// goroutine count returns to its baseline.
func TestBackpressure429(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv := testServer(serverOpts{Workers: 1, Queue: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	srv.runFn = func(sys *core.System, w workloads.Workload, b core.Budgets) (stats.Snapshot, error) {
		started <- struct{}{}
		<-release
		return stats.Snapshot{Cycles: 1}, nil
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	const body = `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`
	codes := make(chan int, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postRun(t, ts, body)
		codes <- resp.StatusCode
	}()
	// Wait until request 1 holds the only worker slot.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never started")
	}

	// Request 2 takes the single queue slot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postRun(t, ts, body)
		codes <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Request 3 finds worker and queue full: refused now, not queued.
	resp, rbody := postRun(t, ts, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429 (body %s)", resp.StatusCode, rbody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("admitted request %d finished with %d, want 200", i, code)
		}
	}

	ts.Close()
	// Allow the server's per-connection goroutines to wind down.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now vs %d at start", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulDrain checks the drain contract: once draining, /healthz
// reports 503 and new runs are refused, but an in-flight run completes
// normally.
func TestGracefulDrain(t *testing.T) {
	srv := testServer(serverOpts{Workers: 1, Queue: 1})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.runFn = func(sys *core.System, w workloads.Workload, b core.Budgets) (stats.Snapshot, error) {
		started <- struct{}{}
		<-release
		return stats.Snapshot{Cycles: 42}, nil
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	const body = `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`
	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, b := postRun(t, ts, body)
		done <- result{resp.StatusCode, b}
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never started")
	}

	srv.beginDrain()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	resp2, _ := postRun(t, ts, body)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run while draining = %d, want 503", resp2.StatusCode)
	}

	// The request admitted before the drain still completes.
	close(release)
	select {
	case r := <-done:
		if r.code != http.StatusOK {
			t.Fatalf("in-flight request finished with %d (%s), want 200", r.code, r.body)
		}
		var rr runResponse
		if err := json.Unmarshal(r.body, &rr); err != nil || rr.Snapshot.Cycles != 42 {
			t.Fatalf("in-flight response corrupted by drain: %s", r.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed after release")
	}
	if n := srv.Inflight(); n != 0 {
		t.Fatalf("Inflight() = %d after drain, want 0", n)
	}
}

// TestPanicIsolation injects a panic into one request's run and checks
// the client gets a 500 while the server keeps serving real runs.
func TestPanicIsolation(t *testing.T) {
	srv := testServer(serverOpts{Workers: 1, Queue: 1})
	real := srv.runFn
	srv.runFn = func(sys *core.System, w workloads.Workload, b core.Budgets) (stats.Snapshot, error) {
		panic(fmt.Sprintf("injected for %s", w.Name))
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	const body = `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`
	resp, rbody := postRun(t, ts, body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run status = %d, want 500", resp.StatusCode)
	}
	var er errResponse
	if err := json.Unmarshal(rbody, &er); err != nil || er.Error == "" {
		t.Fatalf("panic response not structured JSON: %s", rbody)
	}

	// The poisoned system was abandoned, not re-pooled; the next real
	// run must build a fresh one and succeed.
	srv.runFn = real
	resp2, body2 := postRun(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic run status = %d (%s), want 200", resp2.StatusCode, body2)
	}
	built, reused := srv.pool.Counts()
	if built != 2 || reused != 0 {
		t.Fatalf("pool built=%d reused=%d after panic, want 2 built / 0 reused", built, reused)
	}
}

// TestBudgetExceededResponse wires a tiny event budget through the full
// HTTP path: the client gets a structured 504 naming the reason, and
// the interrupted system goes back to the pool for the next request.
func TestBudgetExceededResponse(t *testing.T) {
	srv := testServer(serverOpts{Workers: 1, Queue: 1, MaxEvents: 50})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, body := postRun(t, ts, `{"workload":"FwPool","variant":"CacheRW","scale":0.05}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("over-budget status = %d (%s), want 504", resp.StatusCode, body)
	}
	var er errResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("bad error JSON: %v\n%s", err, body)
	}
	if er.Reason != "max-events" || er.Fired == nil || *er.Fired < 50 || er.Clock == nil || *er.Clock == 0 {
		t.Fatalf("error diagnostics = %+v, want reason=max-events fired>=50 clock>0", er)
	}

	// The interrupted system is reusable: drop the budget and rerun.
	srv.maxEvents = 0
	resp2, _ := postRun(t, ts, `{"workload":"FwPool","variant":"CacheRW","scale":0.05}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("rerun after budget stop = %d, want 200", resp2.StatusCode)
	}
	built, reused := srv.pool.Counts()
	if built != 1 || reused != 1 {
		t.Fatalf("pool built=%d reused=%d, want 1/1 (interrupted system re-pooled)", built, reused)
	}
}
