package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// cacheTestServer is testServer with the result cache on, sized so
// nothing evicts unless a test wants it to.
func cacheTestServer(opts serverOpts) *server {
	if opts.CacheEntries == 0 {
		opts.CacheEntries = 64
	}
	return testServer(opts)
}

// TestCacheHitServesWithoutPool pins the tentpole contract end to end:
// the second identical request reports X-Micached-Cache: hit, costs the
// pool nothing, and returns a snapshot byte-identical to both the first
// response and a direct in-process run.
func TestCacheHitServesWithoutPool(t *testing.T) {
	srv := cacheTestServer(serverOpts{Queue: 4})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	const body = `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`
	resp1, body1 := postRun(t, ts, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run = %d (%s)", resp1.StatusCode, body1)
	}
	if h := resp1.Header.Get("X-Micached-Cache"); h != "miss" {
		t.Fatalf("first X-Micached-Cache = %q, want miss", h)
	}
	gets := srv.pool.Gets()

	resp2, body2 := postRun(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run = %d (%s)", resp2.StatusCode, body2)
	}
	if h := resp2.Header.Get("X-Micached-Cache"); h != "hit" {
		t.Fatalf("second X-Micached-Cache = %q, want hit", h)
	}
	if g := srv.pool.Gets(); g != gets {
		t.Fatalf("cache hit touched the pool: gets %d -> %d", gets, g)
	}

	var rr1, rr2 runResponse
	if err := json.Unmarshal(body1, &rr1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &rr2); err != nil {
		t.Fatal(err)
	}
	if !rr2.Snapshot.Equal(rr1.Snapshot) {
		t.Fatal("cached snapshot differs from the fresh run's")
	}
	spec, err := workloads.ByName("FwSoft")
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.VariantByLabel("CacheRW")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.RunOne(testServerConfig(), v, spec, workloads.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if !rr2.Snapshot.Equal(direct.Snap) {
		t.Fatal("cached snapshot differs from a direct in-process run")
	}
}

// TestCacheKeyCanonicalTopology pins the canonicalization rule: the
// topology is keyed after WithDefaults, so an explicit spelling of the
// default topology hits the default request's cache line.
func TestCacheKeyCanonicalTopology(t *testing.T) {
	srv := cacheTestServer(serverOpts{Queue: 4})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp1, body1 := postRun(t, ts, `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("seed run = %d (%s)", resp1.StatusCode, body1)
	}
	resp2, body2 := postRun(t, ts, `{"workload":"FwSoft","variant":"CacheRW","scale":0.05,"tiles":1,"topology":"direct"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("tiles:1/direct run = %d (%s)", resp2.StatusCode, body2)
	}
	if h := resp2.Header.Get("X-Micached-Cache"); h != "hit" {
		t.Fatalf("tiles:1/direct X-Micached-Cache = %q, want hit (WithDefaults canonicalization)", h)
	}
}

// TestCacheSingleFlight fires concurrent identical requests at a
// blocked runFn and checks exactly one simulation happens: the leader
// reports miss, every follower reports hit with the same body.
func TestCacheSingleFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var invocations int
	var mu sync.Mutex
	srv := cacheTestServer(serverOpts{Workers: 4, Queue: 16})
	srv.runFn = func(sys *core.System, w workloads.Workload, b core.Budgets) (stats.Snapshot, error) {
		mu.Lock()
		invocations++
		mu.Unlock()
		close(started)
		<-release
		return stats.Snapshot{Cycles: 42, VectorOps: 7}, nil
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	const body = `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`
	const followers = 5
	type reply struct {
		status int
		header string
		body   []byte
	}
	replies := make(chan reply, followers+1)
	post := func() {
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Error(err)
			replies <- reply{}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		replies <- reply{resp.StatusCode, resp.Header.Get("X-Micached-Cache"), buf.Bytes()}
	}
	go post()
	<-started // the leader is inside runFn; every request below is a follower
	for i := 0; i < followers; i++ {
		go post()
	}
	// Followers park on the flight, not on worker slots; give them a
	// moment to arrive so they really do collapse.
	time.Sleep(50 * time.Millisecond)
	close(release)

	misses, hits := 0, 0
	var first *stats.Snapshot
	for i := 0; i < followers+1; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("reply %d status = %d (%s)", i, r.status, r.body)
		}
		switch r.header {
		case "miss":
			misses++
		case "hit":
			hits++
		default:
			t.Fatalf("reply %d X-Micached-Cache = %q", i, r.header)
		}
		var rr runResponse
		if err := json.Unmarshal(r.body, &rr); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if first == nil {
			first = &rr.Snapshot
		} else if !rr.Snapshot.Equal(*first) {
			t.Fatalf("reply %d snapshot differs across collapsed requests", i)
		}
	}
	if invocations != 1 {
		t.Fatalf("invocations = %d, want 1 (single-flight collapse)", invocations)
	}
	if misses != 1 || hits != followers {
		t.Fatalf("miss/hit split = %d/%d, want 1/%d", misses, hits, followers)
	}
}

// TestCacheEviction bounds the cache at one entry and watches LRU
// replacement through the counters.
func TestCacheEviction(t *testing.T) {
	srv := cacheTestServer(serverOpts{Queue: 4, CacheEntries: 1})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	postRun(t, ts, `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`)
	postRun(t, ts, `{"workload":"FwPool","variant":"CacheRW","scale":0.05}`) // evicts FwSoft
	resp, _ := postRun(t, ts, `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`)
	if h := resp.Header.Get("X-Micached-Cache"); h != "miss" {
		t.Fatalf("evicted entry served as %q, want miss", h)
	}
	if _, _, evictions := srv.cache.Counters(); evictions != 2 {
		t.Fatalf("evictions = %d, want 2", evictions)
	}
	if srv.cache.Len() != 1 {
		t.Fatalf("cache Len = %d, want 1", srv.cache.Len())
	}
}

// TestCacheBudgetErrorNotCached trips the event budget and checks the
// failed result is not cached: once the budget is lifted the same key
// runs fresh and succeeds.
func TestCacheBudgetErrorNotCached(t *testing.T) {
	srv := cacheTestServer(serverOpts{Workers: 1, Queue: 1, MaxEvents: 50})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	const body = `{"workload":"FwPool","variant":"CacheRW","scale":0.05}`
	resp, _ := postRun(t, ts, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("over-budget status = %d, want 504", resp.StatusCode)
	}
	if srv.cache.Len() != 0 {
		t.Fatal("budget-exceeded result was cached")
	}
	srv.maxEvents = 0
	resp2, _ := postRun(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("rerun status = %d, want 200", resp2.StatusCode)
	}
	if h := resp2.Header.Get("X-Micached-Cache"); h != "miss" {
		t.Fatalf("rerun X-Micached-Cache = %q, want miss (error must not poison the key)", h)
	}
}

// TestClientGone499 pins the cancellation bugfix: a client hanging up
// mid-run is a 499 client-gone event — logged at Info, counted apart
// from budget 504s — and the interrupted system still goes back to the
// pool.
func TestClientGone499(t *testing.T) {
	started := make(chan struct{})
	srv := testServer(serverOpts{Workers: 1, Queue: 1})
	srv.runFn = func(sys *core.System, w workloads.Workload, b core.Budgets) (stats.Snapshot, error) {
		close(started)
		<-b.Ctx.Done()
		return stats.Snapshot{}, &core.ErrBudgetExceeded{
			Workload: "FwSoft", Variant: "CacheRW",
			Reason: core.ReasonCanceled, Fired: 10, Cause: b.Ctx.Err(),
		}
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run",
		strings.NewReader(`{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started
	cancel() // the client hangs up mid-run
	if err := <-errc; err == nil {
		t.Fatal("canceled request did not error client-side")
	}

	// The handler finishes asynchronously after the client is gone.
	deadline := time.After(5 * time.Second)
	for srv.m.clientGone.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("client-gone counter never incremented")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got := srv.m.timeouts.Load(); got != 0 {
		t.Fatalf("timeouts = %d, want 0 (disconnect must not count as 504)", got)
	}
	if got := srv.m.clientGone.Load(); got != 1 {
		t.Fatalf("clientGone = %d, want 1", got)
	}
	// Interrupted, not broken: the system was re-pooled.
	for srv.pool.Puts() == 0 {
		select {
		case <-deadline:
			t.Fatal("interrupted system never returned to the pool")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestElapsedMSSubMillisecond pins the elapsed_ms fix: a run faster
// than a millisecond reports a fractional value, not a truncated 0
// with lost precision from Microseconds().
func TestElapsedMSSubMillisecond(t *testing.T) {
	srv := testServer(serverOpts{Queue: 4})
	srv.runFn = func(sys *core.System, w workloads.Workload, b core.Budgets) (stats.Snapshot, error) {
		return stats.Snapshot{Cycles: 1}, nil
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, body := postRun(t, ts, `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	var rr runResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.ElapsedMS <= 0 {
		t.Fatalf("elapsed_ms = %v, want > 0 even for sub-millisecond runs", rr.ElapsedMS)
	}
}
