package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loadgen sends /run requests over a fixed set of keep-alive
// connections, one per client goroutine.
type loadgen struct {
	base    string
	clients []*http.Client
	// bodies[k] is the request body for catalog key k.
	bodies [][]byte
}

func newLoadgen(base string, conns int, bodies [][]byte) *loadgen {
	g := &loadgen{base: base, bodies: bodies}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		})
	}
	return g
}

// close drops the generator's idle connections.
func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// reply is one request's outcome.
type reply struct {
	key      int
	latency  time.Duration
	lag      time.Duration
	status   int
	cache    string // X-Micached-Cache
	snapshot json.RawMessage
	err      error
}

// send posts key's request and reads the whole response.
func (g *loadgen) send(c *http.Client, key int) reply {
	rp := reply{key: key}
	req, err := http.NewRequest(http.MethodPost, g.base+"/run", bytes.NewReader(g.bodies[key]))
	if err != nil {
		rp.err = err
		return rp
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		rp.err = err
		return rp
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		rp.err = err
		return rp
	}
	rp.status, rp.cache = resp.StatusCode, resp.Header.Get("X-Micached-Cache")
	if rp.status == http.StatusOK {
		var out struct {
			Snapshot json.RawMessage `json:"snapshot"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			rp.err = fmt.Errorf("decode /run response: %w", err)
		}
		rp.snapshot = out.Snapshot
	}
	return rp
}

// drive sends each key of keys once, on whichever client is free.
// With rate 0 it is a closed loop: a client sends its next request as
// soon as its previous reply arrives, and latency runs from the send.
// Otherwise it is an open loop: keys[i] is due at start+i/rate whatever
// earlier replies did, and latency and lag both run from the due time,
// so a stall that holds up sending shows in every request it delays;
// lag alone says how late the generator itself sent.
func (g *loadgen) drive(keys []int, rate float64, onReply func(reply)) {
	start := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				from := time.Now()
				var lag time.Duration
				if rate > 0 {
					from = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					sleepUntil(from)
					lag = time.Since(from)
				}
				rp := g.send(c, keys[i])
				rp.latency, rp.lag = time.Since(from), lag
				mu.Lock()
				onReply(rp)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}

// sleepUntil blocks the calling thread in nanosleep until t. A
// time.Sleep can end up to a millisecond late on Linux, where the Go
// runtime's poller waits in whole milliseconds; at 1000 req/s that
// would make the generator, not the server, the larger part of a
// memory hit's latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}
