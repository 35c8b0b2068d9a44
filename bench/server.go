package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// micached is one running server process, started from the unmodified
// binary and configured only through its documented environment.
type micached struct {
	cmd    *exec.Cmd
	base   string
	ctl    *http.Client
	stderr *tailBuffer
	done   chan struct{}
	// ready is the time from exec to the first 200 from /readyz.
	ready time.Duration
}

// serverEnv is the micached configuration every serve workload uses.
func serverEnv(cacheDir string) []string {
	return []string{
		"MICACHED_CUS=32",
		"MICACHED_MAX_SCALE=0.1",
		"MICACHED_WORKERS=2",
		"MICACHED_CACHE_DIR=" + cacheDir,
		"MICACHED_CACHE_FSYNC=always",
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startMicached execs the server on cacheDir and waits until /readyz
// answers 200, which is also when an existing directory's index has
// been rebuilt.
func startMicached(bin, cacheDir string) (*micached, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	m := &micached{
		base:   "http://" + addr,
		ctl:    &http.Client{Timeout: 5 * time.Second},
		stderr: &tailBuffer{max: 4 << 10},
		done:   make(chan struct{}),
	}
	m.cmd = exec.Command(bin)
	m.cmd.Env = append(os.Environ(), serverEnv(cacheDir)...)
	m.cmd.Env = append(m.cmd.Env, "MICACHED_ADDR="+addr)
	m.cmd.Stderr = m.stderr
	// The server dies with the benchmark even if the benchmark crashes.
	m.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := m.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		m.cmd.Wait()
		close(m.done)
	}()
	deadline := t0.Add(30 * time.Second)
	for {
		resp, err := m.ctl.Get(m.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				m.ready = time.Since(t0)
				return m, nil
			}
		}
		select {
		case <-m.done:
			return nil, fmt.Errorf("micached exited before it was ready: %s", m.stderr)
		default:
		}
		if time.Now().After(deadline) {
			m.kill()
			return nil, fmt.Errorf("micached not ready after 30s: %s", m.stderr)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop drains the server with SIGTERM, as an operator would, waits for
// it to exit, and returns its peak resident set size in MB.
func (m *micached) stop() (float64, error) {
	m.ctl.CloseIdleConnections()
	if err := m.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return 0, err
	}
	select {
	case <-m.done:
	case <-time.After(30 * time.Second):
		m.kill()
		return 0, fmt.Errorf("micached did not drain within 30s")
	}
	if !m.cmd.ProcessState.Success() {
		return 0, fmt.Errorf("micached exited with %v: %s", m.cmd.ProcessState, m.stderr)
	}
	return maxRSSMB(m.cmd.ProcessState), nil
}

// kill ends the server without draining and waits for it to exit.
func (m *micached) kill() {
	m.cmd.Process.Kill()
	<-m.done
}

// maxRSSMB is a finished process's peak resident set size in MB
// (Linux reports ru_maxrss in KiB).
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) * 1024 / 1e6
	}
	return 0
}

// scrape reads the server's /metrics counters.
func (m *micached) scrape() (map[string]float64, error) {
	resp, err := m.ctl.Get(m.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// pollQueueDepth samples micached_queue_depth at 20 Hz until the
// returned function is called; that function stops the sampler, waits
// for it, and returns the peak it saw.
func (m *micached) pollQueueDepth() func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		peak := 0.0
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-t.C:
			}
			if ms, err := m.scrape(); err == nil {
				peak = max(peak, ms["micached_queue_depth"])
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// tailBuffer keeps the last max bytes written to it, for diagnostics.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if extra := t.buf.Len() - t.max; extra > 0 {
		t.buf.Next(extra)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(t.buf.String())
}
