package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// childProcs is the GOMAXPROCS of every workload process: the load
// comes from one process with at most two threads running Go code.
const childProcs = 2

// runOpts configures one workload run in a child process.
type runOpts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// scratch is the run's private directory, removed afterwards.
	scratch string
	// traceDir keeps the CPU profile and the span dump of traced runs.
	traceDir string
	// micached is the server binary the serve workloads start.
	micached string
}

func (o runOpts) profilePath() string {
	return filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.cpu.pprof", o.workload, o.seed))
}

func (o runOpts) spansPath() string {
	return filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))
}

// workloadNames lists every workload this program implements.
func workloadNames() []string {
	var out []string
	for n := range simWorkloads() {
		out = append(out, n)
	}
	for n := range serveWorkloads() {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// runWorkload runs workload name in-process; the child entry point.
func runWorkload(o runOpts) (*childResult, error) {
	if w, ok := simWorkloads()[o.workload]; ok {
		return runSim(w, o)
	}
	if w, ok := serveWorkloads()[o.workload]; ok {
		return runServe(w, o)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
}

// cmdChild runs one workload and writes its result as JSON to stdout.
func cmdChild(args []string) error {
	fs := flag.NewFlagSet("child", flag.ExitOnError)
	var o runOpts
	fs.StringVar(&o.workload, "workload", "", "workload")
	fs.Int64Var(&o.seed, "seed", 1, "seed")
	secs := fs.Float64("seconds", 12, "timed phase length")
	fs.BoolVar(&o.trace, "trace", false, "profile and trace")
	fs.StringVar(&o.scratch, "scratch", "", "scratch directory")
	fs.StringVar(&o.traceDir, "trace-dir", "", "trace output directory")
	fs.StringVar(&o.micached, "micached", "", "micached binary")
	fs.Parse(args)
	o.seconds = time.Duration(*secs * float64(time.Second))
	res, err := runWorkload(o)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs one workload in a child process of its own, so memory
// peaks of different workloads and of traced and plain runs never mix.
// It returns the child's result and its peak RSS in MB.
func spawn(o runOpts) (*childResult, float64, error) {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(o.scratch)
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	// A hung child is killed well inside the run's time limit; so are
	// the servers it started, through their parent-death signal.
	ctx, cancel := context.WithTimeout(context.Background(), 2*o.seconds+time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-root", rootDir, "-build", buildDir, "child",
		"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds.Seconds(), 'g', -1, 64),
		"-trace="+strconv.FormatBool(o.trace), "-scratch", o.scratch,
		"-trace-dir", o.traceDir, "-micached", o.micached)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", o.workload, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, 0, fmt.Errorf("%s child output: %w", o.workload, err)
	}
	return &res, maxRSSMB(cmd.ProcessState), nil
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance says where and how a result was measured.
type provenance struct {
	Host       string             `json:"host"`
	NProc      int                `json:"nproc"`
	GoMaxProcs int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	SimVersion int                `json:"sim_version"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Started    string             `json:"started"`
	Phases     map[string]float64 `json:"phases"`
}

// record is one workload run as --out stores it and compare reads it.
type record struct {
	Workload     string                 `json:"workload"`
	Trace        bool                   `json:"trace"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Digest       string                 `json:"digest"`
	DigestStatus string                 `json:"digest_status"`
	Metrics      map[string]metricValue `json:"metrics"`
	Errors       []string               `json:"errors,omitempty"`
	Provenance   provenance             `json:"provenance"`
}

// result is the contract's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func cmdRun(args []string) (int, error) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Float64("seconds", 12, "length of each timed phase in seconds")
	trace := fs.Int("trace", 0, "1 adds a profiled, traced repeat of the run and prints per-layer metrics")
	out := fs.String("out", "", "append each workload's full record to this JSON-lines file")
	fs.Parse(args)
	if fs.NArg() > 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		usage()
	}
	d, err := loadDecl(declPath())
	if err != nil {
		return 0, err
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range d.Workloads {
			names = append(names, w.Name)
		}
	}
	code := 0
	for _, name := range names {
		rec, err := measure(d, name, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1)
		if err != nil {
			return 0, err
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				return 0, err
			}
		}
		printRecord(d, rec)
		if !rec.Correct {
			code = 1
		}
	}
	return code, nil
}

// measure runs a workload untraced and, with trace set, again traced,
// and assembles its record. End-to-end metrics always come from the
// untraced run.
func measure(d *decl, name string, seed int64, seconds time.Duration, trace bool) (*record, error) {
	started := time.Now()
	o := runOpts{
		workload: name, seed: seed, seconds: seconds,
		scratch:  filepath.Join(buildDir, "tmp", fmt.Sprintf("run-%d-%s", os.Getpid(), name)),
		traceDir: filepath.Join(buildDir, "traces"),
		micached: filepath.Join(buildDir, "micached"),
	}
	plain, childRSS, err := spawn(o)
	if err != nil {
		return nil, err
	}
	var traced *childResult
	if trace {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return nil, err
		}
		o.trace = true
		o.scratch += "-traced"
		if traced, _, err = spawn(o); err != nil {
			return nil, err
		}
	}
	rec, err := assemble(d, plain, childRSS, traced)
	if err != nil {
		return nil, err
	}
	rec.Provenance = provenance{
		NProc: runtime.NumCPU(), GoMaxProcs: childProcs, GoVersion: runtime.Version(),
		Commit: gitCommit(), SimVersion: core.SimVersion, Seed: seed,
		Seconds: seconds.Seconds(), Started: started.UTC().Format(time.RFC3339Nano),
		Phases: plain.Phases,
	}
	rec.Provenance.Host, _ = os.Hostname()
	return rec, nil
}

// assemble builds a workload's record from its plain run and, when
// traced is non-nil, its traced repeat: the end-to-end metrics from the
// plain run, or the per-layer ones from the traced run, plus the
// correctness verdict over both. childRSS is the plain child's peak
// RSS; a serve workload reports its server's instead.
func assemble(d *decl, plain *childResult, childRSS float64, traced *childResult) (*record, error) {
	rec := &record{
		Workload: plain.Workload, Trace: traced != nil,
		Attempted: plain.Attempted, Failed: plain.Failed, Digest: plain.Digest,
		Errors:  plain.Errors,
		Metrics: map[string]metricValue{},
	}
	measured := maps.Clone(plain.Metrics)
	measured["peak_rss_mb"] = childRSS
	if plain.ServerRSSMB > 0 {
		measured["peak_rss_mb"] = plain.ServerRSSMB
	}
	set := d.EndToEnd
	if traced != nil {
		rec.Attempted += traced.Attempted
		rec.Failed += traced.Failed
		rec.Errors = append(rec.Errors, traced.Errors...)
		if traced.Digest != plain.Digest {
			rec.Failed++
			rec.Errors = append(rec.Errors, "traced run's digest differs from the plain run's")
		}
		measured = maps.Clone(traced.Metrics)
		measured["trace.overhead_ratio"] = plain.Metrics["ops_per_s"] / traced.Metrics["ops_per_s"]
		set = d.PerLayer
	}

	st, err := digestStatus(plain.Workload, rec.Digest)
	if err != nil {
		return nil, err
	}
	rec.DigestStatus = st
	if st == "mismatch" {
		rec.Failed++
		rec.Errors = append(rec.Errors, "digest "+rec.Digest+" differs from bench/expect.json")
	}
	for _, m := range set {
		v, ok := measured[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured", plain.Workload, m.Name)
		}
		rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	rec.Failed = min(rec.Failed, rec.Attempted)
	rec.Correct = len(rec.Errors) == 0
	return rec, nil
}

// printRecord prints every metric as "name value unit", then the
// contract's one-line JSON result.
func printRecord(d *decl, rec *record) {
	fmt.Printf("workload %s: digest %s (%s), %d attempted, %d failed\n",
		rec.Workload, rec.Digest, rec.DigestStatus, rec.Attempted, rec.Failed)
	for _, set := range [][]metricDecl{d.EndToEnd, d.PerLayer} {
		for _, m := range set {
			if v, ok := rec.Metrics[m.Name]; ok {
				fmt.Printf("%s %s %s\n", m.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
			}
		}
	}
	b, _ := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	fmt.Println(string(b))
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitCommit reads the checked-out commit from .git without running git,
// or reports "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(rootDir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(rootDir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(rootDir, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
