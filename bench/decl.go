package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/core"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// decl is the part of BENCHMARK.json the benchmark reads.
type decl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDecl(path string) (*decl, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d decl
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// expectPath holds the expected result digests, per core.SimVersion
// and workload. A digest pins the simulated results themselves, so it
// changes exactly when the golden matrix does.
func expectPath() string { return filepath.Join(rootDir, "bench", "expect.json") }

// digestStatus compares a run's digest with the expected one:
// "verified", "mismatch", or "unverified" when none is recorded for
// this SimVersion and workload.
func digestStatus(workload, digest string) (string, error) {
	b, err := os.ReadFile(expectPath())
	if err != nil {
		return "", err
	}
	var exp map[string]map[string]string
	if err := json.Unmarshal(b, &exp); err != nil {
		return "", fmt.Errorf("%s: %w", expectPath(), err)
	}
	want, ok := exp[strconv.Itoa(core.SimVersion)][workload]
	switch {
	case !ok:
		return "unverified", nil
	case want == digest:
		return "verified", nil
	default:
		return "mismatch", nil
	}
}
