package core

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// TestProfileRun exists for manual performance investigation:
//
//	MICACHE_PROFILE=FwAct:Uncached:0.3 go test ./internal/core \
//	    -run TestProfileRun -cpuprofile cpu.out -v
func TestProfileRun(t *testing.T) {
	env := os.Getenv("MICACHE_PROFILE")
	if env == "" {
		t.Skip("set MICACHE_PROFILE=workload:variant:scale to run")
	}
	parts := strings.Split(env, ":")
	if len(parts) != 3 {
		t.Fatalf("MICACHE_PROFILE=%q: want workload:variant:scale", env)
	}
	name, label := parts[0], parts[1]
	scale, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		t.Fatalf("MICACHE_PROFILE=%q: want workload:variant:scale: %v", env, err)
	}
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	v, err := VariantByLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(DefaultConfig(), v)
	if err != nil {
		t.Fatal(err)
	}
	w := spec.Build(workloads.Scale(scale))
	snap, err := sys.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s/%s: %s", name, label, snap.String())
	// MaxQueueLen is the pending-event high-water mark summed across the
	// engine's wheel buckets and overflow heap (not a single heap length).
	t.Logf("events fired=%d peak pending=%d", sys.Sim.Fired(), sys.Sim.MaxQueueLen())
}
