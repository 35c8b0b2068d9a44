package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/workloads"
)

// TestCancelAnywhereResetEquivalence is the chaos contract behind
// re-pooling budget-interrupted systems: stop a run at an arbitrary
// event count, Reset, and the rerun must be byte-identical to a run on
// a system that was never interrupted. Every variant, several random
// cut points each, with a fixed seed so failures reproduce.
//
// This is deliberately run under -race in CI: the max-events budget
// exercises the monitor-free poll path, and interleaving it with
// watchdog-bearing tests in the same binary shakes out unsynchronized
// access between the engine goroutine and budget bookkeeping.
func TestCancelAnywhereResetEquivalence(t *testing.T) {
	cfg := testConfig()
	spec, err := workloads.ByName("FwPool")
	if err != nil {
		t.Fatal(err)
	}
	w := spec.Build(testScale)

	const cutsPerVariant = 5
	rng := rand.New(rand.NewSource(0x6d69636163686564)) // "micached"

	// The "/workers=1" suffix keeps the subtest IDs stable.
	for _, v := range AllVariants() {
		v := v
		t.Run(v.Label+"/workers=1", func(t *testing.T) {
			sys, err := NewSystem(cfg, v)
			if err != nil {
				t.Fatal(err)
			}
			ref := mustRun(t, sys, w)
			total := sys.Sim.Fired()
			if total < 2 {
				t.Fatalf("workload fired only %d events; chaos cuts need more", total)
			}

			for i := 0; i < cutsPerVariant; i++ {
				cut := 1 + uint64(rng.Int63n(int64(total)))
				sys.Reset()
				snap, rerr := sys.RunBudgeted(w, Budgets{MaxEvents: cut})
				if rerr == nil {
					// The poll granularity (one bucket drain) let the
					// run finish before noticing a cut near the end;
					// the result must then be the reference exactly.
					if !snap.Equal(ref) {
						t.Fatalf("cut=%d: uninterrupted completion differs from reference", cut)
					}
				} else {
					var be *ErrBudgetExceeded
					if !errors.As(rerr, &be) {
						t.Fatalf("cut=%d: err = %v, want *ErrBudgetExceeded", cut, rerr)
					}
					if be.Fired < cut {
						t.Fatalf("cut=%d: stopped after only %d events", cut, be.Fired)
					}
					if be.Fired > total {
						t.Fatalf("cut=%d: error reports %d events fired but the whole run is %d: aggregate fired count overshot",
							cut, be.Fired, total)
					}
				}

				// The re-pool contract: Reset after an interruption at
				// ANY point restores byte-identical behavior.
				sys.Reset()
				got := mustRun(t, sys, w)
				if !got.Equal(ref) {
					t.Fatalf("cut=%d: rerun after interrupted run differs from fresh:\nfresh: %+v\nrerun: %+v",
						cut, ref, got)
				}
			}
		})
	}
}
