package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// Ablation benchmarks vary one model knob at a time — memory-level
// parallelism, L1 set count, FR-FCFS depth, the PCby bypass threshold,
// the rinser's dirty-row capacity, and the channel interleave — on a
// workload that is sensitive to it. Each sub-benchmark runs a full
// simulation per iteration and reports the simulated execution time, so
// the effect of the knob is visible directly in the metric column.

func ablate(b *testing.B, cfg core.Config, workload, variant string) {
	b.Helper()
	spec, err := workloads.ByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	v, err := core.VariantByLabel(variant)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r, err := core.RunOne(cfg, v, spec, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.Snap.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// BenchmarkAblationMLP varies the per-wavefront outstanding-request limit:
// the latency-hiding knob that determines how much memory-level
// parallelism hides DRAM latency on the streaming workloads.
func BenchmarkAblationMLP(b *testing.B) {
	for _, mlp := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("mlp=%d", mlp), func(b *testing.B) {
			cfg := benchConfig()
			cfg.GPU.MLPLimit = mlp
			ablate(b, cfg, "FwAct", "Uncached")
		})
	}
}

// BenchmarkAblationL1Sets varies L1 set count at constant capacity: the
// 16-set geometry of Table 1 is why streaming fills block allocation; more
// sets spread pending fills and reduce stalls.
func BenchmarkAblationL1Sets(b *testing.B) {
	for _, ways := range []int{16, 8, 4} {
		sets := (16 << 10) / 64 / ways
		b.Run(fmt.Sprintf("sets=%d", sets), func(b *testing.B) {
			cfg := benchConfig()
			cfg.L1.Ways = ways
			ablate(b, cfg, "FwAct", "CacheR")
		})
	}
}

// BenchmarkAblationFRFCFS varies the memory scheduler's row-hit search
// depth: lookahead 1 degenerates to FCFS and loses the row locality that
// FR-FCFS recovers from interleaved wavefront streams.
func BenchmarkAblationFRFCFS(b *testing.B) {
	for _, look := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("lookahead=%d", look), func(b *testing.B) {
			cfg := benchConfig()
			cfg.DRAM.Lookahead = look
			ablate(b, cfg, "FwAct", "Uncached")
		})
	}
}

// BenchmarkAblationPCby varies the predictor's bypass threshold: 0 never
// bypasses, high thresholds bypass aggressively and give up reuse.
func BenchmarkAblationPCby(b *testing.B) {
	for _, thr := range []int8{0, 2, 5} {
		b.Run(fmt.Sprintf("threshold=%d", thr), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Predictor.Threshold = thr
			ablate(b, cfg, "FwPool", "CacheRW-PCby")
		})
	}
}

// BenchmarkAblationRinse varies the dirty-block-index capacity: a small
// index forgets rows and loses rinse opportunities.
func BenchmarkAblationRinse(b *testing.B) {
	for _, rows := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			cfg := benchConfig()
			cfg.RinserRows = rows
			ablate(b, cfg, "BwPool", "CacheRW-CR")
		})
	}
}

// BenchmarkAblationInterleave varies the channel interleave granularity:
// line-granularity interleaving shreds per-wavefront spatial locality at
// the row buffers.
func BenchmarkAblationInterleave(b *testing.B) {
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("lines=%d", g), func(b *testing.B) {
			cfg := benchConfig()
			cfg.DRAM.InterleaveLines = g
			ablate(b, cfg, "FwAct", "Uncached")
		})
	}
}
