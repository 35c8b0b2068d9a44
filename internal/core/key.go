package core

import (
	"fmt"
	"strconv"

	"repro/internal/stats"
)

// SimVersion is the simulator timing fingerprint: a constant that MUST
// be bumped in the same change as any intentional timing difference —
// i.e. whenever the golden Table-2 matrix (golden_test.go) is
// regenerated with GOLDEN_UPDATE=1. It is baked into every persistent
// cache key via Fingerprint, so snapshots written by an older deploy
// whose timing differs are invalidated (clean misses), never trusted.
//
// History: 1 = the post-SIMD-fix matrix pinned in PR 2; 2 = the FwBN
// empty-chunk-range fix regeneration in PR 4 (current).
const SimVersion = 2

// Fingerprint canonicalizes everything that changes a result without
// appearing in the per-request tuple: the simulator timing version and
// the config knobs the binaries expose as deploy-time overrides
// (MICACHED_CUS / -cus). Any new env- or flag-overridable Config knob
// that affects snapshots must join this string, or persisted entries
// from differently-configured deploys would collide.
func Fingerprint(cfg Config) string {
	return fmt.Sprintf("v%d-cus%d", SimVersion, cfg.GPU.CUs)
}

// CellKey is the canonical content address of one cell result — THE
// key schema shared by micached's result cache and micache's
// -cache-dir store, so both binaries read and write the same entries.
// It covers the fingerprint (deploy invalidation), the request tuple
// (workload, variant, scale), and the resolved topology; the topology
// is keyed after WithDefaults so equivalent spellings collide.
func CellKey(cfg Config, workload, variant string, scale float64) string {
	t := cfg.Topology.WithDefaults()
	return stats.CanonicalKey(
		"fp", Fingerprint(cfg),
		"w", workload,
		"v", variant,
		"s", stats.KeyFloat(scale),
		"tiles", strconv.Itoa(t.Tiles),
		"topo", t.Kind.String(),
	)
}
