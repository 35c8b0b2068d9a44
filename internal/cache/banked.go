package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/stats"
)

// Banked groups several Cache banks behind one Port, routing requests by
// line-address bank bits. The simulated GPU L2 (4 MB shared by 64 CUs,
// Table 1) is a Banked cache: banking provides the request throughput a
// single tag array could not.
type Banked struct {
	banks []*Cache
	// bankShift/bankMask are the precomputed bank-selection pair: the
	// per-request bankOf is one shift plus one and, with the per-bank
	// set-count division folded into the shift at construction.
	bankShift uint
	bankMask  mem.Addr
}

// NewBanked builds nBanks caches from cfg (each bank receives the full
// per-bank geometry given in cfg) over the shared lower level. nBanks must
// be a power of two.
func NewBanked(cfg Config, nBanks int, sim *event.Sim, lower Port) *Banked {
	if nBanks <= 0 || nBanks&(nBanks-1) != 0 {
		panic(fmt.Sprintf("cache %s: bank count must be a positive power of two, got %d", cfg.Name, nBanks))
	}
	b := &Banked{
		banks:    make([]*Cache, nBanks),
		bankMask: mem.Addr(nBanks - 1),
	}
	for i := range b.banks {
		c := cfg
		c.Name = fmt.Sprintf("%s.bank%d", cfg.Name, i)
		b.banks[i] = New(c, sim, lower)
	}
	b.bankShift = mem.LineShift + uint(bits.TrailingZeros(uint(cfg.Sets)))
	return b
}

// bankOf selects the bank for a line address. Bank bits sit directly above
// the set-index bits so that consecutive runs of sets spread across banks:
// bankShift strips the line offset and the per-bank set index in one
// shift, and the bank mask selects the bits directly above them.
func (b *Banked) bankOf(lineAddr mem.Addr) int {
	return int((lineAddr >> b.bankShift) & b.bankMask)
}

// Submit implements Port.
func (b *Banked) Submit(req *mem.Request) {
	b.banks[b.bankOf(req.Line)].Submit(req)
}

// InvalidateClean self-invalidates every bank.
func (b *Banked) InvalidateClean() {
	for _, c := range b.banks {
		c.InvalidateClean()
	}
}

// FlushDirty flushes every bank; done runs after all banks finish.
func (b *Banked) FlushDirty(done func()) {
	remaining := len(b.banks)
	for _, c := range b.banks {
		c.FlushDirty(func() {
			remaining--
			if remaining == 0 && done != nil {
				done()
			}
		})
	}
}

// Reset resets every bank (see Cache.Reset).
func (b *Banked) Reset() {
	for _, c := range b.banks {
		c.Reset()
	}
}

// Stats sums the banks' counters.
func (b *Banked) Stats() stats.CacheStats {
	var s stats.CacheStats
	for _, c := range b.banks {
		s.Add(c.Stats)
	}
	return s
}

// Banks exposes the underlying banks (tests and the harness's debugging).
func (b *Banked) Banks() []*Cache { return b.banks }

// DirtyLines sums dirty lines over banks.
func (b *Banked) DirtyLines() int {
	n := 0
	for _, c := range b.banks {
		n += c.DirtyLines()
	}
	return n
}

// ValidLines sums valid lines over banks.
func (b *Banked) ValidLines() int {
	n := 0
	for _, c := range b.banks {
		n += c.ValidLines()
	}
	return n
}
