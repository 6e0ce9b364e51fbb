package core

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/rng"
)

// slotOf returns the memo slot rip lands in.
func slotOf(tab *ksym.Table, rip uint64) int {
	d := domSyms{tab: tab}
	d.index(rip)
	for i, s := range d.memo {
		if s.rip == rip {
			return i
		}
	}
	panic("rip not memoized")
}

// TestRIPMemoMatchesIndex checks domSyms.index against Table.Index on
// twenty generated kernels, looking every address up twice so that both
// the miss and the hit are compared: every symbol's start, inner address
// (entry+8), last byte and end; 2000 random kernel addresses, some past
// the last symbol; 2000 user addresses; and, for four slots, eight RIPs
// that share the slot, cycled three times so each lookup evicts the last.
func TestRIPMemoMatchesIndex(t *testing.T) {
	r := rng.New(2024)
	for seed := uint64(1); seed <= 20; seed++ {
		tab := ksym.Generate(seed)
		d := &domSyms{tab: tab}
		check := func(rip uint64) {
			want := tab.Index(rip)
			for i := 0; i < 2; i++ {
				if got := d.index(rip); got != want {
					t.Fatalf("kernel %d: %#x lookup %d gives %d, Table.Index %d", seed, rip, i, got, want)
				}
			}
		}
		syms := tab.Symbols()
		for _, s := range syms {
			check(s.Addr)
			check(s.Addr + 8)
			check(s.End() - 1)
			check(s.End())
		}
		span := int(syms[len(syms)-1].End()-ksym.KernelBase) + 4096
		for i := 0; i < 2000; i++ {
			check(ksym.KernelBase + uint64(r.Intn(span)))
			check(1 + uint64(r.Intn(1<<40)))
		}
		for slot := 0; slot < 4; slot++ {
			var same []uint64
			for len(same) < 8 {
				if rip := ksym.KernelBase + uint64(r.Intn(span)); slotOf(tab, rip) == slot {
					same = append(same, rip)
				}
			}
			for round := 0; round < 3; round++ {
				for _, rip := range same {
					check(rip)
				}
			}
		}
	}
}
