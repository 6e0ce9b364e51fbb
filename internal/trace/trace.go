// Package trace is the simulator's xentrace analogue: a bounded in-memory
// ring of typed records emitted by the hypervisor and guest models. The
// experiment harness consumes it to decompose yield events by source
// (Figure 7 of the paper) and to debug scheduling decisions.
//
// The package owns every run-event record format: scheduler trace Records,
// the adaptive controller's Decisions and the recovery supervisor's
// Repairs, each retained in a bounded Ring. Producers push them and every
// reader — flight recorder, Chrome exporter, run results, CLIs — uses the
// same values unconverted.
package trace

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// Kind identifies the event class of a record.
type Kind uint8

// Record kinds, roughly mirroring the xentrace classes the paper uses.
const (
	KindNone       Kind = iota
	KindSchedule        // vCPU dispatched on a pCPU
	KindPreempt         // vCPU descheduled by slice expiry
	KindYield           // vCPU yielded (PLE or voluntary)
	KindBlock           // vCPU halted (idle)
	KindWake            // vCPU woken (event/IRQ)
	KindBoost           // vCPU boosted by the wake path
	KindVIPI            // virtual IPI relayed
	KindVIRQ            // virtual IRQ relayed
	KindPIRQ            // physical IRQ received by the hypervisor
	KindMigrate         // vCPU migrated between pools
	KindPoolResize      // micro-sliced pool grew or shrank
	KindDetect          // detector classified a critical service
	KindLock            // guest lock event (acquire/contend/release)
	KindTLB             // guest TLB shootdown event
	KindHotplug         // pCPU taken offline (arg0=0) or brought online (arg0=1)
	KindIPILost         // vIPI dropped past the retry limit and lost outright
	KindRepair          // recovery supervisor detection or repair action
	kindCount
)

var kindNames = [...]string{
	KindNone:       "none",
	KindSchedule:   "sched",
	KindPreempt:    "preempt",
	KindYield:      "yield",
	KindBlock:      "block",
	KindWake:       "wake",
	KindBoost:      "boost",
	KindVIPI:       "vipi",
	KindVIRQ:       "virq",
	KindPIRQ:       "pirq",
	KindMigrate:    "migrate",
	KindPoolResize: "poolresize",
	KindDetect:     "detect",
	KindLock:       "lock",
	KindTLB:        "tlb",
	KindHotplug:    "hotplug",
	KindIPILost:    "ipilost",
	KindRepair:     "repair",
}

// String returns the short name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText encodes the kind by name, so JSON read-outs (flight dumps,
// violation reports) are self-describing.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Record is one trace entry. Arg0/Arg1 carry kind-specific payloads (e.g.
// the yield reason, the RIP, the target vCPU).
type Record struct {
	Time simtime.Time `json:"t_ns"`
	Kind Kind         `json:"kind"`
	Dom  int16        `json:"dom"`
	VCPU int16        `json:"vcpu"`
	PCPU int16        `json:"pcpu"`
	Arg0 uint64       `json:"arg0"`
	Arg1 uint64       `json:"arg1"`
}

// String renders the record for debugging.
func (r Record) String() string {
	return fmt.Sprintf("%v %-9s d%dv%d p%d a0=%#x a1=%#x",
		r.Time, r.Kind, r.Dom, r.VCPU, r.PCPU, r.Arg0, r.Arg1)
}

// Buffer is the trace ring: a fixed-capacity Ring of records allocated
// once, at construction. When full, the oldest records are overwritten
// (like a real trace ring). Per-kind counters are exact over the whole run
// regardless of ring wrap.
type Buffer struct {
	ring   Ring[Record]
	counts [kindCount]uint64
}

// NewBuffer returns a ring holding up to capacity records. Capacity 0
// disables record storage but keeps counters.
func NewBuffer(capacity int) *Buffer {
	b := &Buffer{ring: NewRing[Record](capacity)}
	if capacity > 0 {
		b.ring.buf = make([]Record, 0, capacity)
	}
	return b
}

// Emit appends one record.
func (b *Buffer) Emit(r Record) {
	if int(r.Kind) < len(b.counts) {
		b.counts[r.Kind]++
	}
	b.ring.Push(r)
}

// Count returns the exact number of records emitted with the given kind.
func (b *Buffer) Count(k Kind) uint64 {
	if int(k) >= len(b.counts) {
		return 0
	}
	return b.counts[k]
}

// Len returns the number of records currently held in the ring.
func (b *Buffer) Len() int { return b.ring.Len() }

// Records returns the held records oldest-first.
func (b *Buffer) Records() []Record { return b.ring.All() }

// Tail returns the newest min(n, Len) records oldest-first, copying only
// those.
func (b *Buffer) Tail(n int) []Record { return b.ring.Tail(n) }
