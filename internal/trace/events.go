package trace

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// DecisionReason classifies why the adaptive controller chose a pool size.
type DecisionReason uint8

// Decision reasons (Algorithm 1 paths plus the v2 hardening paths).
const (
	// DecisionIdle: no urgent events in the classified sample — zero cores.
	DecisionIdle DecisionReason = iota
	// DecisionSingle: PLE- or IRQ-dominant phase — early-terminate at one.
	DecisionSingle
	// DecisionIPISearch: IPI-dominant phase — the iterative search begins.
	DecisionIPISearch
	// DecisionBestPick: the search finished and the profiled minimum won.
	DecisionBestPick
	// DecisionStabilitySkip: the search was skipped because its winner has
	// been stable for the controller's StabilityEpochs consecutive epochs.
	DecisionStabilitySkip
	// DecisionCapacityClamp: the live online-pCPU ceiling, not the profile,
	// bounded the answer (capacity loss mid-run).
	DecisionCapacityClamp
)

var reasonNames = [...]string{
	DecisionIdle:          "idle",
	DecisionSingle:        "single",
	DecisionIPISearch:     "ipi-search",
	DecisionBestPick:      "best-pick",
	DecisionStabilitySkip: "stability-skip",
	DecisionCapacityClamp: "capacity-clamp",
}

// String names the reason.
func (r DecisionReason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// MarshalText encodes the reason by name.
func (r DecisionReason) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// Sample is one profiling window's urgent-event counts.
type Sample struct {
	IPIs uint64 `json:"ipis"` // IPI-wait yields
	PLEs uint64 `json:"ples"` // pause-loop exits
	IRQs uint64 `json:"irqs"` // relayed device vIRQs
}

// Total sums the sample's urgent events.
func (s Sample) Total() uint64 { return s.IPIs + s.PLEs + s.IRQs }

// Decision is one entry of the adaptive controller's audit trail: a sizing
// decision with the evidence it was based on. Decisions carry no domain
// identifiers, so the trail is bit-identical under domain relabelling —
// the conformance harness checks exactly that.
type Decision struct {
	Time    simtime.Time   `json:"t_ns"`        // when the decision was taken
	Epoch   uint64         `json:"epoch"`       // decision round (1-based)
	Reason  DecisionReason `json:"reason"`      // which Algorithm 1 path fired
	Chosen  int            `json:"micro_cores"` // achieved micro pool size
	Ceiling int            `json:"ceiling"`     // live search ceiling at decision time
	Sample                 // the classified sample (run phase or probe)
	// Probes holds the per-size search samples [0..Ceiling] of a decision
	// that closed an iterative search (nil otherwise).
	Probes []Sample `json:"probes,omitempty"`
}

// RepairKind classifies a recovery-supervisor detection or repair.
type RepairKind uint8

// Detection and repair kinds. Detections observe damage; repairs act on it
// (IsRepair discriminates — MTTR is keyed on the last *repair*).
const (
	DetectStarve RepairKind = iota
	DetectLostIPI
	DetectCapacityLoss
	RepairCredit
	RepairUnpin
	RepairForceDispatch
	RepairIPIRedrive
	RepairShrinkMicro
	RepairRegrowMicro
	NumRepairKinds
)

var repairKindNames = [NumRepairKinds]string{
	DetectStarve:        "detect.starve",
	DetectLostIPI:       "detect.lost_ipi",
	DetectCapacityLoss:  "detect.capacity",
	RepairCredit:        "repair.credit",
	RepairUnpin:         "repair.unpin",
	RepairForceDispatch: "repair.force_dispatch",
	RepairIPIRedrive:    "repair.ipi_redrive",
	RepairShrinkMicro:   "repair.shrink_micro",
	RepairRegrowMicro:   "repair.regrow_micro",
}

// String names the kind (also the suffix of its "recovery.*" counter).
func (k RepairKind) String() string {
	if k < NumRepairKinds {
		return repairKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText encodes the kind by name.
func (k RepairKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// IsRepair reports whether the kind is a repair action (vs a detection).
func (k RepairKind) IsRepair() bool { return k >= RepairCredit }

// Repair is one structured recovery-supervisor detection or repair.
type Repair struct {
	Time simtime.Time `json:"t_ns"`
	Kind RepairKind   `json:"kind"`
	// Dom/VCPU identify the repaired vCPU (-1 for machine-level events
	// such as capacity loss and pool resizes).
	Dom    int    `json:"dom"`
	VCPU   int    `json:"vcpu"`
	Detail string `json:"detail,omitempty"`
}

func (e Repair) String() string {
	return fmt.Sprintf("%v %s d%dv%d %s", e.Time, e.Kind, e.Dom, e.VCPU, e.Detail)
}
