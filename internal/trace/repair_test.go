package trace

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// textRepair is the reference: a repair that stores its detail as text,
// built by the supervisor when it records the repair, with encoding/json's
// default encoding.
type textRepair struct {
	Time   simtime.Time `json:"t_ns"`
	Kind   RepairKind   `json:"kind"`
	Dom    int          `json:"dom"`
	VCPU   int          `json:"vcpu"`
	Detail string       `json:"detail,omitempty"`
}

func (e textRepair) String() string {
	return fmt.Sprintf("%v %s d%dv%d %s", e.Time, e.Kind, e.Dom, e.VCPU, e.Detail)
}

// textDetail builds a kind's detail text the way the supervisor built it
// from its operands: durations and times with their String, pCPU ids,
// vectors and counts with strconv.Itoa. A vector is a uint8.
func textDetail(k RepairKind, a, b int64) string {
	switch k {
	case DetectStarve:
		return "runnable for " + simtime.Duration(a).String() +
			" (> bound " + simtime.Duration(b).String() + ")"
	case DetectLostIPI:
		return "vec " + strconv.Itoa(int(uint8(a))) + " lost at " + simtime.Time(b).String()
	case DetectCapacityLoss:
		return strconv.Itoa(int(a)) + " of " + strconv.Itoa(int(b)) + " pCPUs online"
	case RepairCredit:
		return "credits re-granted, boosted"
	case RepairUnpin:
		return "unpinned from unreachable p" + strconv.Itoa(int(a))
	case RepairForceDispatch:
		return "forced onto p" + strconv.Itoa(int(a))
	case RepairIPIRedrive:
		return "redrive #" + strconv.Itoa(int(a))
	case RepairShrinkMicro, RepairRegrowMicro:
		return "micro " + strconv.Itoa(int(a)) + " -> " + strconv.Itoa(int(b))
	}
	return ""
}

// TestRepairEncodingMatchesText: for every kind, a repair that keeps its
// numbers marshals to JSON and prints with String byte for byte like the
// same repair with its detail formatted up front. The operands cover 0,
// sub-µs, ms, ≥1 s and Infinity durations and times, and vectors and counts
// at their edges.
func TestRepairEncodingMatchesText(t *testing.T) {
	times := []int64{0, 1, 999, 1000, 1500, 999_999, 60_000_000, 1_500_000_000, 7 * int64(simtime.Second), int64(simtime.Infinity)}
	small := []int64{0, 1, 2, 11, 63, 100, 255}
	operands := map[RepairKind][2][]int64{
		DetectStarve:        {times, times},
		DetectLostIPI:       {small, times},
		DetectCapacityLoss:  {small, small},
		RepairCredit:        {{0}, {0}},
		RepairUnpin:         {small, {0}},
		RepairForceDispatch: {small, {0}},
		RepairIPIRedrive:    {{1, 2, 9, 10, 1000}, {0}},
		RepairShrinkMicro:   {small, small},
		RepairRegrowMicro:   {small, small},
	}
	escaped := false
	for k := RepairKind(0); k < NumRepairKinds; k++ {
		ops, ok := operands[k]
		if !ok {
			t.Fatalf("no operands for kind %v", k)
		}
		for i, a := range ops[0] {
			for _, b := range ops[1] {
				at := simtime.Time(times[(i+int(k))%len(times)])
				dom, vcpu := -1, -1
				if a%2 == 1 {
					dom, vcpu = int(a%5), int(b%7)
				}
				got := Repair{Time: at, Kind: k, Dom: dom, VCPU: vcpu, Arg0: a, Arg1: b}
				want := textRepair{Time: at, Kind: k, Dom: dom, VCPU: vcpu, Detail: textDetail(k, a, b)}
				gj, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				wj, _ := json.Marshal(want)
				if string(gj) != string(wj) {
					t.Errorf("%v(%d, %d) JSON:\n got %s\nwant %s", k, a, b, gj, wj)
				}
				if got.String() != want.String() || got.Detail() != want.Detail {
					t.Errorf("%v(%d, %d) text:\n got %q\nwant %q", k, a, b, got.String(), want.String())
				}
				escaped = escaped || strings.Contains(string(gj), "\\u003e")
			}
		}
	}
	if !escaped {
		t.Error(`no encoded detail carried the ">" that JSON escapes as \u003e`)
	}

	// An out-of-range kind has no detail, so JSON omits the key and String
	// ends in a space, as a record with an empty detail does.
	odd := Repair{Time: 5, Kind: NumRepairKinds, Dom: -1, VCPU: -1, Arg0: 3}
	oj, _ := json.Marshal(odd)
	wj, _ := json.Marshal(textRepair{Time: 5, Kind: NumRepairKinds, Dom: -1, VCPU: -1})
	if string(oj) != string(wj) || odd.String() != "5ns kind(9) d-1v-1 " {
		t.Errorf("out-of-range kind: JSON %s (want %s), String %q", oj, wj, odd.String())
	}
	// Inside an indented document, as a flight dump writes it.
	gi, _ := json.MarshalIndent([]Repair{odd, {Kind: DetectStarve, Arg0: 1, Arg1: 2}}, "", "  ")
	wi, _ := json.MarshalIndent([]textRepair{{Time: 5, Kind: NumRepairKinds, Dom: -1, VCPU: -1},
		{Kind: DetectStarve, Detail: textDetail(DetectStarve, 1, 2)}}, "", "  ")
	if string(gi) != string(wi) {
		t.Errorf("indented JSON:\n got %s\nwant %s", gi, wi)
	}
}

// TestRecordingAllocFree: once a ring has filled, emitting a trace record
// and pushing a repair copy values into place and allocate nothing.
func TestRecordingAllocFree(t *testing.T) {
	b := NewBuffer(64)
	repairs := NewRing[Repair](32)
	var n int64
	record := func() {
		n++
		b.Emit(Record{Time: simtime.Time(n), Kind: KindRepair, Dom: -1, VCPU: -1, PCPU: -1, Arg0: uint64(DetectStarve)})
		repairs.Push(Repair{Time: simtime.Time(n), Kind: DetectStarve, Dom: -1, VCPU: -1, Arg0: n, Arg1: 50})
	}
	for i := 0; i < 64; i++ {
		record()
	}
	if allocs := testing.AllocsPerRun(1000, record); allocs != 0 {
		t.Errorf("%v allocs per recorded repair, want 0", allocs)
	}
	if repairs.Total() != uint64(n) || repairs.Len() != 32 {
		t.Fatalf("ring holds %d of %d repairs, want the newest 32 of all %d", repairs.Len(), repairs.Total(), n)
	}
}
