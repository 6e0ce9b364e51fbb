package hv

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// TestNamedCountsMatchTrace checks each named counter that shares its count
// with the trace tally against a simple reference: the records of its kind
// in a ring that keeps every record of a short co-run. The co-run drives
// all seven kinds: two hogs and a sender oversubscribe two pCPUs (dispatch,
// preempt), the sender's vIPIs wake a sleeping sibling with a boost, a
// device interrupt every period reaches the IRQ vCPU (PIRQ, vIRQ), and IPIs
// sent in even milliseconds are dropped past the retry limit and lost.
func TestNamedCountsMatchTrace(t *testing.T) {
	cfg := testConfig(2)
	cfg.TraceCapacity = 1 << 15
	clock := simtime.NewClock()
	h := New(clock, cfg)
	d := h.NewDomain("vm", nil)
	src := newComputeGuest(h, d, simtime.Second)
	sleeper := newComputeGuest(h, d, 0) // blocks at every dispatch
	irq := newIntrGuest(h, d)
	d.IRQVCPU = irq.v.Idx
	hog := h.NewDomain("hog", nil)
	hogs := []*computeGuest{newComputeGuest(h, hog, simtime.Second), newComputeGuest(h, hog, simtime.Second)}
	h.Hooks.IPIFault = func(Vector) (simtime.Duration, bool) {
		return 0, clock.Now()/simtime.Millisecond%2 == 0
	}
	h.Hooks.IPILoss = func(Vector) bool { return true }
	h.Start()
	for _, g := range append(hogs, src) {
		h.Wake(g.v, false)
	}
	h.Wake(irq.v, false)
	var drive func()
	drive = func() {
		h.SendVIPI(src.v, sleeper.v, VecCallFunc, 0)
		h.InjectPIRQ(d, VecNet, 0)
		clock.After(200*simtime.Microsecond, drive)
	}
	clock.After(simtime.Millisecond, drive)
	clock.RunUntil(200 * simtime.Millisecond)

	recs := h.Trace.Records()
	if len(recs) >= cfg.TraceCapacity {
		t.Fatalf("the ring filled with %d records and may have wrapped", len(recs))
	}
	inRing := map[trace.Kind]uint64{}
	for _, r := range recs {
		inRing[r.Kind]++
	}
	for _, c := range []struct {
		kind trace.Kind
		name string
	}{
		{trace.KindSchedule, "sched.dispatch"},
		{trace.KindPreempt, "sched.preempt"},
		{trace.KindBoost, "boost"},
		{trace.KindVIPI, "vipi.sent"},
		{trace.KindVIRQ, "virq.sent"},
		{trace.KindPIRQ, "pirq"},
		{trace.KindIPILost, "vipi.lost"},
	} {
		named, tally := h.Counters.Value(c.name), h.Trace.Count(c.kind)
		if inRing[c.kind] == 0 {
			t.Errorf("%v: the co-run recorded none", c.kind)
		}
		if named != inRing[c.kind] || tally != inRing[c.kind] {
			t.Errorf("%v: counter %s=%d, Trace.Count=%d, %d records", c.kind, c.name, named, tally, inRing[c.kind])
		}
	}
}
