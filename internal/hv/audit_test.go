package hv

import (
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

func auditHost(t *testing.T, pcpus, guests int) (*simtime.Clock, *Hypervisor, []*spinGuest, *Auditor) {
	t.Helper()
	clock, h := setup(pcpus)
	d := h.NewDomain("d", nil)
	gs := make([]*spinGuest, guests)
	for i := range gs {
		gs[i] = newSpinGuest(h, d, 50*simtime.Microsecond)
	}
	a := h.EnableAudit(nil)
	h.Start()
	for _, g := range gs {
		h.Wake(g.v, false)
	}
	return clock, h, gs, a
}

func TestAuditorCleanOnHealthyRun(t *testing.T) {
	clock, _, gs, a := auditHost(t, 2, 4)
	clock.RunUntil(200 * simtime.Millisecond)
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("healthy run produced %d violations, first: %v", len(vs), vs[0])
	}
	for i, g := range gs {
		if g.yields == 0 {
			t.Fatalf("guest %d made no progress", i)
		}
	}
}

func TestAuditorDetectsCreditEscape(t *testing.T) {
	clock, h, gs, _ := auditHost(t, 2, 2)
	clock.RunUntil(10 * simtime.Millisecond)
	gs[0].v.credits = h.Cfg.CreditCap + 1234
	fresh := &Auditor{h: h, starved: map[*VCPU]simtime.Time{}}
	fresh.audit()
	if !hasRule(fresh.Violations(), "credits") {
		t.Fatalf("credit escape undetected: %v", fresh.Violations())
	}
}

func TestAuditorDetectsPlacementCorruption(t *testing.T) {
	clock, h, _, _ := auditHost(t, 2, 4)
	clock.RunUntil(10 * simtime.Millisecond)
	// Claim a running vCPU is merely runnable: now it is in state
	// Runnable but on no runqueue, while its pCPU still runs it.
	var victim *VCPU
	for _, p := range h.pcpus {
		if p.cur != nil {
			victim = p.cur
			break
		}
	}
	if victim == nil {
		t.Fatal("no running vCPU to corrupt")
	}
	victim.state = StateRunnable
	fresh := &Auditor{h: h, starved: map[*VCPU]simtime.Time{}}
	fresh.audit()
	if !hasRule(fresh.Violations(), "placement") {
		t.Fatalf("placement corruption undetected: %v", fresh.Violations())
	}
	victim.state = StateRunning // restore so teardown stays sane
}

func TestAuditorDetectsStarvation(t *testing.T) {
	clock, h, _, _ := auditHost(t, 2, 6)
	clock.RunUntil(50 * simtime.Millisecond)
	var queued *VCPU
	for _, p := range h.pcpus {
		if len(p.runq) > 0 {
			queued = p.runq[0]
			break
		}
	}
	if queued == nil {
		t.Fatal("no queued vCPU (6 guests on 2 pCPUs should overcommit)")
	}
	// Pretend it has waited just past the horizon.
	queued.runnableSince = clock.Now() - auditStarveHorizon - 1
	fresh := &Auditor{h: h, starved: map[*VCPU]simtime.Time{}}
	fresh.audit()
	if !hasRule(fresh.Violations(), "starvation") {
		t.Fatalf("starvation undetected: %v", fresh.Violations())
	}
	// Same wait episode: a second walk must not duplicate the report.
	before := len(fresh.Violations())
	fresh.audit()
	if n := len(fresh.Violations()); n != before {
		t.Fatalf("starvation re-reported: %d -> %d", before, n)
	}
}

func TestInvariantErrorCarriesTrace(t *testing.T) {
	clock := simtime.NewClock()
	cfg := testConfig(2)
	cfg.TraceCapacity = 256 // violations attach the trace-ring tail
	h := New(clock, cfg)
	d := h.NewDomain("d", nil)
	gs := []*spinGuest{
		newSpinGuest(h, d, 50*simtime.Microsecond),
		newSpinGuest(h, d, 50*simtime.Microsecond),
	}
	h.Start()
	for _, g := range gs {
		h.Wake(g.v, false)
	}
	clock.RunUntil(10 * simtime.Millisecond)
	gs[0].v.credits = h.Cfg.CreditFloor - 1
	fresh := &Auditor{h: h, starved: map[*VCPU]simtime.Time{}}
	fresh.audit()
	vs := fresh.Violations()
	if len(vs) == 0 {
		t.Fatal("no violation recorded")
	}
	v := vs[0]
	if v.Time != h.Clock.Now() {
		t.Fatalf("violation stamped %v, clock at %v", v.Time, h.Clock.Now())
	}
	if len(v.Trace) == 0 {
		t.Fatal("violation carries no trace tail")
	}
	if !strings.Contains(v.Error(), "credits") {
		t.Fatalf("Error() lacks the rule: %q", v.Error())
	}
}

func TestAuditorCapsRecording(t *testing.T) {
	clock, h, gs, _ := auditHost(t, 2, 2)
	clock.RunUntil(10 * simtime.Millisecond)
	for _, g := range gs {
		g.v.credits = h.Cfg.CreditCap + 999
	}
	fresh := &Auditor{h: h, starved: map[*VCPU]simtime.Time{}}
	// Every walk reports both credit escapes again, so enough walks
	// overshoot the cap.
	for i := 0; i <= auditMaxViolations/len(gs); i++ {
		fresh.audit()
	}
	if n := len(fresh.Violations()); n != auditMaxViolations {
		t.Fatalf("recorded %d violations, want the cap %d", n, auditMaxViolations)
	}
}

func hasRule(vs []InvariantError, rule string) bool {
	for _, v := range vs {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// pCPU hotplug
// ---------------------------------------------------------------------------

func TestOfflineOnlinePCPU(t *testing.T) {
	clock, h, gs, a := auditHost(t, 4, 8)
	clock.RunUntil(50 * simtime.Millisecond)
	if err := h.OfflinePCPU(3); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, h)
	if !h.PCPU(3).Offline() {
		t.Fatal("p3 not marked offline")
	}
	if len(h.normal.pcpus)+len(h.micro.pcpus) != 3 {
		t.Fatal("offline pCPU still pooled")
	}
	marks := make([]int, len(gs))
	for i, g := range gs {
		marks[i] = g.yields
	}
	clock.RunUntil(150 * simtime.Millisecond)
	checkInvariants(t, h)
	for i, g := range gs {
		if g.yields == marks[i] {
			t.Fatalf("guest %d stopped progressing after hot-unplug", i)
		}
	}
	if err := h.OnlinePCPU(3); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, h)
	clock.RunUntil(250 * simtime.Millisecond)
	checkInvariants(t, h)
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("hotplug cycle produced %d violations, first: %v", len(vs), vs[0])
	}
}

func TestOfflinePCPUErrors(t *testing.T) {
	clock, h, _, _ := auditHost(t, 2, 2)
	clock.RunUntil(10 * simtime.Millisecond)
	if err := h.OfflinePCPU(99); err == nil {
		t.Fatal("unknown pCPU accepted")
	}
	if err := h.OnlinePCPU(1); err == nil {
		t.Fatal("online of an online pCPU accepted")
	}
	if err := h.OfflinePCPU(1); err != nil {
		t.Fatal(err)
	}
	if err := h.OfflinePCPU(1); err == nil {
		t.Fatal("double offline accepted")
	}
	if err := h.OfflinePCPU(0); err == nil {
		t.Fatal("unplugging the last normal-pool pCPU accepted")
	}
}
