package vnet

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/workload"
)

// serveWorld builds a 1-vCPU serving VM on an idle host: NIC, request flow
// and a per-vCPU server pool, with an observer attached.
func serveWorld(t *testing.T, rate int, ringCap int) (*simtime.Clock, *hv.Hypervisor, *obs.Observer, *RequestFlow, *workload.ServerPool) {
	t.Helper()
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 2
	h := hv.New(clock, cfg)
	o := obs.New(obs.Config{})
	h.SetObserver(o)
	k := guest.NewKernel(h, "serve", 1, ksym.Generate(1), guest.DefaultParams())
	nic := NewNIC(h, k.Dom, ringCap)
	k.AttachNIC(nic)
	flow, err := NewRequestFlow(clock, nic, rate, 0, 5*simtime.Millisecond, len(k.VCPUs), 7)
	if err != nil {
		t.Fatal(err)
	}
	app := workload.Empty("serve", k)
	pool := workload.RequestServer(app, flow, 8)
	h.Start()
	k.StartAll()
	return clock, h, o, flow, pool
}

func TestRequestFlowConservation(t *testing.T) {
	clock, _, o, flow, pool := serveWorld(t, 5000, 8)
	flow.Start()
	clock.RunUntil(300 * simtime.Millisecond)

	if flow.Offered == 0 || flow.Completed == 0 {
		t.Fatalf("no traffic: offered=%d completed=%d", flow.Offered, flow.Completed)
	}
	if flow.Offered != flow.Dropped+flow.Completed+flow.InFlight() {
		t.Fatalf("conservation: offered=%d != dropped=%d + completed=%d + inflight=%d",
			flow.Offered, flow.Dropped, flow.Completed, flow.InFlight())
	}
	if uint64(flow.Lat.Count()) != flow.Completed {
		t.Fatalf("latency histogram %d != completed %d", flow.Lat.Count(), flow.Completed)
	}
	// Request spans balance: begun == closed + cancelled + open, and the
	// number still open equals the flow's in-flight count.
	open := o.OpenSpansByKind()[obs.SpanRequest]
	if uint64(open) != flow.InFlight() {
		t.Fatalf("open request spans %d != in-flight %d", open, flow.InFlight())
	}
	if got := uint64(o.Hist(obs.SpanRequest).Count()); got != flow.Completed {
		t.Fatalf("closed request spans %d != completed %d", got, flow.Completed)
	}
	if pool.InService() < 0 {
		t.Fatalf("negative in-service")
	}
}

func TestRequestFlowDeterministic(t *testing.T) {
	run := func() (uint64, uint64, uint64, int64) {
		clock, _, _, flow, _ := serveWorld(t, 8000, 6)
		flow.Start()
		clock.RunUntil(200 * simtime.Millisecond)
		return flow.Offered, flow.Dropped, flow.Completed, flow.Lat.Quantile(0.99)
	}
	o1, d1, c1, p1 := run()
	o2, d2, c2, p2 := run()
	if o1 != o2 || d1 != d2 || c1 != c2 || p1 != p2 {
		t.Fatalf("non-deterministic: (%d %d %d %d) vs (%d %d %d %d)",
			o1, d1, c1, p1, o2, d2, c2, p2)
	}
}

func TestRequestTailDropCancelsSpan(t *testing.T) {
	// A tiny ring at a high rate must tail-drop; every drop cancels its
	// request span and counts as an SLO violation, so drops can never
	// silently vanish from the distribution (coordinated omission).
	clock, _, o, flow, _ := serveWorld(t, 40000, 2)
	flow.Start()
	clock.RunUntil(100 * simtime.Millisecond)
	if flow.Dropped == 0 {
		t.Fatalf("expected tail drops at ring cap 2, rate 40k")
	}
	begun, closed, cancelled := o.SpanCounts()
	open := 0
	for _, n := range o.OpenSpansByKind() {
		open += n
	}
	if begun != closed+cancelled+uint64(open) {
		t.Fatalf("span ledger: begun=%d closed=%d cancelled=%d open=%d",
			begun, closed, cancelled, open)
	}
	if cancelled == 0 {
		t.Fatalf("no cancelled spans despite %d drops", flow.Dropped)
	}
}

func TestNoListenerDropCancelsSpans(t *testing.T) {
	// A packet whose flow ID has no socket is dropped at softirq delivery:
	// both its net_rx and request spans must be cancelled, leaking nothing.
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 2
	h := hv.New(clock, cfg)
	o := obs.New(obs.Config{})
	h.SetObserver(o)
	k := guest.NewKernel(h, "vm", 1, ksym.Generate(3), guest.DefaultParams())
	nic := NewNIC(h, k.Dom, 0)
	k.AttachNIC(nic)
	// One listener on flow 0; traffic also arrives for flow 9 (no socket).
	sock := k.NewSocket(0)
	k.NewThread(0, "recv", &recvLoop{sock: sock})
	h.Start()
	k.StartAll()
	for i := 0; i < 10; i++ {
		fl := i % 2 * 9 // alternate listener (0) and no-listener (9)
		nic.Rx(guest.Packet{Seq: uint64(i), Flow: fl, Bytes: 100, SentAt: clock.Now()})
	}
	clock.RunUntil(50 * simtime.Millisecond)
	begun, closed, cancelled := o.SpanCounts()
	open := 0
	for _, n := range o.OpenSpansByKind() {
		open += n
	}
	if begun != closed+cancelled+uint64(open) {
		t.Fatalf("span ledger: begun=%d closed=%d cancelled=%d open=%d",
			begun, closed, cancelled, open)
	}
	if cancelled < 5 {
		t.Fatalf("cancelled=%d, want >= 5 no-listener drops", cancelled)
	}
	if got := o.OpenSpansByKind()[obs.SpanNetRx]; got != 0 {
		t.Fatalf("%d net_rx spans leaked open", got)
	}
}

func TestRequestStageSumMatchesSpan(t *testing.T) {
	// Σ per-stage time == Σ end-to-end span time, exactly (the final stage
	// absorbs the End remainder).
	clock, _, o, flow, _ := serveWorld(t, 5000, 16)
	flow.Start()
	clock.RunUntil(200 * simtime.Millisecond)
	total, stages := o.SpanLedger(obs.SpanRequest)
	var sum int64
	for _, s := range stages {
		sum += s
	}
	if total == 0 {
		t.Fatal("no request span time recorded")
	}
	if sum != total {
		t.Fatalf("stage sum %d != span total %d", sum, total)
	}
}

func TestRequestFlowValidation(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	nic := NewNIC(h, bareDom(h), 0)
	cases := []struct {
		name            string
		rate, bytes     int
		slo             simtime.Duration
		targets         int
		wantErr, wantOK bool
	}{
		{"ok", 1000, 512, simtime.Millisecond, 1, false, true},
		{"default-bytes", 1000, 0, simtime.Millisecond, 1, false, true},
		{"zero-rate", 0, 512, simtime.Millisecond, 1, true, false},
		{"neg-bytes", 1000, -1, simtime.Millisecond, 1, true, false},
		{"zero-slo", 1000, 512, 0, 1, true, false},
		{"zero-targets", 1000, 512, simtime.Millisecond, 0, true, false},
	}
	for _, c := range cases {
		f, err := NewRequestFlow(clock, nic, c.rate, c.bytes, c.slo, c.targets, 1)
		if (err != nil) != c.wantErr {
			t.Fatalf("%s: err=%v wantErr=%v", c.name, err, c.wantErr)
		}
		if c.wantOK && f == nil {
			t.Fatalf("%s: nil flow", c.name)
		}
	}
	f, _ := NewRequestFlow(clock, nic, 1000, 0, simtime.Millisecond, 1, 1)
	if f.bytes != DefaultReqBytes {
		t.Fatalf("bytes=%d, want default %d", f.bytes, DefaultReqBytes)
	}
	if f.SLO() != simtime.Millisecond {
		t.Fatalf("SLO=%v", f.SLO())
	}
}
