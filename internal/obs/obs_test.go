package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

const us = simtime.Microsecond

// TestStateAccounting walks one vCPU through a blocked→runnable→running→
// blocked cycle and checks every residency cell.
func TestStateAccounting(t *testing.T) {
	o := New(Config{})
	o.EnsurePCPUs(2)
	o.EnsureVCPU(0, 1, 0)

	// Blocked [0, 100us), runnable [100us, 130us), running [130us, 200us),
	// blocked afterwards.
	o.Transition(0, StateRunnable, 100*us)
	o.Transition(0, StateRunning, 130*us)
	o.Transition(0, StateBlocked, 200*us)

	r, ok := o.VCPUResidencyOf(0, 250*us)
	if !ok {
		t.Fatal("vCPU 0 not registered")
	}
	if r.Dom != 1 || r.VCPU != 0 {
		t.Fatalf("identity = dom%d vcpu%d, want dom1 vcpu0", r.Dom, r.VCPU)
	}
	if r.Blocked != 150*us {
		t.Errorf("Blocked = %v, want 150us", r.Blocked)
	}
	if r.Runnable != 30*us {
		t.Errorf("Runnable = %v, want 30us", r.Runnable)
	}
	if r.Running != 70*us {
		t.Errorf("Running = %v, want 70us", r.Running)
	}
	if r.Wait() != 30*us {
		t.Errorf("Wait() = %v, want 30us", r.Wait())
	}
	if r.MicroTotal != 0 {
		t.Errorf("MicroTotal = %v, want 0 (never in the micro pool)", r.MicroTotal)
	}
	total := r.Running + r.Runnable + r.Boosted + r.Blocked
	if total != 250*us {
		t.Errorf("residency sums to %v, want the full 250us", total)
	}
}

// TestStateAccountingBoostAndMicro exercises the boosted sub-state and the
// micro-pool dimension of the residency matrix.
func TestStateAccountingBoostAndMicro(t *testing.T) {
	o := New(Config{})
	o.EnsureVCPU(3, 0, 3)

	o.Transition(3, StateBoosted, 10*us) // blocked 10us
	o.SetMicro(3, true, 20*us)           // boosted 10us in the normal pool
	o.Transition(3, StateRunning, 25*us) // boosted 5us in the micro pool
	o.Transition(3, StateBlocked, 65*us) // running 40us in the micro pool
	o.SetMicro(3, false, 70*us)          // blocked 5us in the micro pool

	r, ok := o.VCPUResidencyOf(3, 100*us)
	if !ok {
		t.Fatal("vCPU 3 not registered")
	}
	if r.Boosted != 15*us {
		t.Errorf("Boosted = %v, want 15us", r.Boosted)
	}
	if r.MicroRunning != 40*us {
		t.Errorf("MicroRunning = %v, want 40us", r.MicroRunning)
	}
	if r.MicroTotal != 50*us {
		t.Errorf("MicroTotal = %v, want 50us", r.MicroTotal)
	}
	if r.Blocked != 10*us+5*us+30*us {
		t.Errorf("Blocked = %v, want 45us", r.Blocked)
	}
}

// TestResidencySnapshotIsReadOnly checks that snapshotting flushes the open
// state without mutating the accountant: two snapshots at different times
// must both be exact.
func TestResidencySnapshotIsReadOnly(t *testing.T) {
	o := New(Config{})
	o.EnsureVCPU(0, 0, 0)
	o.Transition(0, StateRunning, 0)

	r1, _ := o.VCPUResidencyOf(0, 30*us)
	r2, _ := o.VCPUResidencyOf(0, 50*us)
	if r1.Running != 30*us || r2.Running != 50*us {
		t.Errorf("snapshots = %v then %v, want 30us then 50us", r1.Running, r2.Running)
	}
}

func TestPCPUAccounting(t *testing.T) {
	o := New(Config{})
	o.EnsurePCPUs(2)
	o.PCPUDispatched(0, false)
	o.PCPUDispatched(0, true)
	o.PCPURan(0, 40*us)
	o.PCPURan(1, 10*us)
	// Out-of-range ids must be ignored, not panic.
	o.PCPURan(99, us)
	o.PCPUDispatched(99, true)

	ps := o.PCPUSnapshot()
	if len(ps) != 2 {
		t.Fatalf("PCPUSnapshot len = %d, want 2", len(ps))
	}
	if ps[0].Busy != 40*us || ps[0].Dispatches != 2 || ps[0].Steals != 1 {
		t.Errorf("p0 = %+v, want busy 40us, 2 dispatches, 1 steal", ps[0])
	}
	if ps[1].Busy != 10*us {
		t.Errorf("p1 busy = %v, want 10us", ps[1].Busy)
	}
}

// TestSpanLifecycle opens, closes and cancels spans and checks the histogram
// and the open-span table.
func TestSpanLifecycle(t *testing.T) {
	o := New(Config{})

	s1 := o.Begin(SpanIPIDeliver, 0, 1, 42, 100*us)
	s2 := o.Begin(SpanLockAcquire, 1, 2, 0, 110*us)
	if s1 == 0 || s2 == 0 || s1 == s2 {
		t.Fatalf("Begin refs = %d, %d: want distinct non-zero", s1, s2)
	}
	if open := o.OpenSpans(); len(open) != 2 {
		t.Fatalf("OpenSpans = %d, want 2", len(open))
	}

	o.End(s1, 150*us)
	if h := o.Hist(SpanIPIDeliver); h.Count() != 1 || h.Max() != int64(50*us) {
		t.Errorf("ipi_deliver hist count=%d max=%d, want 1 and 50us", h.Count(), h.Max())
	}
	o.Cancel(s2)
	if h := o.Hist(SpanLockAcquire); h.Count() != 0 {
		t.Errorf("cancelled span was observed (count=%d)", h.Count())
	}
	if open := o.OpenSpans(); len(open) != 0 {
		t.Fatalf("OpenSpans = %d after close/cancel, want 0", len(open))
	}

	// The zero ref is a universal no-op.
	o.End(0, 200*us)
	o.Cancel(0)

	// Slots must be recycled: a new span after two closes reuses the table.
	s3 := o.Begin(SpanNetRx, 0, 0, 7, 200*us)
	o.End(s3, 205*us)
	if h := o.Hist(SpanNetRx); h.Count() != 1 {
		t.Errorf("net_rx count = %d, want 1", h.Count())
	}
}

// TestWakeSpanCoalescing: a second wake before dispatch must keep the older
// span's start edge.
func TestWakeSpanCoalescing(t *testing.T) {
	o := New(Config{})
	o.EnsureVCPU(0, 0, 0)
	o.WakeBegin(0, 100*us)
	o.WakeBegin(0, 150*us) // racing wake: ignored
	o.WakeEnd(0, 300*us)
	h := o.Hist(SpanWakeDispatch)
	if h.Count() != 1 {
		t.Fatalf("wake_dispatch count = %d, want 1", h.Count())
	}
	if got := h.Max(); got != int64(200*us) {
		t.Errorf("wake_dispatch latency = %d, want 200us (older edge kept)", got)
	}
	// WakeEnd with no open span is a no-op, not a zero-length sample.
	o.WakeEnd(0, 400*us)
	if h.Count() != 1 {
		t.Errorf("spurious WakeEnd recorded a sample (count=%d)", h.Count())
	}
}

// TestHotPathAllocFree proves the per-event accounting surface — including
// stage attribution (explicit Stage marks plus the wake-stage crediting
// inside Transition/SetMicro) — is allocation-free at steady state (after
// the span table has grown once).
func TestHotPathAllocFree(t *testing.T) {
	o := New(Config{})
	o.EnsurePCPUs(4)
	for id := 0; id < 8; id++ {
		o.EnsureVCPU(id, 0, int16(id))
	}
	// Warm up the span free list.
	warm := make([]SpanRef, 8)
	for i := range warm {
		warm[i] = o.Begin(SpanIPIDeliver, 0, 0, 0, 0)
	}
	for _, r := range warm {
		o.End(r, us)
	}
	now := simtime.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += us
		o.Transition(3, StateRunnable, now)
		o.WakeBegin(3, now)
		o.Transition(3, StateRunning, now+us)
		o.WakeEnd(3, now+us)
		o.PCPUDispatched(2, false)
		o.PCPURan(2, us)
		s := o.Begin(SpanLockAcquire, 0, 3, 0, now)
		o.Stage(s, LockStagePreempt, now+us)
		o.End(s, now+us)
		o.SetMicro(3, true, now+us)
		o.SetMicro(3, false, now+us)
		o.Transition(3, StateBlocked, now+2*us)
	})
	if allocs != 0 {
		t.Errorf("steady-state hot path allocates %v per cycle, want 0", allocs)
	}
}

func TestSummary(t *testing.T) {
	o := New(Config{})
	o.EnsurePCPUs(2)
	o.EnsureVCPU(0, 0, 0)
	o.Transition(0, StateRunning, 0)
	o.PCPURan(1, 90*us)
	o.PCPURan(0, 10*us)
	for i := 0; i < 10; i++ {
		s := o.Begin(SpanDiskIO, 0, -1, 512, simtime.Time(i)*us)
		o.End(s, simtime.Time(i+2)*us)
	}
	leak := o.Begin(SpanNetRx, 0, 0, 0, 0)
	_ = leak

	sum := o.Summary(100 * us)
	if sum.Duration != 100*us {
		t.Errorf("Duration = %v, want 100us", sum.Duration)
	}
	if len(sum.Spans) != int(numSpanKinds) {
		t.Fatalf("Spans = %d entries, want %d (one per kind)", len(sum.Spans), numSpanKinds)
	}
	d := sum.Span("disk_io")
	if d == nil || d.Count != 10 {
		t.Fatalf("disk_io stat = %+v, want count 10", d)
	}
	if d.Max != 2*us {
		t.Errorf("disk_io max=%v, want 2us", d.Max)
	}
	// Quantiles report bucket lower bounds: p50 of identical 2us samples
	// lands in the enclosing bucket, within one sub-bucket of the sample.
	if d.P50 <= 0 || d.P50 > 2*us || d.P999 < d.P50 {
		t.Errorf("disk_io p50=%v p999=%v outside (0, 2us]", d.P50, d.P999)
	}
	if sum.Span("nonsense") != nil {
		t.Error("Span(nonsense) != nil")
	}
	if sum.OpenSpans != 1 {
		t.Errorf("OpenSpans = %d, want 1 (the leaked net_rx)", sum.OpenSpans)
	}
	if id, busy := sum.BusiestPCPU(); id != 1 || busy != 90*us {
		t.Errorf("BusiestPCPU = p%d %v, want p1 90us", id, busy)
	}
}

func TestFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	o := New(Config{FlightDir: dir, Label: "t"})
	o.EnsureVCPU(0, 0, 0)
	o.Transition(0, StateRunning, 0)
	ref := o.Begin(SpanIPIDeliver, 0, 0, 9, 5*us)
	_ = ref
	repairs := trace.NewRing[trace.Repair](4)
	repairs.Push(trace.Repair{Time: 7 * us, Kind: trace.RepairUnpin, Dom: 0, VCPU: 1, Arg0: 3})
	decisions := trace.NewRing[trace.Decision](4)
	decisions.Push(trace.Decision{Time: 4 * us, Epoch: 1, Reason: trace.DecisionSingle, Chosen: 1, Ceiling: 3,
		Sample: trace.Sample{PLEs: 26}})
	decisions.Push(trace.Decision{Time: 6 * us, Epoch: 2, Reason: trace.DecisionBestPick, Chosen: 2, Ceiling: 2,
		Sample: trace.Sample{IPIs: 9}, Probes: []trace.Sample{{IPIs: 9}, {IPIs: 5}, {IPIs: 3}}})
	o.Repairs, o.Decisions = &repairs, &decisions

	// A tail two records longer than FlightDepth: the dump keeps the last
	// FlightDepth, which start at the first sched record.
	tail := []trace.Record{{Time: 0, Kind: trace.KindWake, Dom: 0, VCPU: 0}}
	for i := 1; i < FlightDepth+2; i++ {
		kind := trace.KindBlock
		if i%2 == 0 {
			kind = trace.KindSchedule
		}
		tail = append(tail, trace.Record{Time: simtime.Time(i) * us, Kind: kind, Dom: 0, VCPU: 0, PCPU: 1})
	}
	o.Flight(10*us, "invariant:placement", "vCPU on offline pCPU", tail)
	for i := 2; i <= maxFlights+1; i++ {
		o.Flight(simtime.Time(10*i)*us, "fault", "hotplug-off p3", nil)
	}

	if got := o.flightSeq; got != maxFlights+1 {
		t.Errorf("flights triggered = %d, want %d", got, maxFlights+1)
	}
	fl := o.flights
	if len(fl) != maxFlights {
		t.Fatalf("retained flights = %d, want %d (maxFlights)", len(fl), maxFlights)
	}
	d := fl[0]
	if d.Reason != "invariant:placement" || d.Time != 10*us || d.Seq != 1 {
		t.Errorf("dump 0 = %+v, want placement reason at 10us seq 1", d)
	}
	if len(d.Trace) != FlightDepth || d.Trace[0].Time != 2*us || d.Trace[0].Kind != trace.KindSchedule ||
		d.Trace[FlightDepth-1].Time != simtime.Time(FlightDepth+1)*us {
		t.Errorf("trace tail = %+v, want the last %d records", d.Trace, FlightDepth)
	}
	if len(d.Repairs) != 1 || len(d.Decisions) != 2 {
		t.Errorf("dump carries %d repairs and %d decisions, want the registered 1 and 2", len(d.Repairs), len(d.Decisions))
	}
	if len(d.VCPUs) != 1 || d.VCPUs[0].Running != 10*us {
		t.Errorf("residency in dump = %+v, want vCPU0 running 10us", d.VCPUs)
	}
	if len(d.OpenSpans) != 1 || d.OpenSpans[0].Kind != "ipi_deliver" {
		t.Errorf("open spans in dump = %+v, want the one open ipi_deliver", d.OpenSpans)
	}
	if o.FlightErr() != nil {
		t.Fatalf("FlightErr = %v", o.FlightErr())
	}

	// Both retained dumps must exist on disk and decode back.
	var dumps []map[string]any
	for _, d := range fl {
		if d.File == "" {
			t.Fatalf("dump %d has no file", d.Seq)
		}
		buf, err := os.ReadFile(d.File)
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]any
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("dump %s does not decode: %v", d.File, err)
		}
		if back["reason"] != d.Reason || back["seq"] != float64(d.Seq) {
			t.Errorf("decoded dump = seq %v %v, want seq %d %q", back["seq"], back["reason"], d.Seq, d.Reason)
		}
		dumps = append(dumps, back)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-t-*.json"))
	if len(files) != maxFlights {
		t.Errorf("files on disk = %v, want exactly %d", files, maxFlights)
	}

	// The dump schema: each record keeps its key set, and enums serialise
	// by name, so a dump reads without the simulator's source.
	first := func(key string, i int) map[string]any {
		t.Helper()
		list, _ := dumps[0][key].([]any)
		if len(list) <= i {
			t.Fatalf("dump %q = %v, want more than %d entries", key, dumps[0][key], i)
		}
		return list[i].(map[string]any)
	}
	decisionKeys := "ceiling epoch ipis irqs micro_cores ples reason t_ns"
	for _, tc := range []struct {
		rec        map[string]any
		keys, enum string
		name       string
	}{
		{first("trace", 0), "arg0 arg1 dom kind pcpu t_ns vcpu", "kind", "sched"},
		{first("repairs", 0), "detail dom kind t_ns vcpu", "kind", "repair.unpin"},
		{first("decisions", 0), decisionKeys, "reason", "single"},
		// The only addition to the decision schema: a decision closing an
		// iterative search carries its per-size probes.
		{first("decisions", 1), decisionKeys + " probes", "reason", "best-pick"},
	} {
		keys := make([]string, 0, len(tc.rec))
		for k := range tc.rec {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		want := strings.Fields(tc.keys)
		sort.Strings(want)
		if strings.Join(keys, " ") != strings.Join(want, " ") {
			t.Errorf("record keys = %v, want %v", keys, want)
		}
		if tc.rec[tc.enum] != tc.name {
			t.Errorf("record %s = %#v, want the name %q", tc.enum, tc.rec[tc.enum], tc.name)
		}
	}
	if probes := first("decisions", 1)["probes"].([]any); len(probes) != 3 ||
		probes[2].(map[string]any)["ipis"] != float64(3) {
		t.Errorf("decoded probes = %v, want 3 flat samples ending ipis=3", probes)
	}
}

// TestFlightDumpIncludesRepairTail: once the recovery supervisor's repair
// ring is registered (recovery.Attach does this), every flight dump carries
// its newest entries oldest-first — a post-mortem dump shows what the
// supervisor did leading up to the trigger.
func TestFlightDumpIncludesRepairTail(t *testing.T) {
	o := New(Config{})
	repairs := trace.NewRing[trace.Repair](2)
	repairs.Push(trace.Repair{Time: 3 * us, Kind: trace.DetectLostIPI, Dom: -1, VCPU: -1})
	repairs.Push(trace.Repair{Time: 5 * us, Kind: trace.DetectStarve, Dom: 0, VCPU: 1, Arg0: int64(60 * simtime.Millisecond), Arg1: int64(50 * simtime.Millisecond)})
	repairs.Push(trace.Repair{Time: 7 * us, Kind: trace.RepairUnpin, Dom: 0, VCPU: 1, Arg0: 3})
	o.Repairs = &repairs
	o.Flight(10*us, "invariant:starvation", "d0v1 starved", nil)

	fl := o.flights
	if len(fl) != 1 {
		t.Fatalf("retained flights = %d, want 1", len(fl))
	}
	d := fl[0]
	if len(d.Repairs) != 2 || d.Repairs[0].Kind != trace.DetectStarve || d.Repairs[1].Detail() != "unpinned from unreachable p3" {
		t.Fatalf("dump repairs = %+v, want the ring's newest 2 records", d.Repairs)
	}
	if d.Decisions != nil {
		t.Errorf("dump decisions = %+v without a registered controller ring", d.Decisions)
	}
}

func TestConfigDefaults(t *testing.T) {
	o := New(Config{})
	if c := o.cfg; c.Label != "run" {
		t.Errorf("defaulted config = %+v", c)
	}
}

func TestSpanKindStrings(t *testing.T) {
	names := SpanKinds()
	if len(names) != int(numSpanKinds) {
		t.Fatalf("SpanKinds = %d entries, want %d", len(names), numSpanKinds)
	}
	seen := map[string]bool{}
	for k, name := range names {
		if name == "" || seen[name] {
			t.Errorf("kind %d has empty or duplicate name %q", k, name)
		}
		if SpanKind(k).String() != name {
			t.Errorf("SpanKind(%d).String() = %q, want %q", k, SpanKind(k).String(), name)
		}
		seen[name] = true
	}
	if got := SpanKind(200).String(); got == "" {
		t.Error("out-of-range SpanKind has empty String()")
	}
}

func TestStateStrings(t *testing.T) {
	for st := State(0); st < numStates; st++ {
		if st.String() == "" || st.String() == "state(?)" {
			t.Errorf("State(%d).String() = %q", st, st.String())
		}
	}
	if State(99).String() != "state(?)" {
		t.Errorf("out-of-range state = %q", State(99).String())
	}
}

// TestFlightDumpRepairsJSON: a dump written to FlightDir encodes each
// repair with its formatted detail, escaped and indented as encoding/json
// writes a record that stores the detail as text.
func TestFlightDumpRepairsJSON(t *testing.T) {
	dir := t.TempDir()
	o := New(Config{FlightDir: dir, Label: "r"})
	repairs := trace.NewRing[trace.Repair](4)
	repairs.Push(trace.Repair{Time: 5 * us, Kind: trace.DetectStarve, Dom: 0, VCPU: 1,
		Arg0: int64(60 * simtime.Millisecond), Arg1: int64(50 * simtime.Millisecond)})
	repairs.Push(trace.Repair{Time: 7 * us, Kind: trace.RepairUnpin, Dom: 0, VCPU: 1, Arg0: 3})
	repairs.Push(trace.Repair{Time: 9 * us, Kind: trace.RepairShrinkMicro, Dom: -1, VCPU: -1, Arg0: 2, Arg1: 1})
	o.Repairs = &repairs
	o.Flight(10*us, "fault", "hotplug-off p3", nil)
	if err := o.FlightErr(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(o.flights[0].File)
	if err != nil {
		t.Fatal(err)
	}
	want := `  "repairs": [
    {
      "t_ns": 5000,
      "kind": "detect.starve",
      "dom": 0,
      "vcpu": 1,
      "detail": "runnable for 60.000ms (\u003e bound 50.000ms)"
    },
    {
      "t_ns": 7000,
      "kind": "repair.unpin",
      "dom": 0,
      "vcpu": 1,
      "detail": "unpinned from unreachable p3"
    },
    {
      "t_ns": 9000,
      "kind": "repair.shrink_micro",
      "dom": -1,
      "vcpu": -1,
      "detail": "micro 2 -\u003e 1"
    }
  ]
`
	if !strings.Contains(string(buf), want) {
		t.Errorf("flight dump:\n%s\nwant its repairs encoded as\n%s", buf, want)
	}
}
